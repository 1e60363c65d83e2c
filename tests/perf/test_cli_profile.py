"""CLI integration of the perf layer: the --profile flag (and no --transport flag)."""

import json

import pytest

from repro.api.cli import main


class TestCliProfileFlag:
    def test_profile_writes_summary_and_prints_table(self, tmp_path, capsys):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1",
                "--profile", "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        profile_path = tmp_path / "heterofl_profile.json"
        assert profile_path.exists()
        payload = json.loads(profile_path.read_text(encoding="utf-8"))
        names = {scope["name"] for scope in payload["scopes"]}
        assert "round" in names and "round.training" in names
        out = capsys.readouterr().out
        assert "profile — heterofl" in out
        assert "round.training" in out

    def test_transport_flag_rejected(self, capsys):
        """The weight transport is not a setting, and --transport must not
        be read as an abbreviation of --transport-codec either."""
        for value in ("full", "delta", "none"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "--algorithm", "heterofl", "--transport", value, "--quiet"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --transport" in capsys.readouterr().err

    def test_no_profile_flag_writes_no_profile(self, tmp_path):
        rc = main(
            [
                "run", "--algorithm", "heterofl", "--scale", "ci", "--rounds", "1",
                "--quiet", "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        assert not (tmp_path / "heterofl_profile.json").exists()

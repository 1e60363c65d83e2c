"""Tests of the benchmark's own logic.

Not collected by the repository's test suite (the file name does not
match ``test_*.py``); run them by name:

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import report  # noqa: E402


def _span(proc, span_id, parent, name, start, end, round_index=-1):
    return {
        "proc": proc,
        "id": span_id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "round": round_index,
        "repeat": 0,
        "main": True,
        "attrs": None,
    }


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 1, 0, "round", 0.0, 10.0),
        _span(0, 2, 1, "train", 1.0, 3.0),
        _span(0, 3, 1, "train", 2.0, 5.0),  # overlaps its sibling: counted once
        _span(0, 4, 3, "kernel", 2.5, 4.0),  # grandchild: already inside its parent
        _span(0, 5, 1, "eval", 6.0, 7.0),
        _span("w", 1, 0, "task", 0.0, 4.0),  # same id in another process is another span
    ]
    selfs = report.self_times(spans)
    assert selfs[(0, 1)] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[(0, 3)] == pytest.approx(3.0 - 1.5)
    assert selfs[(0, 4)] == pytest.approx(1.5)
    assert selfs[("w", 1)] == pytest.approx(4.0)
    table = report.span_table(spans)
    assert table["train"] == {"count": 2, "busy_s": pytest.approx(5.0), "self_s": pytest.approx(3.5)}


def test_kernel_time_counts_outermost_kernel_spans_and_their_eval_share():
    spans = [
        _span(0, 1, 0, "core.evaluate", 0.0, 4.0),
        _span(0, 2, 1, "nn.conv2d_forward", 0.0, 2.0),
        _span(0, 3, 2, "nn.im2col", 0.5, 1.0),  # nested kernel: not counted twice
        _span(0, 4, 0, "core.local_train", 4.0, 10.0),
        _span(0, 5, 4, "nn.conv2d_backward", 4.0, 10.0),
    ]
    assert report.kernel_seconds(spans) == (pytest.approx(8.0), pytest.approx(2.0))


@pytest.mark.parametrize(
    ("samples", "percentile", "beyond"),
    [(20, 50, 10), (30, 66, 10), (40, 75, 10), (100, 90, 10), (180, 94, 10), (1000, 99, 10)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, percentile, beyond):
    values = [float(i) for i in range(samples)]
    got, value, got_beyond = report.tail_percentile(values)
    assert (got, got_beyond) == (percentile, beyond)
    assert sum(v > value for v in values) == got_beyond
    if got < 99:  # one percentile higher would leave fewer than ten beyond
        rank = -(-(got + 1) * samples // 100)
        assert samples - rank < 10


def test_tail_percentile_falls_back_to_the_median_on_short_runs():
    assert report.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0, 1)
    with pytest.raises(ValueError):
        report.tail_percentile([])


def test_metric_and_workload_names_are_valid():
    from workloads import WORKLOADS

    names = [m[0] for m in report.END_TO_END] + [m[0] for m in report.PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(report.valid_name(name) for name in names)
    assert all(report.valid_unit(m[1]) for m in report.END_TO_END + report.PER_LAYER)
    for bad in ("", "has space", "-leading", "a" * 65, "naïve", "a/b"):
        assert not report.valid_name(bad)
    assert not report.valid_unit("bytes per second")


def test_benchmark_json_matches_the_code():
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(report.PER_LAYER)


def test_uninstall_restores_every_patched_attribute():
    import repro.engine.tasks as engine_tasks
    import repro.nn.functional as functional
    from repro.data.loader import DataLoader
    from tracing import Tracer, install

    before = (functional.im2col, engine_tasks.train_local_model, DataLoader.__iter__)
    tracer = install(Tracer())
    assert functional.im2col is not before[0]
    tracer.uninstall()
    assert (functional.im2col, engine_tasks.train_local_model, DataLoader.__iter__) == before


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train_small", "fleet_lossy", "remote_loopback"])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
    completed = subprocess.run(
        command + ["--seconds", "1", "--trace", str(trace), "--quick"], capture_output=True, text=True, timeout=600
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = report.PER_LAYER if trace else report.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m[0]: m[1] for m in expected}
    # the human-readable report names every metric with its unit too
    printed = list(expected) + ([] if trace else list(report.REPORT_ONLY))
    for name, unit, *_ in printed:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in completed.stdout.splitlines())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_small", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""

"""Checkpoint/resume under lossy transport codecs.

Error-feedback residuals are training state: a top-k run that resumes
without them replays compression error it had already corrected and
silently diverges from the uninterrupted run.  This suite pins the
contract added with the codec tier:

* codec metadata and per-client residual banks travel inside
  :class:`Checkpoint` extras (``extra_state["codec"]`` + one flat
  ``extra_arrays["codec/{client}"]`` per banked client, keys laid out in
  sorted order),
* a lossy run resumed from any checkpoint round — or resumed twice — is
  **bit-identical** to the uninterrupted same-seed run (same standard as
  the exact-transport resume-parity suite),
* restore refuses codec mismatches loudly: a codec run cannot resume an
  exact checkpoint, an exact run cannot resume a codec checkpoint, and
  two different codecs cannot resume each other; a missing, misshapen or
  unlisted residual bank names its client.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.server import AdaptiveFL
from repro.store.runstore import RunRecorder, RunStore

ROUNDS = 3
FEDERATED = FederatedConfig(num_rounds=ROUNDS, clients_per_round=4, eval_every=2)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)


def build_algorithm(easy_setup, codec: str) -> AdaptiveFL:
    federated = replace(FEDERATED, transport_codec=codec)
    return AdaptiveFL(
        algorithm_config=AdaptiveFLConfig(federated=federated, local=LOCAL, pool=easy_setup["pool"]),
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )


def fingerprint(history) -> list[dict]:
    return [record.to_dict() for record in history.records]


def parameter_count(state) -> int:
    return sum(value.size for value in state.values())


def codec_keys(checkpoint) -> list[str]:
    return [key for key in checkpoint.extra_arrays if key.startswith("codec/")]


def assert_same_weights(actual, expected):
    assert set(actual) == set(expected)
    for key, value in actual.items():
        assert np.array_equal(value, expected[key]), f"weights differ in {key!r}"


@pytest.fixture(scope="module")
def codec_reference(easy_setup, tmp_path_factory):
    """Uninterrupted serial runs per codec, checkpointed every round."""
    runs = {}
    for codec in ("none", "topk", "int8"):
        store = RunStore(tmp_path_factory.mktemp(f"codec-{codec}") / "store")
        entry = store.begin_run({"suite": "codec-resume", "codec": codec})
        algorithm = build_algorithm(easy_setup, codec)
        algorithm.run(callbacks=[RunRecorder(store, entry.run_id)])
        assert store.checkpoint_rounds(entry.run_id) == list(range(ROUNDS))
        runs[codec] = (
            store,
            entry.run_id,
            fingerprint(algorithm.history),
            algorithm.global_state,
        )
    return runs


class TestResidualsTravel:
    def test_topk_checkpoint_carries_codec_state_and_residual_arrays(self, codec_reference):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id, round_index=ROUNDS - 1)
        meta = checkpoint.extra_state["codec"]
        assert meta["name"] == "topk"
        # error feedback banked residuals for every client that uploaded
        assert meta["clients"], "topk run finished with no banked residuals"
        size = parameter_count(checkpoint.global_state)
        for client_id in meta["clients"]:
            bank = checkpoint.extra_arrays.get(f"codec/{client_id}")
            assert bank is not None, f"client {client_id} listed but has no residual bank"
            assert bank.dtype == np.float32
            assert bank.shape == (size,)
            # small tensors may be fully kept (zero residual); across the
            # whole bank the dropped coordinates must show up somewhere
            assert np.any(bank != 0.0), f"client {client_id} residual bank is all zeros"

    @pytest.mark.parametrize("round_index", range(ROUNDS))
    def test_topk_checkpoint_holds_one_codec_array_per_listed_client(self, codec_reference, round_index):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id, round_index=round_index)
        clients = checkpoint.extra_state["codec"]["clients"]
        assert len(codec_keys(checkpoint)) == len(clients)
        assert set(codec_keys(checkpoint)) == {f"codec/{client_id}" for client_id in clients}

    def test_int8_checkpoint_carries_codec_name_but_no_residuals(self, codec_reference):
        """int8 keeps no error feedback; its codec state is just the name."""
        store, run_id, _, _ = codec_reference["int8"]
        checkpoint = store.load_checkpoint(run_id, round_index=ROUNDS - 1)
        assert checkpoint.extra_state["codec"]["name"] == "int8"
        assert checkpoint.extra_state["codec"]["clients"] == []
        assert not codec_keys(checkpoint)

    def test_exact_checkpoint_carries_no_codec_state(self, codec_reference):
        store, run_id, _, _ = codec_reference["none"]
        checkpoint = store.load_checkpoint(run_id, round_index=ROUNDS - 1)
        assert "codec" not in checkpoint.extra_state
        assert not codec_keys(checkpoint)


@pytest.mark.parametrize("codec", ["topk", "int8"])
@pytest.mark.parametrize("round_index", range(ROUNDS - 1))
def test_lossy_resume_bit_identical(easy_setup, codec_reference, codec, round_index):
    """Every checkpoint round of a lossy run is a bit-exact resume point."""
    store, run_id, expected_history, expected_state = codec_reference[codec]
    checkpoint = store.load_checkpoint(run_id, round_index=round_index)

    resumed = build_algorithm(easy_setup, codec)
    resumed.restore_checkpoint(checkpoint)
    assert len(resumed.history) == round_index + 1
    resumed.run(num_rounds=ROUNDS - (round_index + 1))

    assert fingerprint(resumed.history) == expected_history
    assert_same_weights(resumed.global_state, expected_state)


def test_restored_residuals_match_the_checkpointed_bank(easy_setup, codec_reference):
    """Every restored per-key view is byte-equal to its slice of the flat bank."""
    store, run_id, _, _ = codec_reference["topk"]
    checkpoint = store.load_checkpoint(run_id, round_index=1)
    # restore adopts the checkpoint's arrays; compare against an independent load
    reference = store.load_checkpoint(run_id, round_index=1)
    resumed = build_algorithm(easy_setup, "topk")
    resumed.restore_checkpoint(checkpoint)
    meta = reference.extra_state["codec"]
    assert sorted(resumed._codec_residuals) == meta["clients"]
    for client_id in meta["clients"]:
        bank = resumed._codec_residuals[client_id]
        flat = reference.extra_arrays[f"codec/{client_id}"]
        assert set(bank) == set(resumed.global_state)
        offset = 0
        for key in sorted(resumed.global_state):
            value = bank[key]
            assert value.shape == resumed.global_state[key].shape
            assert value.dtype == flat.dtype
            assert value.tobytes() == flat[offset : offset + value.size].tobytes(), (
                f"client {client_id} view {key!r} differs from its slice of the bank"
            )
            offset += value.size
        assert offset == flat.size


def test_double_resume_bit_identical(easy_setup, codec_reference, tmp_path):
    """Checkpoint → restore → train → checkpoint → restore → finish matches the
    uninterrupted run: writes into a restored bank must reach the next checkpoint."""
    store, run_id, expected_history, expected_state = codec_reference["topk"]
    first = build_algorithm(easy_setup, "topk")
    first.restore_checkpoint(store.load_checkpoint(run_id, round_index=0))
    second_store = RunStore(tmp_path / "store")
    entry = second_store.begin_run({"suite": "codec-double-resume"})
    first.run(num_rounds=1, callbacks=[RunRecorder(second_store, entry.run_id)])
    checkpoint = second_store.load_checkpoint(entry.run_id)
    assert checkpoint.round_index == 1
    for client_id, bank in first._codec_residuals.items():
        flat = checkpoint.extra_arrays[f"codec/{client_id}"]
        live = np.concatenate([bank[key].ravel() for key in sorted(bank)])
        assert live.tobytes() == flat.tobytes(), f"client {client_id} bank did not reach the checkpoint"

    second = build_algorithm(easy_setup, "topk")
    second.restore_checkpoint(checkpoint)
    second.run(num_rounds=ROUNDS - 2)

    assert fingerprint(second.history) == expected_history
    assert_same_weights(second.global_state, expected_state)


class TestRestoreValidation:
    def test_codec_run_refuses_exact_checkpoint(self, easy_setup, codec_reference):
        store, run_id, _, _ = codec_reference["none"]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm(easy_setup, "topk")
        with pytest.raises(ValueError, match="no codec state"):
            target.restore_checkpoint(checkpoint)

    def test_exact_run_refuses_codec_checkpoint(self, easy_setup, codec_reference):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm(easy_setup, "none")
        with pytest.raises(ValueError, match="carries transport-codec state"):
            target.restore_checkpoint(checkpoint)

    def test_codec_name_mismatch_refused(self, easy_setup, codec_reference):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id)
        target = build_algorithm(easy_setup, "int8")
        with pytest.raises(ValueError, match="written with transport codec 'topk'"):
            target.restore_checkpoint(checkpoint)

    @staticmethod
    def topk_checkpoint(codec_reference):
        store, run_id, _, _ = codec_reference["topk"]
        checkpoint = store.load_checkpoint(run_id)
        return checkpoint, checkpoint.extra_state["codec"]["clients"][0]

    def test_listed_client_without_bank_refused(self, easy_setup, codec_reference):
        checkpoint, client_id = self.topk_checkpoint(codec_reference)
        del checkpoint.extra_arrays[f"codec/{client_id}"]
        target = build_algorithm(easy_setup, "topk")
        with pytest.raises(ValueError, match=f"codec client {client_id} but carries no 'codec/{client_id}'"):
            target.restore_checkpoint(checkpoint)

    @pytest.mark.parametrize(
        "damage",
        [lambda bank: bank[:-1], lambda bank: bank.astype(np.float64), lambda bank: bank.reshape(1, -1)],
        ids=["size", "dtype", "shape"],
    )
    def test_misshapen_bank_refused(self, easy_setup, codec_reference, damage):
        checkpoint, client_id = self.topk_checkpoint(codec_reference)
        key = f"codec/{client_id}"
        checkpoint.extra_arrays[key] = damage(checkpoint.extra_arrays[key])
        target = build_algorithm(easy_setup, "topk")
        with pytest.raises(ValueError, match=f"residual bank of codec client {client_id} is"):
            target.restore_checkpoint(checkpoint)

    def test_bank_of_unlisted_client_refused(self, easy_setup, codec_reference):
        checkpoint, client_id = self.topk_checkpoint(codec_reference)
        checkpoint.extra_arrays["codec/9999"] = checkpoint.extra_arrays[f"codec/{client_id}"].copy()
        target = build_algorithm(easy_setup, "topk")
        with pytest.raises(ValueError, match="does not list: \\['codec/9999'\\]"):
            target.restore_checkpoint(checkpoint)

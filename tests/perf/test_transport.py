"""Slice/delta transport: exact codecs, worker caching, and bit-exact
uploads checked against training the server-cut slice directly."""

import pickle

import numpy as np
import pytest

from repro.baselines import HeteroFL
from repro.core.config import AdaptiveFLConfig, FederatedConfig, LocalTrainingConfig
from repro.core.local_training import train_local_model
from repro.core.pruning import slice_state_dict
from repro.core.server import AdaptiveFL
from repro.engine.base import Executor, run_task
from repro.engine.tasks import LocalRoundTask
from repro.engine.transport import (
    StateStore,
    apply_state_delta,
    decode_upload,
    encode_state_delta,
)

FEDERATED = FederatedConfig(num_rounds=2, clients_per_round=4, eval_every=2)
LOCAL = LocalTrainingConfig(local_epochs=1, batch_size=25, max_batches_per_epoch=3)


class TestDeltaCodec:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_is_bit_exact(self, dtype):
        rng = np.random.default_rng(0)
        reference = {"w": rng.normal(size=(5, 3)).astype(dtype), "b": rng.normal(size=(5,)).astype(dtype)}
        trained = {name: (value + rng.normal(size=value.shape) * 1e-3).astype(dtype) for name, value in reference.items()}
        delta = encode_state_delta(trained, reference)
        decoded = apply_state_delta(delta, reference)
        for name in trained:
            # bit-exact, not just allclose: XOR of the IEEE-754 payloads
            assert np.array_equal(
                decoded[name].view(np.uint8), np.asarray(trained[name]).view(np.uint8)
            ), name

    def test_special_values_survive(self):
        reference = {"w": np.array([0.0, -0.0, 1.0, 2.0], dtype=np.float32)}
        trained = {"w": np.array([np.inf, -np.inf, np.nan, 2.0], dtype=np.float32)}
        decoded = apply_state_delta(encode_state_delta(trained, reference), reference)
        assert np.array_equal(decoded["w"].view(np.uint32), trained["w"].view(np.uint32))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_state_delta({"w": np.zeros(3, np.float32)}, {"w": np.zeros(4, np.float32)})

    def test_decode_upload_passthrough_and_delta(self):
        reference = {"w": np.ones(3, np.float32)}
        raw = {"w": np.full(3, 2.0, np.float32)}
        assert decode_upload(raw, None) is raw
        delta = encode_state_delta(raw, reference)
        assert np.array_equal(decode_upload(delta, reference)["w"], raw["w"])
        with pytest.raises(ValueError):
            decode_upload(delta, None)


class TestStateStore:
    def test_inline_handle_returns_published_reference(self):
        store = StateStore("test")
        state = {"w": np.arange(4, dtype=np.float32)}
        handle = store.publish(state, spill=False)
        assert handle.load() is state

    def test_spilled_handle_survives_pickling_and_caches(self):
        store = StateStore("test")
        try:
            v1 = {"w": np.arange(4, dtype=np.float32)}
            handle = store.publish(v1, spill=True)
            clone = pickle.loads(pickle.dumps(handle))
            loaded = clone.load()
            assert np.array_equal(loaded["w"], v1["w"])
            # second load of the same version hits the worker cache
            assert clone.load() is loaded
            # a new version invalidates the cache
            v2 = {"w": np.arange(4, dtype=np.float32) * 2}
            handle2 = pickle.loads(pickle.dumps(store.publish(v2, spill=True)))
            assert np.array_equal(handle2.load()["w"], v2["w"])
        finally:
            store.close()

    def test_inline_only_handle_fails_across_pickle(self):
        store = StateStore("test")
        handle = store.publish({"w": np.zeros(2, np.float32)}, spill=False)
        clone = pickle.loads(pickle.dumps(handle))
        with pytest.raises(RuntimeError):
            clone.load()


def build_algorithm(name, easy_setup):
    kwargs = dict(
        architecture=easy_setup["arch"],
        train_dataset=easy_setup["train"],
        partition=easy_setup["partition"],
        test_dataset=easy_setup["test"],
        profiles=easy_setup["profiles"],
        resource_model=easy_setup["resource_model"],
        seed=0,
    )
    if name == "adaptivefl":
        return AdaptiveFL(
            algorithm_config=AdaptiveFLConfig(federated=FEDERATED, local=LOCAL, pool=easy_setup["pool"]),
            **kwargs,
        )
    return HeteroFL(federated_config=FEDERATED, local_config=LOCAL, **kwargs)


class OracleExecutor(Executor):
    """Runs every task and checks its upload against an independent oracle.

    The oracle trains the server-cut slice directly — ``train_local_model``
    on ``slice_state_dict`` of the algorithm's published global state, the
    client's own data and the task's ``rng_stream`` — and the task's
    decoded delta upload must equal it bit-for-bit.  With
    ``pickle_roundtrip`` tasks and results cross a pickle boundary and the
    executor advertises itself as inter-process, so the transport takes
    the spill-file path.
    """

    name = "oracle"

    def __init__(self, algorithm, pickle_roundtrip=False):
        self.algorithm = algorithm
        self.is_interprocess = pickle_roundtrip
        self.checked = 0

    def map(self, tasks):
        results = []
        for task in tasks:
            if self.is_interprocess:
                clone = pickle.loads(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
                result = pickle.loads(pickle.dumps(run_task(clone), protocol=pickle.HIGHEST_PROTOCOL))
            else:
                result = run_task(task)
            reference, expected = self.oracle(task)
            decoded = decode_upload(result.state, reference)
            assert set(decoded) == set(expected)
            for key, value in expected.items():
                assert np.array_equal(
                    np.asarray(decoded[key]).view(np.uint8), np.asarray(value).view(np.uint8)
                ), f"upload differs from the oracle in {key!r}"
            self.checked += 1
            results.append(result)
        return results

    def oracle(self, task):
        algorithm = self.algorithm
        if isinstance(task, LocalRoundTask):
            client_id = task.client.client_id
            group_sizes = algorithm.pool.group_sizes(task.planned_return)
        else:
            client_id = task.client_id
            group_sizes = task.group_sizes
        reference = slice_state_dict(algorithm.global_state, algorithm.architecture, dict(group_sizes))
        trained = train_local_model(
            architecture=algorithm.architecture,
            group_sizes=group_sizes,
            initial_state=reference,
            dataset=algorithm.clients[client_id].dataset,
            config=algorithm.local_config,
            rng=np.random.default_rng(task.rng_stream),
        )
        return reference, trained.state


class TestDeltaTransportParity:
    """Every decoded upload equals training the server-cut slice directly,
    for AdaptiveFL and HeteroFL, in process and across a pickle boundary."""

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_serial_bit_identical(self, easy_setup, name):
        algorithm = build_algorithm(name, easy_setup)
        executor = OracleExecutor(algorithm)
        algorithm.set_executor(executor)
        algorithm.run()
        assert executor.checked == sum(len(r.selected_clients) for r in algorithm.history.records)

    @pytest.mark.parametrize("name", ["adaptivefl", "heterofl"])
    def test_spill_path_bit_identical(self, easy_setup, name):
        """Same check across a real pickle boundary (spill files + worker
        cache + XOR-delta uploads), without the cost of a process pool."""
        algorithm = build_algorithm(name, easy_setup)
        executor = OracleExecutor(algorithm, pickle_roundtrip=True)
        algorithm.set_executor(executor)
        algorithm.run()
        assert executor.checked == sum(len(r.selected_clients) for r in algorithm.history.records)

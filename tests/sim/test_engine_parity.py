"""The array fleet engine vs the per-object oracle: bit-parity.

:class:`FleetSimulator` computes rounds as column arithmetic; the oracle
in ``fleet_oracle.py`` recomputes them one Python object per client, as
the historical engine did.  For a fixed ``draw_mode`` every
:class:`RoundOutcome` field, every battery trajectory and every end-to-end
training history is **bit-identical** between the two — on static
fleets, stochastic fleets (markov availability + jitter + dropouts +
batteries + deadlines) and gated (``server_concurrency``) fleets alike.
"""

import numpy as np
import pytest
from fleet_oracle import oracle_fleet

from repro.sim.fleet import ClientDispatch, DispatchBatch, FleetSimulator
from repro.sim.scenario import (
    AvailabilitySpec,
    BatterySpec,
    DeviceTemplate,
    NetworkSpec,
    ScenarioSpec,
    get_scenario,
)

DRAW_MODES = ["per-client", "batched"]


def stochastic_spec(**overrides):
    """Every dynamic subsystem on at once: the hardest parity target."""
    kwargs = dict(
        name="engine-parity",
        devices=(
            DeviceTemplate(
                name="weak", device_class="weak", flops_per_second=5e5, bandwidth_mbps=4.0,
                fraction=0.5, compute_jitter=0.2, link_latency_s=0.05, link_jitter_s=0.02,
            ),
            DeviceTemplate(
                name="strong", device_class="strong", flops_per_second=2e6, bandwidth_mbps=20.0,
                fraction=0.5, compute_jitter=0.1, link_latency_s=0.01, link_jitter_s=0.01,
            ),
        ),
        availability=AvailabilitySpec(kind="markov", p_drop=0.2, p_join=0.7),
        battery=BatterySpec(capacity_joules=600.0, compute_watts=2.0, recharge_watts=5.0),
        dropout_rate=0.15,
        deadline_factor=2.0,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def dispatches_for(clients, params=40_000, flops=20_000, samples=60, epochs=2):
    return [
        ClientDispatch(
            client_id=client, params_down=params, params_up=params // 2,
            flops_per_sample=flops, num_samples=samples, local_epochs=epochs,
        )
        for client in clients
    ]


def outcomes_equal(left, right):
    """Field-by-field bit equality of two RoundOutcomes."""
    assert left.round_index == right.round_index
    assert left.deadline_seconds == right.deadline_seconds
    assert left.round_seconds == right.round_seconds
    assert len(left.clients) == len(right.clients)
    for a, b in zip(left.clients, right.clients):
        for field in (
            "client_id", "bytes_down", "bytes_up", "finish_seconds",
            "dropped", "aggregated", "compute_seconds", "failure_seconds",
        ):
            assert getattr(a, field) == getattr(b, field), field


def run_rounds(fleet, num_rounds=6, k=8):
    """Simulate ``num_rounds`` rounds over whichever clients are reachable."""
    outcomes = []
    for round_index in range(num_rounds):
        clients = fleet.available_clients(round_index)[:k]
        outcomes.append(fleet.simulate_round(round_index, dispatches_for(clients)))
    return outcomes


class TestRoundOutcomeParity:
    @pytest.mark.parametrize("draw_mode", DRAW_MODES)
    def test_stochastic_rounds_bit_identical(self, draw_mode):
        oracle = oracle_fleet(FleetSimulator(stochastic_spec(), num_clients=24, seed=7, draw_mode=draw_mode))
        engine = FleetSimulator(stochastic_spec(), num_clients=24, seed=7, draw_mode=draw_mode)
        for left, right in zip(run_rounds(oracle), run_rounds(engine)):
            outcomes_equal(left, right)
        # battery trajectories advanced identically
        assert np.array_equal(oracle.state_dict()["charge"], engine.state_dict()["charge"])
        assert oracle.state_dict()["recovering"] == engine.state_dict()["recovering"]

    @pytest.mark.parametrize("draw_mode", DRAW_MODES)
    def test_gated_network_bit_identical(self, draw_mode):
        spec = stochastic_spec(network=NetworkSpec(server_concurrency=2), deadline_factor=None)
        oracle = oracle_fleet(FleetSimulator(spec, num_clients=16, seed=3, draw_mode=draw_mode))
        engine = FleetSimulator(spec, num_clients=16, seed=3, draw_mode=draw_mode)
        for left, right in zip(run_rounds(oracle), run_rounds(engine)):
            outcomes_equal(left, right)

    def test_fixed_deadline_and_empty_rounds(self):
        spec = stochastic_spec(deadline_factor=None, deadline_seconds=30.0)
        oracle = oracle_fleet(FleetSimulator(spec, num_clients=12, seed=5))
        engine = FleetSimulator(spec, num_clients=12, seed=5)
        for round_index in range(4):
            clients = oracle.available_clients(round_index)[:5] if round_index % 2 else []
            outcomes_equal(
                oracle.simulate_round(round_index, dispatches_for(clients)),
                engine.simulate_round(round_index, dispatches_for(clients)),
            )

    def test_availability_masks_identical(self):
        """The battery overlay stays identical as both fleets drain and recharge."""
        oracle = oracle_fleet(FleetSimulator(stochastic_spec(), num_clients=32, seed=11))
        engine = FleetSimulator(stochastic_spec(), num_clients=32, seed=11)
        for round_index in range(8):
            assert np.array_equal(oracle.available_mask(round_index), engine.available_mask(round_index))
            clients = oracle.available_clients(round_index)
            assert clients == engine.available_clients(round_index)
            oracle.simulate_round(round_index, dispatches_for(clients[:8]))
            engine.simulate_round(round_index, dispatches_for(clients[:8]))


class TestDrawModeThreshold:
    def test_auto_draw_mode_switches_at_threshold(self):
        from repro.sim.fleet import BATCHED_DRAW_THRESHOLD

        small = FleetSimulator(stochastic_spec(), num_clients=16, seed=0)
        assert small.draw_mode == "per-client"
        large = FleetSimulator(stochastic_spec(), num_clients=BATCHED_DRAW_THRESHOLD, seed=0)
        assert large.draw_mode == "batched"

    def test_batched_draws_deterministic_across_instances(self):
        """Satellite: generator construction is batched per (tag, round) and
        the draws are a pure function of (seed, round, client) — two fleets
        and repeated queries agree bit-for-bit."""
        first = FleetSimulator(stochastic_spec(), num_clients=40, seed=13, draw_mode="batched")
        second = FleetSimulator(stochastic_spec(), num_clients=40, seed=13, draw_mode="batched")
        ids = [3, 7, 21, 38]
        for round_index in range(3):
            a = first._dispatch_draws(round_index, ids)
            b = second._dispatch_draws(round_index, ids)
            again = first._dispatch_draws(round_index, ids)
            for attr in ("factor", "down_jitter", "up_jitter", "drop_fraction"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr), equal_nan=True), attr
                assert np.array_equal(getattr(a, attr), getattr(again, attr), equal_nan=True), attr

    def test_batched_subset_matches_full_population_draws(self):
        """A dispatched subset indexes the same full-population vectors."""
        fleet = FleetSimulator(stochastic_spec(), num_clients=40, seed=13, draw_mode="batched")
        subset = fleet._dispatch_draws(2, [5, 17, 29])
        everyone = fleet._dispatch_draws(2, list(range(40)))
        for attr in ("factor", "down_jitter", "up_jitter", "drop_fraction"):
            assert np.array_equal(
                getattr(subset, attr), getattr(everyone, attr)[[5, 17, 29]], equal_nan=True
            ), attr


#: 8 downlinks of 40k float32 params plus three 20k-param uplinks: with 8
#: dispatched clients the budget admits some uploads and refuses the rest
PARTIAL_BUDGET = 8 * 40_000 * 4 + 3 * 20_000 * 4

#: one spec per round path: closed-form dynamic, gated events, static
#: closed-form and byte-budget admission
BATCH_SPECS = {
    "stochastic": stochastic_spec,
    "gated": lambda: stochastic_spec(network=NetworkSpec(server_concurrency=2), deadline_factor=None),
    "paper_testbed": lambda: get_scenario("paper_testbed"),
    "byte_budget": lambda: stochastic_spec(round_byte_budget=PARTIAL_BUDGET),
}


class TestBatchAPI:
    @pytest.mark.parametrize("name", sorted(BATCH_SPECS))
    def test_simulate_round_batch_matches_list_api(self, name):
        """The columnar entry point matches the oracle's per-client list API,
        an empty round included."""
        spec = BATCH_SPECS[name]()
        list_fleet = oracle_fleet(FleetSimulator(spec, num_clients=24, seed=9))
        batch_fleet = FleetSimulator(spec, num_clients=24, seed=9)
        admitted_counts = []
        for round_index in range(5):
            clients = list_fleet.available_clients(round_index)[:8] if round_index != 2 else []
            dispatches = dispatches_for(clients)
            outcome = list_fleet.simulate_round(round_index, dispatches)
            batch = batch_fleet.simulate_round_batch(
                round_index, DispatchBatch.from_dispatches(dispatches)
            )
            outcomes_equal(outcome, batch.to_outcome())
            if not clients:
                assert len(batch) == 0 and batch.round_seconds == 0.0
            admitted_counts.append((int(batch.aggregated.sum()), len(batch)))
        if name == "byte_budget":
            assert any(0 < admitted < dispatched for admitted, dispatched in admitted_counts)

    def test_dispatch_batch_round_trips(self):
        dispatches = dispatches_for([2, 5, 9])
        batch = DispatchBatch.from_dispatches(dispatches)
        assert batch.to_dispatches() == dispatches
        assert len(batch) == 3


def build_fleet(engine, **kwargs):
    """``"legacy"``: a fleet driven by the per-object oracle (the retired
    engine); ``"vectorized"``: the fleet engine itself."""
    fleet = FleetSimulator(stochastic_spec(), **kwargs)
    return oracle_fleet(fleet) if engine == "legacy" else fleet


class TestStateRoundTrip:
    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_resume_is_bit_identical(self, engine):
        reference = build_fleet(engine, num_clients=20, seed=4)
        run_rounds(reference, num_rounds=6)

        first = build_fleet(engine, num_clients=20, seed=4)
        run_rounds(first, num_rounds=3)
        resumed = build_fleet(engine, num_clients=20, seed=4)
        resumed.load_state_dict(first.state_dict())
        for round_index in range(3, 6):
            clients = resumed.available_clients(round_index)[:8]
            resumed.simulate_round(round_index, dispatches_for(clients))
        assert np.array_equal(reference.state_dict()["charge"], resumed.state_dict()["charge"])
        assert reference.state_dict()["recovering"] == resumed.state_dict()["recovering"]

    def test_cross_engine_state_is_interchangeable(self):
        """Oracle-written state resumes on the engine, bit-identically."""
        oracle = build_fleet("legacy", num_clients=20, seed=4)
        run_rounds(oracle, num_rounds=3)
        engine = build_fleet("vectorized", num_clients=20, seed=4)
        engine.load_state_dict(oracle.state_dict())
        for round_index in range(3, 6):
            clients = engine.available_clients(round_index)[:8]
            engine.simulate_round(round_index, dispatches_for(clients))
        reference = build_fleet("legacy", num_clients=20, seed=4)
        run_rounds(reference, num_rounds=6)
        assert np.array_equal(reference.state_dict()["charge"], engine.state_dict()["charge"])
        assert reference.state_dict()["recovering"] == engine.state_dict()["recovering"]


@pytest.fixture(scope="module")
def e2e_setup():
    """A tiny 17-client federation for end-to-end engine parity runs."""
    from repro.core.config import FederatedConfig, LocalTrainingConfig, ModelPoolConfig
    from repro.data.datasets import SyntheticTaskConfig, synthesize_classification_task
    from repro.data.partition import iid_partition
    from repro.devices.resources import ResourceModel
    from repro.devices.testbed import TestbedSimulator
    from repro.nn.models import SlimmableSimpleCNN

    arch = SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=32)
    config = SyntheticTaskConfig(
        num_classes=4, input_shape=(1, 8, 8), train_samples=510, test_samples=170,
        clusters_per_class=1, noise_std=0.35, label_noise=0.0, seed=11,
    )
    train, test = synthesize_classification_task(config)
    partition = iid_partition(train, 17, np.random.default_rng(2))
    profiles = TestbedSimulator().build_profiles()
    resource_model = ResourceModel(profiles, arch.parameter_count(), uncertainty=0.1, seed=2)
    return {
        "pool": ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1),
        "federated": FederatedConfig(num_rounds=3, clients_per_round=5, eval_every=3),
        "local": LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2),
        "kwargs": dict(
            architecture=arch, train_dataset=train, partition=partition, test_dataset=test,
            profiles=profiles, resource_model=resource_model, seed=2,
        ),
    }


class TestEndToEndParity:
    """Histories + final weights bit-identical, engine vs oracle, on flaky_edge."""

    def build(self, setup, cls):
        from repro.core.config import AdaptiveFLConfig
        from repro.core.server import AdaptiveFL

        extra = {}
        if cls is AdaptiveFL:
            extra["algorithm_config"] = AdaptiveFLConfig(
                federated=setup["federated"], local=setup["local"], pool=setup["pool"]
            )
        return cls(
            **setup["kwargs"], pool_config=setup["pool"], federated_config=setup["federated"],
            local_config=setup["local"], scenario="flaky_edge", **extra,
        )

    def algorithms(self):
        from repro.baselines import HeteroFL
        from repro.core.server import AdaptiveFL

        return [AdaptiveFL, HeteroFL]

    @pytest.mark.parametrize("index", [0, 1], ids=["adaptivefl", "heterofl"])
    def test_history_and_weights_bit_identical(self, e2e_setup, index):
        cls = self.algorithms()[index]
        oracle = self.build(e2e_setup, cls)
        oracle_fleet(oracle.fleet)
        engine = self.build(e2e_setup, cls)
        oracle_history = oracle.run()
        engine_history = engine.run()
        assert oracle_history.to_dict() == engine_history.to_dict()
        for key in oracle.global_state:
            assert np.array_equal(oracle.global_state[key], engine.global_state[key]), key


class TestPopulationStats:
    def test_counts_partition_the_fleet(self):
        fleet = FleetSimulator(stochastic_spec(), num_clients=30, seed=2)
        run_rounds(fleet, num_rounds=3)
        stats = fleet.population_stats(3)
        assert set(stats) == {"online", "recovering", "battery_dead"}
        assert stats["online"] == int(np.count_nonzero(fleet.available_mask(3)))
        assert 0 <= stats["recovering"] <= 30
        assert 0 <= stats["battery_dead"] <= 30

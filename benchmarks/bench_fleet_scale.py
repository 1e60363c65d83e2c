"""Fleet-scale benchmark: devices/sec and peak RSS from 10³ to 10⁶ devices.

Writes ``BENCH_fleet_scale.json`` with three sections:

* ``sizes`` — per fleet size, the fleet engine's (``"vectorized"``,
  batched draws) round throughput in devices/sec and subprocess peak
  RSS, plus the ``"legacy"`` per-device path at the sizes where it is
  still tractable, and the resulting speedup.  The per-device path is
  the per-object oracle of ``tests/sim/fleet_oracle.py`` (the retired
  engine: per-client generators + event-loop rounds) driving a
  ``draw_mode="per-client"`` fleet,
* ``parity`` — the small-N bit-parity suite: AdaptiveFL and HeteroFL
  histories **and** final weights compared between a run whose fleet is
  driven by the oracle and a plain run, across the serial, thread and
  process executors (every entry must be ``true``),
* ``acceptance`` — the PR's gates: ≥50× devices/sec over the per-device
  path at 10⁴, completed 10⁶-device rounds, and full parity.

Each (size, path) throughput measurement runs in its own subprocess so
``ru_maxrss`` reports that configuration's peak RSS in isolation.

Run as a script::

    python benchmarks/bench_fleet_scale.py            # full sweep, 10³..10⁶
    python benchmarks/bench_fleet_scale.py --quick    # CI smoke: 10³/10⁴
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
ORACLE = REPO_ROOT / "tests" / "sim"
for path in (SRC, ORACLE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402

FULL_SIZES = (1_000, 10_000, 100_000, 1_000_000)
QUICK_SIZES = (1_000, 10_000)
#: largest fleet the legacy per-device path is timed at (it is the
#: baseline being replaced; beyond 10⁴ it is pointlessly slow)
LEGACY_SIZE_CAP = 10_000
ROUNDS = 5
DISPATCH_PER_ROUND = 256
SPEEDUP_GATE = 50.0
SPEEDUP_GATE_SIZE = 10_000


def scale_spec():
    """Every dynamic subsystem on at once: markov availability, batteries,
    compute/link jitter, mid-round dropouts and a relative deadline."""
    from repro.sim.scenario import AvailabilitySpec, BatterySpec, DeviceTemplate, ScenarioSpec

    return ScenarioSpec(
        name="fleet-scale-bench",
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
        availability=AvailabilitySpec(kind="markov", p_drop=0.1, p_join=0.8),
        battery=BatterySpec(capacity_joules=5000.0, compute_watts=2.0, recharge_watts=5.0),
        dropout_rate=0.05,
        deadline_factor=3.0,
    )


# -- throughput worker (one subprocess per measurement) ----------------------------------
def measure_throughput(size: int, engine: str, rounds: int) -> dict:
    """One path's full round pipeline: availability over the whole fleet,
    dispatch simulation for a fixed cohort, population stats."""
    from fleet_oracle import oracle_fleet

    from repro.sim.fleet import ClientDispatch, DispatchBatch, FleetSimulator

    draw_mode = "batched" if engine == "vectorized" else "per-client"
    build_start = time.perf_counter()
    fleet = FleetSimulator(scale_spec(), num_clients=size, seed=7, draw_mode=draw_mode)
    if engine == "legacy":
        oracle_fleet(fleet)
    build_seconds = time.perf_counter() - build_start

    def one_round(round_index: int) -> None:
        mask = fleet.available_mask(round_index)
        clients = np.flatnonzero(mask)[:DISPATCH_PER_ROUND]
        if engine == "vectorized":
            batch = DispatchBatch(
                client_ids=clients.astype(np.int64), params_down=40_000, params_up=20_000,
                flops_per_sample=20_000, num_samples=60, local_epochs=2,
            )
            fleet.simulate_round_batch(round_index, batch)
        else:
            dispatches = [ClientDispatch(int(c), 40_000, 20_000, 20_000, 60, 2) for c in clients]
            fleet.simulate_round(round_index, dispatches)
        fleet.population_stats(round_index)

    one_round(0)  # warm caches outside the timed window
    start = time.perf_counter()
    for round_index in range(1, rounds + 1):
        one_round(round_index)
    elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "draw_mode": draw_mode,
        "num_clients": size,
        "rounds": rounds,
        "dispatch_per_round": DISPATCH_PER_ROUND,
        "build_seconds": round(build_seconds, 6),
        "elapsed_seconds": round(elapsed, 6),
        "seconds_per_round": round(elapsed / rounds, 6),
        "devices_per_sec": round(size * rounds / elapsed, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def run_worker_subprocess(size: int, engine: str, rounds: int) -> dict:
    """Isolate one measurement so ru_maxrss reflects only that fleet size."""
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", str(size), engine, str(rounds)]
    completed = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(completed.stdout)


# -- small-N bit-parity suite ------------------------------------------------------------
def parity_federation(executor: str):
    """A tiny 17-client federation on ``flaky_edge`` (markov + dropouts +
    jitter + deadline), the stochastic scenario engine and oracle must agree on."""
    from repro.core.config import FederatedConfig, LocalTrainingConfig, ModelPoolConfig
    from repro.data.datasets import SyntheticTaskConfig, synthesize_classification_task
    from repro.data.partition import iid_partition
    from repro.devices.resources import ResourceModel
    from repro.devices.testbed import TestbedSimulator
    from repro.nn.models import SlimmableSimpleCNN

    arch = SlimmableSimpleCNN(num_classes=4, input_shape=(1, 8, 8), width_multiplier=0.5, hidden_features=32)
    task = SyntheticTaskConfig(
        num_classes=4, input_shape=(1, 8, 8), train_samples=510, test_samples=170,
        clusters_per_class=1, noise_std=0.35, label_noise=0.0, seed=11,
    )
    train, test = synthesize_classification_task(task)
    partition = iid_partition(train, 17, np.random.default_rng(2))
    profiles = TestbedSimulator().build_profiles()
    return {
        "pool": ModelPoolConfig(models_per_level=3, start_layers=(2, 2, 1), min_start_layer=1),
        "federated": FederatedConfig(
            num_rounds=3, clients_per_round=5, eval_every=3, executor=executor,
            max_workers=2 if executor != "serial" else None,
        ),
        "local": LocalTrainingConfig(local_epochs=1, batch_size=16, max_batches_per_epoch=2),
        "kwargs": dict(
            architecture=arch, train_dataset=train, partition=partition, test_dataset=test,
            profiles=profiles,
            resource_model=ResourceModel(profiles, arch.parameter_count(), uncertainty=0.1, seed=2),
            seed=2,
        ),
    }


def run_parity_case(algorithm: str, executor: str, engine: str):
    from fleet_oracle import oracle_fleet

    from repro.baselines import HeteroFL
    from repro.core.config import AdaptiveFLConfig
    from repro.core.server import AdaptiveFL

    setup = parity_federation(executor)
    extra = {}
    cls = {"adaptivefl": AdaptiveFL, "heterofl": HeteroFL}[algorithm]
    if cls is AdaptiveFL:
        extra["algorithm_config"] = AdaptiveFLConfig(
            federated=setup["federated"], local=setup["local"], pool=setup["pool"]
        )
    instance = cls(
        **setup["kwargs"], pool_config=setup["pool"], federated_config=setup["federated"],
        local_config=setup["local"], scenario="flaky_edge", **extra,
    )
    if engine == "legacy":
        oracle_fleet(instance.fleet)
    history = instance.run()
    return history.to_dict(), instance.global_state


def run_parity_suite() -> dict:
    suite: dict[str, dict[str, bool]] = {}
    for algorithm in ("adaptivefl", "heterofl"):
        suite[algorithm] = {}
        for executor in ("serial", "thread", "process"):
            legacy_history, legacy_state = run_parity_case(algorithm, executor, "legacy")
            vector_history, vector_state = run_parity_case(algorithm, executor, "vectorized")
            identical = legacy_history == vector_history and all(
                np.array_equal(legacy_state[name], vector_state[name]) for name in legacy_state
            )
            suite[algorithm][executor] = bool(identical)
            print(f"parity {algorithm:<10} {executor:<8} {'OK' if identical else 'MISMATCH'}")
    return suite


# -- orchestration -----------------------------------------------------------------------
def run_benchmark(sizes, rounds: int, skip_parity: bool) -> dict:
    results: dict[str, dict] = {}
    for size in sizes:
        entry: dict[str, object] = {}
        print(f"measuring vectorized engine at {size:,} devices ...")
        entry["vectorized"] = run_worker_subprocess(size, "vectorized", rounds)
        if size <= LEGACY_SIZE_CAP:
            print(f"measuring legacy per-device path at {size:,} devices ...")
            entry["legacy"] = run_worker_subprocess(size, "legacy", rounds)
            entry["speedup"] = round(
                entry["vectorized"]["devices_per_sec"] / entry["legacy"]["devices_per_sec"], 1
            )
        results[str(size)] = entry

    parity = None if skip_parity else run_parity_suite()

    gate_entry = results.get(str(SPEEDUP_GATE_SIZE), {})
    speedup_at_gate = gate_entry.get("speedup")
    million = results.get(str(1_000_000), {}).get("vectorized")
    acceptance = {
        "speedup_at_10k": speedup_at_gate,
        "speedup_at_10k_geq_50x": bool(speedup_at_gate is not None and speedup_at_gate >= SPEEDUP_GATE),
        "million_device_rounds_completed": bool(million is not None and million["rounds"] >= 1),
        "parity_bit_identical": (
            None if parity is None else all(all(row.values()) for row in parity.values())
        ),
    }
    return {
        "benchmark": "fleet_scale",
        "generated_by": "benchmarks/bench_fleet_scale.py",
        "rounds_per_measurement": rounds,
        "dispatch_per_round": DISPATCH_PER_ROUND,
        "scenario": scale_spec().to_dict(),
        "sizes": results,
        "parity": parity,
        "acceptance": acceptance,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke: 10^3/10^4 only")
    parser.add_argument("--rounds", type=int, default=ROUNDS, help="timed rounds per measurement")
    parser.add_argument("--skip-parity", action="store_true", help="skip the small-N parity suite")
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_fleet_scale.json",
        help="where to write the JSON report",
    )
    parser.add_argument("--worker", nargs=3, metavar=("SIZE", "ENGINE", "ROUNDS"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        size, engine, rounds = int(args.worker[0]), args.worker[1], int(args.worker[2])
        json.dump(measure_throughput(size, engine, rounds), sys.stdout)
        return 0

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    payload = run_benchmark(sizes, args.rounds, args.skip_parity)
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")

    acceptance = payload["acceptance"]
    failures = []
    if acceptance["speedup_at_10k"] is not None and not acceptance["speedup_at_10k_geq_50x"]:
        failures.append(
            f"speedup at 10^4 is {acceptance['speedup_at_10k']}x, below the {SPEEDUP_GATE}x gate"
        )
    if acceptance["parity_bit_identical"] is False:
        failures.append("small-N parity suite found an oracle/engine mismatch")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

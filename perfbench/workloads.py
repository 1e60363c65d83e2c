"""The benchmark's workloads and the repeat protocol that measures them.

One *repeat* is the unit of measured work: set up (prepare the
experiment, build the algorithm, start the executor), train the first
half of the rounds while checkpointing into a :class:`RunStore`, discard
the algorithm, build a fresh one that resumes from the latest
checkpoint, train the second half, tear down.  A run makes a fixed
number of repeats; ``--seconds`` sets that number through each
workload's nominal repeat time, so both sides of an A/B comparison do
the same work.  Each repeat trains its own sub-seed of ``--seed``:
round costs depend on the sampled clients and submodels, and averaging
over several inputs keeps a run's figures close to those of the next
seed.  Two runs of one sub-seed must end bit-identical.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.experiments.settings as settings
from repro.api.callbacks import Callback
from repro.api.registry import get_algorithm
from repro.engine.serial import SerialExecutor
from repro.serve.executor import RemoteExecutor
from repro.serve.options import ServeOptions
from repro.store.keys import run_key
from repro.store.runstore import RunRecorder, RunStore

from tracing import Tracer, install, load_dump

HERE = Path(__file__).resolve().parent

#: seconds to wait for loopback workers to connect or exit
WORKER_TIMEOUT_S = 60

#: fresh build + checkpoint restore is timed this many times per repeat
RESUME_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for why each exists)."""

    name: str
    why: str
    algorithm: str
    #: ``ExperimentSetting`` fields other than the seed
    setting: dict
    #: rounds per repeat; the run resumes from a checkpoint after ``rounds // 2``
    rounds: int
    #: checkpoint every round (else only at the end of each half)
    checkpoint_every_round: bool
    #: wall seconds of one repeat on a 2-CPU x86 machine (OpenBLAS 0.3.31, one
    #: BLAS thread); ``--seconds`` buys ``round(seconds / nominal_repeat_s)`` repeats
    nominal_repeat_s: float
    #: loopback worker processes (0 = serial executor in the benchmark process)
    workers: int = 0

    def make_setting(self, seed: int) -> settings.ExperimentSetting:
        return settings.ExperimentSetting(seed=seed, **self.setting)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="train_small",
            why="repro.nn training and evaluation kernels do almost all the work; accuracy is well above chance",
            algorithm="adaptivefl",
            setting={"dataset": "cifar10", "model": "simple_cnn", "scale": "small"},
            rounds=10,
            checkpoint_every_round=False,
            nominal_repeat_s=9.0,
        ),
        Workload(
            name="fleet_lossy",
            why="20000-device flaky fleet with top-k uploads: RL selection, fleet simulation, codecs and store dominate",
            algorithm="adaptivefl",
            setting={
                "dataset": "cifar10",
                "model": "simple_cnn",
                "scale": "ci",
                "scenario": "flaky_edge",
                "transport_codec": "topk",
                "overrides": {"num_clients": 20_000, "clients_per_round": 32, "train_samples": 40_000},
            },
            rounds=16,
            checkpoint_every_round=True,
            nominal_repeat_s=12.0,
        ),
        Workload(
            name="remote_loopback",
            why="HeteroFL over 2 loopback workers: task pickling, frames, state downloads and scheduling dominate",
            algorithm="heterofl",
            setting={
                "dataset": "cifar10",
                "model": "simple_cnn",
                "scale": "ci",
                "distribution": "dirichlet",
                "alpha": 0.3,
                "executor": "remote",
                "max_workers": 2,
                "overrides": {"clients_per_round": 4},
            },
            rounds=30,
            checkpoint_every_round=False,
            nominal_repeat_s=3.0,
            workers=2,
        ),
    )
}


@dataclass
class Repeat:
    """What one repeat measured and checked."""

    sub_seed: int
    traced: bool
    setup_s: float = 0.0
    resume_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    wall_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    #: history-and-weights digests after the first half and at the end
    split_digest: str = ""
    digest: str = ""
    tasks: int = 0
    task_errors: int = 0
    touched_clients: int = 0
    serve_stats: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


class RoundClock(Callback):
    """Times each round from ``on_round_start`` to ``on_checkpoint`` (register it last)."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.round_s: list[float] = []
        self.resume_requested = False
        self.first_resumed_round: int | None = None
        self._started = 0.0
        self._token = None

    def on_round_start(self, algorithm, round_index: int) -> None:
        self._started = time.perf_counter()
        if self.resume_requested and self.first_resumed_round is None:
            self.first_resumed_round = round_index
        if self.tracer is not None:
            self.tracer.round = round_index
            self._token = self.tracer.begin("core.round")

    def on_checkpoint(self, algorithm, record) -> None:
        stop = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end(self._token, stop=stop)
            self.tracer.round = -1
        self.round_s.append(stop - self._started)


class TaskTally:
    """Counts the client tasks an executor is handed, and those that raised."""

    def __init__(self, executor) -> None:
        self.tasks = 0
        self.errors = 0

        def counted_map(tasks):
            self.tasks += len(tasks)
            try:
                # looked up on the class at call time, so a traced repeat sees the wrapper
                return type(executor).map(executor, tasks)
            except Exception:
                self.errors += len(tasks)
                raise

        executor.map = counted_map


def state_digest(algorithm) -> str:
    """SHA-256 over the history and the final global weights."""
    digest = hashlib.sha256(json.dumps(algorithm.history.to_dict(), sort_keys=True).encode("utf-8"))
    for key in sorted(algorithm.global_state):
        digest.update(key.encode("utf-8"))
        digest.update(np.ascontiguousarray(algorithm.global_state[key]).tobytes())
    return digest.hexdigest()


def touched_clients(algorithm) -> int:
    """Clients the RL selector holds learned state for (0 without a selector)."""
    selector = getattr(algorithm, "selector", None)
    if selector is None:
        return 0
    if hasattr(selector, "num_touched"):
        return int(selector.num_touched)
    return int(np.count_nonzero((selector.curiosity_table != 1.0).any(axis=0)))


class Bench:
    """Runs one workload for one seed."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path, quick: bool = False):
        self.workload = workload
        self.seed = seed
        self.rounds = 2 if quick else workload.rounds
        self.quick = quick
        self.out = out_dir
        self.tracer = Tracer()
        self.worker_dumps: list[tuple[int, int, Path]] = []

    def sub_seed(self, index: int) -> int:
        """Experiment seed of the ``index``-th distinct input of this run."""
        return self.seed * 1000 + index

    def plan(self, seconds: float, trace: bool) -> list[tuple[int, bool]]:
        """``(sub_seed, traced)`` per repeat.

        Untraced runs give every repeat its own sub-seed, so a run averages
        over several inputs.  Traced runs pair an untraced and a traced
        repeat on each sub-seed: the pair measures the tracing overhead on
        identical work and must end bit-identical.
        """
        count = 2 if self.quick else max(2, round(seconds / self.workload.nominal_repeat_s))
        if not trace:
            return [(self.sub_seed(index), False) for index in range(count)]
        return [(self.sub_seed(index // 2), index % 2 == 1) for index in range(2 * max(1, count // 2))]

    def reference(self, sub_seed: int) -> Repeat:
        """Untimed serial run of ``sub_seed`` that the first repeat must match.

        On remote workloads it is the full run, so remote is checked
        against serial; elsewhere only the first half runs (it doubles as
        the warm-up) and is compared at the checkpoint.
        """
        remote = self.workload.workers > 0
        return self.run_repeat(-1, sub_seed, remote=False, traced=False, half_only=not remote)

    def run_repeat(self, index: int, sub_seed: int, *, remote: bool, traced: bool, half_only: bool = False) -> Repeat:
        tracer = self.tracer if traced else None
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        if tracer is not None:
            tracer.repeat = index
            install(tracer)
        setting = self.workload.make_setting(sub_seed)
        rounds = self.rounds
        result = Repeat(sub_seed=sub_seed, traced=traced)
        store_dir = self.out / f"store-{index}"
        executor = None
        workers: list[subprocess.Popen] = []
        started = time.perf_counter()
        try:
            with span("bench.setup"):
                prepared = settings.prepare_experiment(setting)
                spec = get_algorithm(self.workload.algorithm)
                algorithm = spec.build(prepared)
                executor, workers = self._start_executor(index, remote, traced)
                tally = TaskTally(executor)
                algorithm.set_executor(executor)
                store = RunStore(store_dir)
                run_id = store.begin_run(run_key(setting, self.workload.algorithm, num_rounds=rounds)).run_id
            result.setup_s = time.perf_counter() - started

            clock = RoundClock(tracer)
            every = 1 if self.workload.checkpoint_every_round else rounds
            split = rounds // 2
            result.loop_s = self._train(algorithm, split, [RunRecorder(store, run_id, every=every), clock])
            result.split_digest = state_digest(algorithm)
            del algorithm
            gc.collect()
            if not half_only:
                # resume is short and noisy: time it several times, train on the last
                for _ in range(RESUME_SAMPLES):
                    algorithm = None
                    resume_started = time.perf_counter()
                    with span("bench.resume"):
                        algorithm = spec.build(prepared)
                        algorithm.set_executor(executor)
                        checkpoint = store.load_checkpoint(run_id)
                        algorithm.restore_checkpoint(checkpoint)
                    result.resume_s.append(time.perf_counter() - resume_started)
                clock.resume_requested = True
                result.loop_s += self._train(algorithm, rounds - split, [RunRecorder(store, run_id, every=every), clock])
                if checkpoint.round_index != split - 1 or clock.first_resumed_round != split:
                    result.failures.append(
                        f"resume: checkpoint at round {checkpoint.round_index}, resumed at round "
                        f"{clock.first_resumed_round}, expected {split - 1} then {split}"
                    )
                result.records = list(algorithm.history.records)
                result.digest = state_digest(algorithm)
                result.touched_clients = touched_clients(algorithm)
                del algorithm
                rounds_seen = [record.round_index for record in result.records]
                if rounds_seen != list(range(rounds)):
                    result.failures.append(f"history holds rounds {rounds_seen}, expected 0..{rounds - 1}")
            result.round_s = clock.round_s
            bad = [i for i, r in enumerate(result.records) if r.train_loss is not None and not math.isfinite(r.train_loss)]
            if bad:
                result.failures.append(f"non-finite training loss in rounds {bad}")
            result.tasks, result.task_errors = tally.tasks, tally.errors
            result.serve_stats = executor.stats() if remote else {}
        finally:
            with span("bench.teardown"):
                result.failures.extend(self._stop(executor, workers))
                shutil.rmtree(store_dir, ignore_errors=True)
                gc.collect()
            if tracer is not None:
                tracer.uninstall()
        result.wall_s = time.perf_counter() - started
        return result

    @staticmethod
    def _train(algorithm, rounds: int, callbacks: list) -> float:
        started = time.perf_counter()
        algorithm.run(num_rounds=rounds, callbacks=callbacks)
        return time.perf_counter() - started

    def _start_executor(self, index: int, remote: bool, traced: bool):
        if not remote:
            return SerialExecutor(), []
        executor = RemoteExecutor(
            max_workers=self.workload.workers, options=ServeOptions(connect_timeout=WORKER_TIMEOUT_S)
        )
        _, port = executor.start()
        workers = []
        for number in range(self.workload.workers):
            command = [sys.executable, str(HERE / "worker.py"), "--port", str(port), "--name", f"bench-{number}"]
            if traced:
                dump = self.out / f"worker-{index}-{number}.jsonl"
                self.worker_dumps.append((index, number, dump))
                command += ["--spans", str(dump)]
            workers.append(subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL))
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        while executor.stats().get("connects", 0) < self.workload.workers:
            if any(worker.poll() is not None for worker in workers) or time.monotonic() > deadline:
                self._stop(executor, workers)
                raise RuntimeError("loopback workers did not all connect")
            time.sleep(0.002)
        return executor, workers

    @staticmethod
    def _stop(executor, workers: list[subprocess.Popen]) -> list[str]:
        """Shut the executor down and reap every worker; returns failures."""
        failures = []
        try:
            if isinstance(executor, RemoteExecutor):
                executor.shutdown()
        finally:
            for number, worker in enumerate(workers):
                try:
                    code = worker.wait(timeout=WORKER_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    code = worker.wait()
                if code != 0:
                    failures.append(f"worker bench-{number} exited with code {code}")
        return failures

    def worker_spans(self) -> tuple[list[dict], dict[str, float]]:
        """Spans and counters the traced repeats' workers wrote, keyed per process."""
        spans: list[dict] = []
        counters: dict[str, float] = {}
        for index, number, path in self.worker_dumps:
            records, worker_counters = load_dump(str(path))
            proc = f"r{index}w{number}"
            for record in records:
                record["proc"] = proc
                record["repeat"] = index
            spans.extend(records)
            for key, value in worker_counters.items():
                counters[key] = counters.get(key, 0.0) + value
        return spans, counters

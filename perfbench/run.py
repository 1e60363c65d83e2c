#!/usr/bin/env python3
"""The repository benchmark: run one workload for one seed and check it.

    python3 perfbench/run.py --workload train_small --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` interleaves untraced and traced repeats and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
``--workload all`` runs every workload, untraced and traced, each in its
own process.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; everything before
it is the human-readable report.  Outputs (result, spans) go to
``perfbench/_out/<workload>-s<seed>/``.  Exit code 0 means every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import report

# one BLAS thread in this process and in every worker it starts; must be
# set before numpy is first imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOAD_NAMES = ("train_small", "fleet_lossy", "remote_loopback")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time; sets the number of repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="two rounds, two repeats: a smoke test of the harness")
    return parser.parse_args(argv)


# -- run envelope -------------------------------------------------------------------------
def git_sha() -> str:
    """HEAD of the checkout's git repository, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (identifies the code where there is no git)."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def blas_envelope() -> dict:
    """numpy's BLAS build and the thread count it runs with in this process."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        get_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            threads = int(get_threads())
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "threads": threads,
        "thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def envelope(args, bench, plan) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_envelope(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds_per_repeat": bench.rounds,
        "repeats": len(plan),
        "traced_repeats": sum(traced for _, traced in plan),
        "sub_seeds": sorted({sub_seed for sub_seed, _ in plan}),
        "workers": bench.workload.workers,
    }


# -- metrics ------------------------------------------------------------------------------
def rounds_per_s(repeats) -> float:
    """Median over repeats of rounds ÷ training-loop wall time."""
    return statistics.median(len(r.round_s) / r.loop_s for r in repeats)


def end_to_end(repeats) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the report-only figures beside them."""
    round_s = [seconds for r in repeats for seconds in r.round_s]
    records = [record for r in repeats for record in r.records]
    finals = [r.records[-1] for r in repeats]
    wastes = [record.communication_waste for record in records if record.communication_waste is not None]
    percentile, tail, beyond = report.tail_percentile(round_s)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    waste = statistics.fmean(wastes) if wastes else 0.0
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in repeats),
        "rounds_per_s": rounds_per_s(repeats),
        "round_s_p50": statistics.median(round_s),
        "round_s_tail": tail,
        "resume_s": statistics.median(seconds for r in repeats for seconds in r.resume_s),
        "uplink_bytes_per_round": statistics.fmean(record.bytes_up or 0 for record in records),
        "downlink_bytes_per_round": statistics.fmean(record.bytes_down or 0 for record in records),
        "comm_efficiency": 1.0 - waste,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "final_acc_full": statistics.fmean(record.full_accuracy for record in finals),
        "final_acc_avg": statistics.fmean(record.avg_accuracy for record in finals),
        "comm_waste": waste,
        "round_s_tail.percentile": percentile,
        "round_s_tail.samples": len(round_s),
        "round_s_tail.beyond": beyond,
    }
    return metrics, extra


def print_metrics(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<38} {value:>16.6g} {unit}")


def per_layer(bench, repeats, out: Path) -> tuple[dict, dict]:
    """Per-layer metrics of the traced repeats; prints the trace report, writes the spans."""
    traced = [r for r in repeats if r.traced]
    untraced = [r for r in repeats if not r.traced]
    worker_spans, counters = bench.worker_spans()
    spans = bench.tracer.records(0) + worker_spans
    for key, value in bench.tracer.counters.items():
        counters[key] = counters.get(key, 0.0) + value
    overhead = rounds_per_s(traced) - rounds_per_s(untraced)
    serve_keys = ("requeues", "state_requests", "results", "dispatched")
    layer = report.layer_metrics(
        spans,
        counters,
        main_proc=0,
        repeats=len(traced),
        rounds=sum(len(r.records) for r in traced),
        dispatched=sum(len(record.selected_clients) for r in traced for record in r.records),
        workers=bench.workload.workers,
        touched_clients=statistics.fmean(r.touched_clients for r in traced),
        serve_stats={key: sum(r.serve_stats.get(key, 0) for r in traced) for key in serve_keys},
        traced_wall_s=sum(r.wall_s for r in traced),
        overhead_rounds_per_s=overhead,
    )
    print_metrics("per-layer (traced repeats)", [(name, layer[name], unit) for name, unit, _ in report.PER_LAYER])
    table = report.span_table(spans)
    print(f"spans per traced repeat ({len(traced)} traced): name, count, busy s, self s")
    for name in sorted(table):
        count, busy, own = (table[name][key] / len(traced) for key in ("count", "busy_s", "self_s"))
        print(f"  {name:<38} {count:>10.1f} {busy:>12.6f} {own:>12.6f}")
    shares = report.design_shares(spans, 0)
    print("design shares of traced round time: " + json.dumps(shares, sort_keys=True))
    print(
        f"tracing overhead: rounds_per_s traced {rounds_per_s(traced):.4f}, untraced "
        f"{rounds_per_s(untraced):.4f}, difference {overhead:+.4f}"
    )
    if bench.workload.workers:
        slack = report.map_slack_per_round(spans, 0)
        print("engine.map minus slowest worker busy, per round (s): " + " ".join(f"{s:.4f}" for s in slack))
    with open(out / "spans.jsonl", "w", encoding="utf-8") as stream:
        for span in spans:
            stream.write(json.dumps(span) + "\n")
    return layer, {"span_table": table, "design_shares": shares}


def run_one(args) -> int:
    out = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "tmp").mkdir(parents=True)
    # spill files of the transport layer land inside the checkout
    os.environ["TMPDIR"] = str(out / "tmp")
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS, Bench

    bench = Bench(WORKLOADS[args.workload], args.seed, out, quick=args.quick)
    plan = bench.plan(args.seconds, bool(args.trace))
    reference = bench.reference(plan[0][0])
    remote = bench.workload.workers > 0
    repeats = [
        bench.run_repeat(index, sub_seed, remote=remote, traced=traced) for index, (sub_seed, traced) in enumerate(plan)
    ]

    failures = [f"repeat {index}: {failure}" for index, r in enumerate(repeats) for failure in r.failures]
    failures += [f"reference: {failure}" for failure in reference.failures]
    first = repeats[0]
    if remote and first.digest != reference.digest:
        failures.append(f"sub-seed {first.sub_seed}: remote history/weights differ from the serial run")
    if first.split_digest != reference.split_digest:
        failures.append(f"sub-seed {first.sub_seed}: history/weights at the checkpoint differ between two runs")
    for a, b in zip(repeats, repeats[1:]):
        if a.sub_seed == b.sub_seed and a.digest != b.digest:
            failures.append(f"sub-seed {a.sub_seed}: traced and untraced runs end with different history/weights")
    attempted = sum(r.tasks for r in repeats)
    requeues = sum(r.serve_stats.get("requeues", 0) for r in repeats)
    failed = sum(r.task_errors for r in repeats) + requeues + len(failures)

    untraced = [r for r in repeats if not r.traced]
    metrics, extra = end_to_end(untraced)
    extra["task_fail_ratio"] = failed / attempted if attempted else 0.0
    env = envelope(args, bench, plan)
    print("envelope " + json.dumps(env, sort_keys=True))
    units = {name: unit for name, unit, _, _ in report.END_TO_END}
    print_metrics("end-to-end (tracing off)", [(name, metrics[name], units[name]) for name in units])
    extra_units = dict(report.REPORT_ONLY) | {
        "round_s_tail.percentile": "percentile",
        "round_s_tail.samples": "count",
        "round_s_tail.beyond": "count",
    }
    print_metrics("report-only", [(name, value, extra_units[name]) for name, value in extra.items()])

    result = {"envelope": env, "end_to_end": metrics, "report_only": extra}
    output = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    if args.trace:
        layer, extra_result = per_layer(bench, repeats, out)
        result.update(per_layer=layer, **extra_result)
        units = {name: unit for name, unit, _ in report.PER_LAYER}
        output = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}

    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"checks: {'ok' if not failures else f'{len(failures)} failed'}")
    shutil.rmtree(out / "tmp", ignore_errors=True)
    result.update(failures=failures, attempted=attempted, failed=failed)
    (out / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": output}))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed)]
            command += ["--seconds", str(args.seconds), "--trace", str(trace)] + (["--quick"] if args.quick else [])
            print(f"== {workload} trace={trace}", flush=True)
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(completed.stdout)
            try:
                last = json.loads(completed.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                last = None
            if completed.returncode != 0 or last is None:
                summary["correct"] = False
                continue
            summary["correct"] = summary["correct"] and last["correct"]
            summary["attempted"] += last["attempted"]
            summary["failed"] += last["failed"]
            summary["metrics"][f"{workload}.trace{trace}"] = last["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

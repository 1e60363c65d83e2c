"""Metric definitions and the arithmetic behind them.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric vocabulary;
``BENCHMARK.json`` at the repository root lists the same names, units
and directions (``selftest.py`` checks that they agree).  The functions
below turn round timings and trace spans into those metrics.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

#: (name, unit, better, bound); measured with tracing off.  Timings on a
#: shared 2-CPU host spread by up to 20% over ten runs as the host's speed
#: drifts (README.md, "Steadiness"), hence the wide bounds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("round_s_p50", "s", "lower", 0.25),
    ("round_s_tail", "s", "lower", 0.25),
    ("resume_s", "s", "lower", 0.25),
    ("uplink_bytes_per_round", "B", "lower", 0.25),
    ("downlink_bytes_per_round", "B", "lower", 0.25),
    ("comm_efficiency", "fraction", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

#: (name, unit) printed beside the end-to-end metrics but not bounded: they
#: are 0 on some workloads or spread over seeds by more than any bound
REPORT_ONLY = (
    ("final_acc_full", "fraction"),
    ("final_acc_avg", "fraction"),
    ("comm_waste", "fraction"),
    ("task_fail_ratio", "fraction"),
)

_S, _N = "s/repeat", "count/repeat"

#: (name, unit, better); measured on traced repeats, per traced repeat
#: unless the unit says otherwise
PER_LAYER = (
    ("experiments.prepare.busy_s", _S, "lower"),
    ("core.build.busy_s", _S, "lower"),
    ("core.round.count", _N, "higher"),
    ("core.round.self_s", _S, "lower"),
    ("core.evaluate.count", _N, "lower"),
    ("core.evaluate.busy_s", _S, "lower"),
    ("core.local_train.count", _N, "higher"),
    ("core.local_train.busy_s", _S, "lower"),
    ("core.local_train.steps", _N, "higher"),
    ("core.aggregate.busy_s", _S, "lower"),
    ("core.aggregate.updates", _N, "higher"),
    ("core.decode_result.busy_s", _S, "lower"),
    ("core.checkpoint_state.busy_s", _S, "lower"),
    ("core.aggregated_ratio", "fraction", "higher"),
    ("rl_selection.select.count", _N, "lower"),
    ("rl_selection.select.busy_s", _S, "lower"),
    ("rl_selection.update.busy_s", _S, "lower"),
    ("rl_selection.touched_clients", "count", "lower"),
    ("pruning.resource_aware_prune.busy_s", _S, "lower"),
    ("nn.conv2d_forward.count", _N, "lower"),
    ("nn.conv2d_forward.busy_s", _S, "lower"),
    ("nn.conv2d_backward.count", _N, "lower"),
    ("nn.conv2d_backward.busy_s", _S, "lower"),
    ("nn.im2col.count", _N, "lower"),
    ("nn.im2col.busy_s", _S, "lower"),
    ("nn.col2im.count", _N, "lower"),
    ("nn.col2im.busy_s", _S, "lower"),
    ("nn.maxpool2d_forward.count", _N, "lower"),
    ("nn.maxpool2d_forward.busy_s", _S, "lower"),
    ("nn.maxpool2d_backward.count", _N, "lower"),
    ("nn.maxpool2d_backward.busy_s", _S, "lower"),
    ("nn.sgd_step.count", _N, "lower"),
    ("nn.sgd_step.busy_s", _S, "lower"),
    ("nn.eval_share", "fraction", "lower"),
    ("data.batch_wait_s", _S, "lower"),
    ("engine.map.busy_s", _S, "lower"),
    ("engine.publish.busy_s", _S, "lower"),
    ("engine.publish.spilled_bytes", "B/repeat", "lower"),
    ("engine.delta_encode.busy_s", _S, "lower"),
    ("engine.delta_decode.busy_s", _S, "lower"),
    ("engine.state_load.count", _N, "lower"),
    ("engine.state_load.busy_s", _S, "lower"),
    ("engine.task_bytes", "B/task", "lower"),
    ("codecs.encode.busy_s", _S, "lower"),
    ("codecs.decode.busy_s", _S, "lower"),
    ("codecs.compression_ratio", "ratio", "higher"),
    ("serve.frame_encode.busy_s", _S, "lower"),
    ("serve.frame_decode.busy_s", _S, "lower"),
    ("serve.wire_bytes_up", "B/round", "lower"),
    ("serve.wire_bytes_down", "B/round", "lower"),
    ("serve.worker_busy_s", _S, "lower"),
    ("serve.worker_idle_share", "fraction", "lower"),
    ("serve.map_slack_s", "s/round", "lower"),
    ("serve.requeues", _N, "lower"),
    ("serve.state_requests", _N, "lower"),
    ("serve.result_ratio", "fraction", "higher"),
    ("sim.simulate_round.busy_s", _S, "lower"),
    ("sim.available_mask.busy_s", _S, "lower"),
    ("store.save.count", _N, "lower"),
    ("store.save.busy_s", _S, "lower"),
    ("store.bytes_written", "B/repeat", "lower"),
    ("store.dedup_ratio", "fraction", "higher"),
    ("store.load.busy_s", _S, "lower"),
    ("obs.emits", _N, "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_rounds_per_s", "1/s", "higher"),
)

#: span names whose time counts as ``repro.nn`` kernel time
KERNEL_SPANS = frozenset(
    name.removesuffix(".busy_s") for name, _, _ in PER_LAYER if name.startswith("nn.") and name.endswith(".busy_s")
)

#: layers that plan and keep books rather than train (fleet_lossy's design claim)
PLANNING_SPANS = ("rl_selection.", "store.save", "store.load", "codecs.", "sim.")


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    """Whether ``unit`` is a legal metric unit."""
    return bool(UNIT_RE.match(unit))


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> tuple[int, float, int]:
    """The highest whole percentile (50..99) with at least ``beyond`` samples above it.

    Percentiles use the nearest-rank rule.  Returns ``(percentile, value,
    samples_beyond)``; with fewer than ``2 * beyond`` samples no percentile
    qualifies and the median is returned with its (short) count beyond.
    """
    if not samples:
        raise ValueError("tail_percentile needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = math.ceil(percentile * n / 100)
        if n - rank >= beyond:
            return percentile, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, ordered[rank - 1], n - rank


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Mapping]) -> dict[tuple[int, int], float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[(span["proc"], span["parent"])].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span["proc"], span["id"])
        start, end = span["start"], span["end"]
        covered = union_length(
            (max(start, a), min(end, b)) for a, b in children.get(key, ()) if min(end, b) > max(start, a)
        )
        result[key] = (end - start) - covered
    return result


def _ancestor_names(spans: Sequence[Mapping]):
    by_key = {(span["proc"], span["id"]): span for span in spans}

    def ancestors(span: Mapping):
        parent = span["parent"]
        while parent:
            span = by_key.get((span["proc"], parent))
            if span is None:
                return
            yield span["name"]
            parent = span["parent"]

    return ancestors


def span_table(spans: Sequence[Mapping]) -> dict[str, dict[str, float]]:
    """Per span name: count, busy seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = table[span["name"]]
        row["count"] += 1
        row["busy_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[(span["proc"], span["id"])]
    return dict(table)


def kernel_seconds(spans: Sequence[Mapping]) -> tuple[float, float]:
    """(all, under ``core.evaluate``) seconds of outermost ``repro.nn`` kernel spans."""
    ancestors = _ancestor_names(spans)
    total = under_eval = 0.0
    for span in spans:
        if span["name"] not in KERNEL_SPANS:
            continue
        names = list(ancestors(span))
        if any(name in KERNEL_SPANS for name in names):
            continue
        duration = span["end"] - span["start"]
        total += duration
        if "core.evaluate" in names:
            under_eval += duration
    return total, under_eval


def top_level_seconds(spans: Sequence[Mapping], proc) -> float:
    """Time covered by the main thread's outermost spans in process ``pid``."""
    return union_length(
        (span["start"], span["end"]) for span in spans if span["proc"] == proc and span["main"] and not span["parent"]
    )


def planning_seconds(spans: Sequence[Mapping]) -> float:
    """Outermost time of the planning and bookkeeping layers (see ``PLANNING_SPANS``)."""
    ancestors = _ancestor_names(spans)

    def planning(name: str) -> bool:
        return name.startswith(PLANNING_SPANS)

    return sum(
        span["end"] - span["start"]
        for span in spans
        if planning(span["name"]) and not any(planning(name) for name in ancestors(span))
    )


def map_slack_per_round(spans: Sequence[Mapping], main_proc: int) -> list[float]:
    """Per round: ``engine.map`` wall minus the busiest worker's task time in it."""
    map_wall: dict[tuple[int, int], float] = defaultdict(float)
    worker_busy: dict[tuple[int, int], dict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        key = (span["repeat"], span["round"])
        duration = span["end"] - span["start"]
        if span["proc"] == main_proc and span["name"] == "engine.map":
            map_wall[key] += duration
        elif span["proc"] != main_proc and span["name"] == "engine.task":
            worker_busy[key][span["proc"]] += duration
    return [
        map_wall[key] - max(worker_busy[key].values(), default=0.0) for key in sorted(map_wall) if key[1] >= 0
    ]


def layer_metrics(
    spans: Sequence[Mapping],
    counters: Mapping[str, float],
    *,
    main_proc: int,
    repeats: int,
    rounds: int,
    dispatched: int,
    workers: int,
    touched_clients: float,
    serve_stats: Mapping[str, float],
    traced_wall_s: float,
    overhead_rounds_per_s: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the traced repeats' spans and counters."""
    table = span_table(spans)

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})

    def attr_sum(name: str, key: str, where=lambda span: True) -> float:
        return sum(
            (span["attrs"] or {}).get(key, 0) for span in spans if span["name"] == name and where(span)
        )

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field in ("count", "busy_s", "self_s") and stem in table:
            values[name] = row(stem)[field] / repeats
    main = lambda span: span["proc"] == main_proc  # noqa: E731
    remote = lambda span: span["proc"] != main_proc  # noqa: E731
    kernels, kernels_in_eval = kernel_seconds(spans)
    by_id = {(span["proc"], span["id"]): span for span in spans}
    puts = row("store.put_array")["count"]
    new_blobs = sum(
        1
        for span in spans
        if span["name"] == "store.write"
        and by_id.get((span["proc"], span["parent"]), {}).get("name") == "store.put_array"
    )
    map_wall = sum(span["end"] - span["start"] for span in spans if main(span) and span["name"] == "engine.map")
    worker_busy = sum(span["end"] - span["start"] for span in spans if remote(span) and span["name"] == "engine.task")
    slack = map_slack_per_round(spans, main_proc) if workers else []
    values.update(
        {
            "core.local_train.steps": attr_sum("core.local_train", "steps") / repeats,
            "core.aggregate.updates": row("core.decode_result")["count"] / repeats,
            "core.aggregated_ratio": ratio(row("core.decode_result")["count"], dispatched),
            "rl_selection.touched_clients": touched_clients,
            "nn.eval_share": ratio(kernels_in_eval, kernels),
            "data.batch_wait_s": row("data.batch")["busy_s"] / repeats,
            "engine.publish.spilled_bytes": attr_sum("engine.publish", "bytes") / repeats,
            "engine.task_bytes": ratio(counters.get("engine.task_bytes", 0), counters.get("engine.tasks", 0)),
            "codecs.compression_ratio": ratio(attr_sum("codecs.encode", "raw"), attr_sum("codecs.encode", "encoded")),
            "serve.wire_bytes_up": ratio(attr_sum("serve.frame_decode", "bytes", main) if workers else 0, rounds),
            "serve.wire_bytes_down": ratio(attr_sum("serve.frame_encode", "bytes", main) if workers else 0, rounds),
            "serve.worker_busy_s": worker_busy / repeats,
            "serve.worker_idle_share": (1.0 - ratio(worker_busy, workers * map_wall)) if workers else 0.0,
            "serve.map_slack_s": statistics.median(slack) if slack else 0.0,
            "serve.requeues": serve_stats.get("requeues", 0) / repeats,
            "serve.state_requests": serve_stats.get("state_requests", 0) / repeats,
            "serve.result_ratio": ratio(serve_stats.get("results", 0), serve_stats.get("dispatched", 0)),
            "store.bytes_written": attr_sum("store.write", "bytes") / repeats,
            "store.dedup_ratio": 1.0 - ratio(new_blobs, puts) if puts else 0.0,
            "obs.emits": counters.get("obs.emits", 0) / repeats,
            "trace.coverage": ratio(top_level_seconds(spans, main_proc), traced_wall_s),
            "trace.overhead_rounds_per_s": overhead_rounds_per_s,
        }
    )
    for name, _, _ in PER_LAYER:
        values.setdefault(name, 0.0)
    return {name: float(values[name]) for name, _, _ in PER_LAYER}


def design_shares(spans: Sequence[Mapping], main_proc: int) -> dict[str, float]:
    """Shares the workload design claims, from the traced repeats' spans.

    ``nn_share_of_rounds``: outermost kernel time ÷ round time;
    ``planning_share_of_rounds``: rl_selection + store + codecs + sim time
    ÷ round time (round time is the main process's ``core.round`` spans).
    """
    round_s = sum(
        span["end"] - span["start"] for span in spans if span["proc"] == main_proc and span["name"] == "core.round"
    )
    kernels, _ = kernel_seconds([span for span in spans if span["proc"] == main_proc])
    worker_kernels, _ = kernel_seconds([span for span in spans if span["proc"] != main_proc])
    return {
        "nn_share_of_rounds": kernels / round_s if round_s else 0.0,
        "worker_nn_share_of_rounds": worker_kernels / round_s if round_s else 0.0,
        "planning_share_of_rounds": planning_seconds(
            [span for span in spans if span["proc"] == main_proc and span["round"] >= 0]
        )
        / round_s
        if round_s
        else 0.0,
    }

"""Span tracing of ``repro`` from outside the program.

:func:`install` replaces public functions and methods of each layer with
timing wrappers, at the place the caller looks them up (a function
imported by name is patched in the importing module, e.g.
``repro.engine.tasks.train_local_model``).  :meth:`Tracer.uninstall`
puts the originals back.  Nothing under ``src/`` knows about the tracer.

A span is ``(id, parent, name, start, end, round, repeat, main_thread, attrs)``.
Spans stay in memory and are written out once, at the end of a run.
Times come from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans of worker processes line up with
the benchmark's own.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: the ``repro.nn.functional`` kernels traced as ``nn.<name>``
KERNELS = (
    "conv2d_forward",
    "conv2d_backward",
    "im2col",
    "col2im",
    "maxpool2d_forward",
    "maxpool2d_backward",
)

_ROUND_IN_TRACE = re.compile(r"-r(\d+)#")


class Tracer:
    """In-memory span recorder plus the wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: round index the main thread is working on (-1 = between rounds)
        self.round = -1
        #: benchmark repeat the spans belong to
        self.repeat = -1
        self.pid = os.getpid()
        self._main = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return (span_id, parent, name, time.perf_counter())

    def end(self, token: tuple, attrs: dict | None = None, stop: float | None = None) -> None:
        """Close a span opened by :meth:`begin` (spans close in LIFO order per thread)."""
        stop = time.perf_counter() if stop is None else stop
        self._stack().pop()
        span_id, parent, name, start = token
        main = threading.get_ident() == self._main
        self.spans.append((span_id, parent, name, start, stop, self.round, self.repeat, main, attrs))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Bump a named counter (thread-safe)."""
        with self._lock:
            self.counters[key] += amount

    # -- patching -------------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        *,
        before: Callable[["Tracer", tuple, dict], None] | None = None,
        after: Callable[["Tracer", tuple, dict, Any], dict | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records span ``name``.

        ``name=None`` installs a count-only wrapper that just runs
        ``before``.  ``after`` may return attributes stored on the span.
        """
        if isinstance(owner, type) and attr not in vars(owner):
            # an inherited method must be patched on the class that defines it
            raise AttributeError(f"{owner.__name__} does not define {attr!r} itself")
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if name is None:
            def wrapper(*args, **kwargs):
                before(tracer, args, kwargs)
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(tracer, args, kwargs)
                token = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer.end(token)
                    raise
                stop = time.perf_counter()
                tracer.end(token, after(tracer, args, kwargs, result) if after else None, stop)
                return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_iter(self, owner: type, name: str) -> None:
        """Record every ``next()`` on ``owner``'s iterator as span ``name``."""
        original = vars(owner)["__iter__"]
        tracer = self

        def __iter__(self_):
            iterator = original(self_)
            while True:
                token = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    tracer.end(token)
                    return
                tracer.end(token)
                yield item

        self._patches.append((owner, "__iter__", original))
        owner.__iter__ = __iter__

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------------------
    def records(self, proc: int | str = 0) -> list[dict]:
        """The spans as JSON-ready dicts; ``proc`` names the process they ran in."""
        return [
            {
                "proc": proc,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": stop,
                "round": round_index,
                "repeat": repeat,
                "main": main,
                "attrs": attrs,
            }
            for span_id, parent, name, start, stop, round_index, repeat, main, attrs in self.spans
        ]

    def dump(self, path: str) -> None:
        """Write spans (JSON lines) and counters (last line) to ``path``."""
        with open(path, "w", encoding="utf-8") as stream:
            for record in self.records(self.pid):
                stream.write(json.dumps(record) + "\n")
            stream.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def load_dump(path: str) -> tuple[list[dict], dict[str, float]]:
    """Read a file written by :meth:`Tracer.dump`."""
    spans: list[dict] = []
    counters: dict[str, float] = {}
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


# -- hooks ----------------------------------------------------------------------------------
def _local_train_steps(tracer, args, kwargs, result):
    return {"steps": result.num_steps}


def _spilled_bytes(tracer, args, kwargs, handle):
    return {"bytes": os.path.getsize(handle.path)} if handle.path is not None else None


def _task_bytes(tracer, args, kwargs):
    payloads = args[1]
    tracer.add("engine.tasks", len(payloads))
    tracer.add("engine.task_bytes", sum(len(payload) for payload in payloads))


def _codec_sizes(tracer, args, kwargs, encoded):
    return {"raw": encoded.raw_nbytes, "encoded": encoded.nbytes}


def _frame_out(tracer, args, kwargs, frame):
    return {"bytes": len(frame)}


def _frame_in(tracer, args, kwargs, message):
    return {"bytes": len(args[0]) + 4}  # the body plus its 4-byte length header


def _write_bytes(tracer, args, kwargs, result):
    payload = args[1]
    return {"bytes": len(payload.encode("utf-8") if isinstance(payload, str) else payload)}


def _task_round(tracer, args, kwargs):
    trace = getattr(args[0], "trace", None)
    match = _ROUND_IN_TRACE.search(trace.trace_id) if trace is not None else None
    if match:
        tracer.round = int(match.group(1))


def _dormant_emit(tracer, args, kwargs):
    if not args[0].active:
        tracer.add("obs.emits")


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every ``repro`` layer (see the module docstring)."""
    import repro.core.client as core_client
    import repro.core.fl_base as fl_base
    import repro.core.server as core_server
    import repro.engine.tasks as engine_tasks
    import repro.experiments.settings as settings
    import repro.nn.functional as functional
    import repro.serve.codec as serve_codec
    import repro.store.objects as store_objects
    import repro.store.runstore as store_runstore
    from repro.api.registry import AlgorithmSpec
    from repro.core.rl_selection import RLClientSelector, StreamingRLClientSelector
    from repro.data.loader import DataLoader
    from repro.engine.serial import SerialExecutor
    from repro.engine.transport import StateHandle, StateStore
    from repro.nn.optim import SGD
    from repro.obs.events import EventBus
    from repro.serve.coordinator import Coordinator
    from repro.serve.executor import RemoteExecutor
    from repro.sim.fleet import FleetSimulator

    wrap = tracer.wrap
    wrap(settings, "prepare_experiment", "experiments.prepare")
    wrap(AlgorithmSpec, "build", "core.build")
    Base = fl_base.FederatedAlgorithm
    wrap(Base, "evaluate", "core.evaluate")
    wrap(Base, "aggregate", "core.aggregate")
    wrap(Base, "decode_result_state", "core.decode_result")
    wrap(Base, "checkpoint_state", "core.checkpoint_state")
    wrap(Base, "restore_checkpoint", "core.restore_checkpoint")
    for module in (engine_tasks, core_client):
        wrap(module, "train_local_model", "core.local_train", after=_local_train_steps)
    for module in (core_server, core_client):
        wrap(module, "resource_aware_prune", "pruning.resource_aware_prune")
    wrap(RLClientSelector, "select", "rl_selection.select")
    wrap(StreamingRLClientSelector, "select", "rl_selection.select")
    wrap(StreamingRLClientSelector, "select_from_mask", "rl_selection.select")
    wrap(RLClientSelector, "update", "rl_selection.update")
    wrap(StreamingRLClientSelector, "update", "rl_selection.update")
    for kernel in KERNELS:
        wrap(functional, kernel, f"nn.{kernel}")
    wrap(SGD, "step", "nn.sgd_step")
    tracer.wrap_iter(DataLoader, "data.batch")
    wrap(SerialExecutor, "map", "engine.map")
    wrap(RemoteExecutor, "map", "engine.map")
    wrap(StateStore, "publish", "engine.publish", after=_spilled_bytes)
    wrap(StateHandle, "load", "engine.state_load")
    wrap(engine_tasks, "encode_state_delta", "engine.delta_encode")
    wrap(fl_base, "decode_upload", "engine.delta_decode")
    wrap(engine_tasks.TrainSubmodelTask, "run", "engine.task", before=_task_round)
    wrap(engine_tasks.LocalRoundTask, "run", "engine.task", before=_task_round)
    wrap(Coordinator, "run_batch", None, before=_task_bytes)
    wrap(engine_tasks, "encode_client_update", "codecs.encode", after=_codec_sizes)
    wrap(fl_base, "apply_encoded_update", "codecs.decode")
    wrap(serve_codec, "encode_frame", "serve.frame_encode", after=_frame_out)
    wrap(serve_codec, "decode_body", "serve.frame_decode", after=_frame_in)
    wrap(FleetSimulator, "simulate_round", "sim.simulate_round")
    wrap(FleetSimulator, "available_mask", "sim.available_mask")
    wrap(store_runstore.RunStore, "save_checkpoint", "store.save")
    wrap(store_runstore.RunStore, "load_checkpoint", "store.load")
    wrap(store_objects.ObjectStore, "put_array", "store.put_array")
    for module in (store_objects, store_runstore):
        wrap(module, "write_atomic", "store.write", after=_write_bytes)
    wrap(EventBus, "emit", None, before=_dormant_emit)
    return tracer

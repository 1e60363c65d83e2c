"""Picklable units of per-client work dispatched through an executor.

A task bundles everything one client's local round needs — model slice,
data, hyper-parameters and a private RNG stream — so it can run anywhere:
inline (:class:`~repro.engine.serial.SerialExecutor`), on a thread, or
pickled to a worker process.  Tasks are pure: they read only their own
fields, mutate nothing shared, and derive all randomness from their
``rng_stream``, which is what guarantees bit-identical results across
executors and worker counts.

Weight transport (see :mod:`repro.engine.transport`): ``initial_state``/
``dispatched_state`` is a :class:`StateHandle` — the worker resolves it
against its per-process cache of the published global state and cuts
the submodel slice locally, so the task payload stays tiny.  The trained
weights return as a bit-exact XOR :class:`StateDelta` against that
slice, or as a codec payload when a lossy codec is set.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace as dataclass_replace
from typing import Any, Mapping

import numpy as np

from repro.core.client import ClientRoundResult, SimulatedClient
from repro.core.config import LocalTrainingConfig
from repro.core.local_training import LocalTrainingResult, train_local_model
from repro.core.model_pool import ModelPool, SubmodelConfig
from repro.core.pruning import slice_state_dict
from repro.engine.codecs import UpdateCodec, encode_client_update
from repro.engine.transport import StateHandle, encode_state_delta
from repro.nn.models.spec import SlimmableArchitecture
from repro.obs.trace import TraceContext

__all__ = ["ClientTask", "LocalRoundTask", "TrainSubmodelTask"]


def _resolve_state(
    source: StateHandle,
    architecture: SlimmableArchitecture,
    group_sizes: Mapping[str, int],
) -> Mapping[str, np.ndarray]:
    """Materialise the submodel slice a task trains (worker-side).

    The handle resolves to the worker-cached global state, which is
    sliced here.
    """
    return slice_state_dict(source.load(), architecture, dict(group_sizes))


class ClientTask(ABC):
    """One independent unit of client work executed by an :class:`Executor`."""

    #: private randomness of this task (see :mod:`repro.engine.rng`)
    rng_stream: np.random.SeedSequence

    @abstractmethod
    def run(self) -> Any:
        """Execute the work and return its result (runs on any worker)."""

    def rng(self) -> np.random.Generator:
        """A fresh generator over the task's stream (same bits every call)."""
        return np.random.default_rng(self.rng_stream)


@dataclass
class LocalRoundTask(ClientTask):
    """AdaptiveFL's full client round: adapt (prune) then train (Algorithm 1).

    The device-side resource adaptation runs inside the task, exactly as it
    would on a real client; the server only planned the dispatch.  The
    worker cuts only the *planned-return* configuration's slice (the
    weights the device actually trains — a prefix of the dispatched model,
    so slicing the global state directly to it is value-identical to
    pruning the dispatched slice on device), and the task fails if the
    device pruned to anything other than the plan.
    """

    client: SimulatedClient
    pool: ModelPool
    dispatched: SubmodelConfig
    dispatched_state: StateHandle
    available_capacity: float
    # required on purpose: an OS-entropy default would silently break the
    # engine's determinism guarantee
    rng_stream: np.random.SeedSequence
    #: the submodel the resource plan predicts the device trains
    planned_return: SubmodelConfig
    #: lossy update codec; the trained slice uploads as an
    #: :class:`EncodedUpdate` of ``trained − reference``, rounded on the
    #: task's own stream (None = exact XOR delta)
    codec: UpdateCodec | None = None
    #: server-banked error-feedback carry for this client (sliced to the
    #: dispatched shapes), added to the update before encoding
    codec_residual: "Mapping[str, np.ndarray] | None" = None
    #: telemetry identity (round trace + task span); never read by run()
    trace: TraceContext | None = None

    def run(self) -> ClientRoundResult:
        """Execute the client's full local round (worker-side entry point)."""
        initial_state = _resolve_state(
            self.dispatched_state, self.pool.architecture, self.pool.group_sizes(self.planned_return)
        )
        result = self.client.local_round(
            pool=self.pool,
            dispatched=self.dispatched,
            dispatched_state=initial_state,
            available_capacity=self.available_capacity,
            rng=self.rng(),
        )
        if result.returned.name != self.planned_return.name:
            raise RuntimeError(
                f"client {result.client_id} returned {result.returned.name} but the "
                f"resource plan predicted {self.planned_return.name}"
            )
        if self.codec is not None:
            result.state = encode_client_update(
                self.codec,
                result.state,
                initial_state,
                rng_stream=self.rng_stream,
                residual=self.codec_residual,
                client_id=self.client.client_id,
            )
        else:
            result.state = encode_state_delta(result.state, initial_state)
        return result


@dataclass
class TrainSubmodelTask(ClientTask):
    """A baseline's client round: train a fixed submodel slice on local data."""

    architecture: SlimmableArchitecture
    group_sizes: Mapping[str, int]
    initial_state: StateHandle
    dataset: StateHandle
    local_config: LocalTrainingConfig
    rng_stream: np.random.SeedSequence
    client_id: int = -1
    #: lossy update codec (None = exact XOR delta)
    codec: UpdateCodec | None = None
    #: server-banked error-feedback carry for this client
    codec_residual: "Mapping[str, np.ndarray] | None" = None
    #: telemetry identity (round trace + task span); never read by run()
    trace: TraceContext | None = None

    def run(self) -> LocalTrainingResult:
        """Train the assigned submodel on the client's data (worker-side)."""
        initial_state = _resolve_state(self.initial_state, self.architecture, self.group_sizes)
        result = train_local_model(
            architecture=self.architecture,
            group_sizes=self.group_sizes,
            initial_state=initial_state,
            dataset=self.dataset.load(),
            config=self.local_config,
            rng=self.rng(),
        )
        if self.codec is not None:
            result = dataclass_replace(
                result,
                state=encode_client_update(
                    self.codec,
                    result.state,
                    initial_state,
                    rng_stream=self.rng_stream,
                    residual=self.codec_residual,
                    client_id=self.client_id,
                ),
            )
        else:
            result = dataclass_replace(result, state=encode_state_delta(result.state, initial_state))
        return result

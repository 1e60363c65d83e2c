"""The checkpoint payload: everything a resumed run needs, bit-exactly.

A :class:`Checkpoint` captures the full mutable state of a
:class:`~repro.core.fl_base.FederatedAlgorithm` at the end of one round:

* the global model weights,
* the round-by-round :class:`~repro.core.history.TrainingHistory`
  (as its strict ``to_dict`` payload),
* the algorithm's base RNG state (the stream-keyed RNGs of
  :mod:`repro.engine.rng` are pure functions of ``(seed, round, client)``
  and need no state),
* algorithm-specific arrays and JSON state via the
  ``_collect_extra_state`` / ``_apply_extra_state`` subclass hooks — the
  RL curiosity/resource tables for AdaptiveFL, the battery/availability
  state of an attached :class:`~repro.sim.fleet.FleetSimulator`, and a
  lossy codec's per-client error-feedback banks (one flat array each).

Everything numeric lives in numpy arrays serialised losslessly by the
content-addressed :class:`~repro.store.objects.ObjectStore`; everything
else is strict JSON.  ``schema_version`` gates compatibility: a store
written by a future incompatible layout refuses to resume
(:class:`CheckpointSchemaError`) instead of mis-restoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = ["Checkpoint", "CheckpointSchemaError", "CHECKPOINT_SCHEMA_VERSION"]

#: current on-disk checkpoint layout; bump on incompatible changes
#: (2: each client's error-feedback bank is one flat ``codec/{client}`` array)
CHECKPOINT_SCHEMA_VERSION = 2


class CheckpointSchemaError(RuntimeError):
    """The checkpoint's schema version is not one this code can restore.

    Refusing is deliberate: silently reinterpreting a future layout could
    resume a run from half-garbage state and corrupt its results.
    """


@dataclass
class Checkpoint:
    """Complete restorable state of one run at the end of one round."""

    #: registered name of the algorithm that produced the checkpoint
    algorithm: str
    #: last completed round (the history's final record)
    round_index: int
    #: global model weights, keyed exactly like ``state_dict()``
    global_state: dict[str, np.ndarray]
    #: ``TrainingHistory.to_dict()`` at checkpoint time
    history: dict
    #: ``numpy.random.Generator.bit_generator.state`` of the base RNG
    rng_state: dict
    #: algorithm-specific arrays (RL tables, battery charge, ...)
    extra_arrays: dict[str, np.ndarray] = field(default_factory=dict)
    #: algorithm-specific JSON state (fleet watermarks, ...)
    extra_state: dict = field(default_factory=dict)
    #: why the run stopped early, if a callback requested a stop by the
    #: time this checkpoint was captured (None = still running / ran out)
    stop_reason: str | None = None
    #: layout version of the serialised form
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.round_index < 0:
            raise ValueError("round_index must be non-negative")
        if int(self.schema_version) != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointSchemaError(
                f"checkpoint schema version {self.schema_version} is not supported by this "
                f"build (expected {CHECKPOINT_SCHEMA_VERSION}); upgrade the code or discard "
                "the checkpoint"
            )

    def validate_for(self, algorithm_name: str, reference_state: Mapping[str, np.ndarray]) -> None:
        """Check the checkpoint matches the algorithm it is being restored onto.

        ``reference_state`` is the freshly built algorithm's global state;
        key sets and array shapes must agree exactly, so a checkpoint can
        never be restored onto a different architecture or pool layout.
        """
        if self.algorithm != algorithm_name:
            raise ValueError(
                f"checkpoint belongs to algorithm {self.algorithm!r}, cannot restore onto "
                f"{algorithm_name!r}"
            )
        if set(self.global_state) != set(reference_state):
            missing = sorted(set(reference_state) - set(self.global_state))
            extra = sorted(set(self.global_state) - set(reference_state))
            raise ValueError(
                "checkpoint global state does not match the model: "
                f"missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for key, value in self.global_state.items():
            expected = reference_state[key]
            if value.shape != expected.shape:
                raise ValueError(
                    f"checkpoint array {key!r} has shape {value.shape}, the model expects "
                    f"{expected.shape}; the checkpoint was written at a different scale"
                )

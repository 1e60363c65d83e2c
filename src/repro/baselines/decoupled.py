"""Decoupled: independent FedAvg per size level.

Each level (S1 / M1 / L1) keeps its own global model, trained only by the
clients whose resources can afford that level, and no parameters are
shared across levels.  The paper uses this baseline to show what is lost
without heterogeneous aggregation: small-capable clients never contribute
to the large model and vice versa.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin, capacity_level_assignment
from repro.core.aggregation import ClientUpdate, fedavg_aggregate
from repro.core.fl_base import FederatedAlgorithm, ParticipantSlot
from repro.core.metrics import evaluate_state
from repro.core.pruning import extract_submodel_state

__all__ = ["DecoupledFL"]


@register_algorithm(
    "decoupled",
    description="Decoupled: independent FedAvg per size level, no cross-level sharing",
    order=20,
)
class DecoupledFL(RandomSelectionMixin, FederatedAlgorithm):
    """One isolated FedAvg per model level."""

    name = "decoupled"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.level_heads = self.pool.level_heads()
        # Every level starts from the matching slice of the same initial model.
        self.level_states = {
            level: extract_submodel_state(self.global_state, self.pool, config)
            for level, config in self.level_heads.items()
        }
        self.client_level = capacity_level_assignment(self, self.level_heads)

    def plan_round(self, round_index: int) -> list[ParticipantSlot]:
        """Each client trains its level's head on that level's own state stream."""
        rng = self.round_rng(round_index)
        slots = []
        for client_id in self.sample_clients(rng, round_index):
            level = self.client_level[client_id]
            config = self.level_heads[level]
            slots.append(
                ParticipantSlot.fixed(
                    client_id, config.name, self.pool.group_sizes(config), config.num_params, stream=level
                )
            )
        return slots

    def stream_state(self, stream: str) -> dict[str, np.ndarray]:
        """One published stream per level: each level keeps its own global model."""
        return self.level_states[stream]

    def fold_updates(self, updates) -> None:
        """Plain FedAvg within each level; no parameters cross levels."""
        per_level_updates: dict[str, list[ClientUpdate]] = {level: [] for level in self.level_states}
        for slot, update in updates:
            per_level_updates[slot.stream].append(update)
        for level, level_updates in per_level_updates.items():
            if level_updates:
                self.level_states[level] = fedavg_aggregate(level_updates)
        # The "full" model of Decoupled is its L-level model.
        self.global_state = dict(self.level_states["L"])

    def evaluate(self) -> tuple[float, dict[str, float]]:
        """Full = the L-level model; per-level heads use their own decoupled states."""
        full_sizes = self.architecture.full_group_sizes()
        full_accuracy, _ = evaluate_state(
            self.architecture,
            full_sizes,
            self.level_states["L"],
            self.test_dataset,
            batch_size=self.federated_config.eval_batch_size,
            model_cache=self._eval_model_cache,
        )
        level_accuracies: dict[str, float] = {}
        for level, config in self.level_heads.items():
            group_sizes = self.pool.group_sizes(config)
            if group_sizes == full_sizes and level == "L":
                # the L head evaluates the same state with the same sizes
                level_accuracies[level] = full_accuracy
                continue
            accuracy, _ = evaluate_state(
                self.architecture,
                group_sizes,
                self.level_states[level],
                self.test_dataset,
                batch_size=self.federated_config.eval_batch_size,
                model_cache=self._eval_model_cache,
            )
            level_accuracies[level] = accuracy
        return full_accuracy, level_accuracies

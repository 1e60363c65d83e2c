"""All-Large: classic FedAvg on the full global model.

This is the paper's reference upper-capacity baseline: every selected
client trains the unpruned L1 model regardless of its resources (which a
real resource-constrained deployment could not do — the comparison shows
how close AdaptiveFL gets without that assumption).
"""

from __future__ import annotations

from repro.api.registry import register_algorithm
from repro.baselines.base import RandomSelectionMixin
from repro.core.fl_base import FederatedAlgorithm, ParticipantSlot

__all__ = ["AllLargeFedAvg"]


@register_algorithm(
    "all_large",
    description="All-Large: classic FedAvg training the unpruned model on every client",
    order=10,
)
class AllLargeFedAvg(RandomSelectionMixin, FederatedAlgorithm):
    """FedAvg with the full model dispatched to every participant."""

    name = "all_large"

    def plan_round(self, round_index: int) -> list[ParticipantSlot]:
        full_sizes = self.architecture.full_group_sizes()
        full_params = self.pool.full_config.num_params
        rng = self.round_rng(round_index)
        return [
            ParticipantSlot.fixed(client_id, "L1", full_sizes, full_params)
            for client_id in self.sample_clients(rng, round_index)
        ]

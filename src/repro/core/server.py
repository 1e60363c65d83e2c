"""The AdaptiveFL cloud server (paper §3, Algorithm 1).

Each round the server:

1. splits the global model into the heterogeneous model pool (Step 1),
2. randomly draws one pool entry per participant slot (Step 2, RandomSel),
3. selects a client for each drawn model with the RL strategy (Step 3),
4. lets the selected devices adaptively prune and train (Steps 4-5),
5. updates the curiosity and resource tables from the ⟨dispatched,
   returned⟩ pairs (Algorithm 1, lines 12-26),
6. aggregates every upload into the new global model (Step 6, Algorithm 2).

The ``selection_strategy`` knob reproduces the ablation variants of §4.4:
``"rl-cs"`` (the paper's AdaptiveFL), ``"rl-c"``, ``"rl-s"``, ``"random"``
and ``"greedy"`` (always dispatch the full model to randomly chosen
clients).
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_algorithm
from repro.core.config import AdaptiveFLConfig
from repro.core.fl_base import FederatedAlgorithm, ParticipantSlot
from repro.core.model_pool import SubmodelConfig
from repro.core.pruning import resource_aware_prune
from repro.core.rl_selection import RLClientSelector, StreamingRLClientSelector
from repro.engine.tasks import LocalRoundTask
from repro.engine.transport import StateHandle
from repro.sim.cohorts import STREAMING_SELECTION_THRESHOLD

__all__ = ["AdaptiveFL"]


@register_algorithm(
    "adaptivefl",
    description="AdaptiveFL: fine-grained width-wise pruning + RL client selection (the paper)",
    uses_algorithm_config=True,
    uses_selection_strategy=True,
    order=50,
)
class AdaptiveFL(FederatedAlgorithm):
    """The paper's algorithm: fine-grained pruning + RL client selection."""

    name = "adaptivefl"

    def __init__(self, *args, algorithm_config: AdaptiveFLConfig | None = None, **kwargs):
        self.algorithm_config = algorithm_config or AdaptiveFLConfig()
        kwargs.setdefault("federated_config", self.algorithm_config.federated)
        kwargs.setdefault("local_config", self.algorithm_config.local)
        kwargs.setdefault("pool_config", self.algorithm_config.pool)
        super().__init__(*args, **kwargs)
        self.strategy = self.algorithm_config.selection_strategy
        selector_strategy = "random" if self.strategy == "greedy" else self.strategy
        # "auto" keeps the historical dense tables (bit-identical traces) below
        # the streaming threshold and switches to O(selected) sparse tables +
        # mask-based selection at fleet scale
        backend = self.algorithm_config.selector_backend
        if backend == "auto":
            backend = "streaming" if self.num_clients >= STREAMING_SELECTION_THRESHOLD else "dense"
        self.selector_backend = backend
        selector_cls = StreamingRLClientSelector if backend == "streaming" else RLClientSelector
        self.selector = selector_cls(
            pool=self.pool,
            num_clients=self.num_clients,
            strategy=selector_strategy,
            resource_reward_cap=self.algorithm_config.resource_reward_cap,
        )

    # -- checkpointing ---------------------------------------------------------------------
    def _collect_extra_state(self, arrays, state) -> None:
        """Checkpoint the RL selection tables alongside the weights.

        The curiosity and resource tables are the only AdaptiveFL state
        beyond the shared base; persisting them is what lets a resumed run
        select clients exactly as the uninterrupted run would have.
        """
        for key, table in self.selector.state_dict().items():
            arrays[f"rl/{key}"] = table

    def _apply_extra_state(self, arrays, state) -> None:
        """Restore the RL tables captured by ``_collect_extra_state``.

        The dense backend persists ``rl/curiosity_table`` + ``rl/resource_table``;
        the streaming backend persists ``rl/client_ids`` + the touched columns.
        Each backend restores its own format and rejects the other with a
        pointer at ``selector_backend``, so a mismatch fails loudly instead of
        silently resetting the tables.
        """
        if isinstance(self.selector, StreamingRLClientSelector):
            required = ("rl/client_ids", "rl/curiosity_columns", "rl/resource_columns")
        else:
            required = ("rl/curiosity_table", "rl/resource_table")
        missing = [key for key in required if key not in arrays]
        if missing:
            raise ValueError(
                f"checkpoint is missing AdaptiveFL RL state: {', '.join(missing)} "
                f"(was it written with a different selector_backend than "
                f"{self.selector_backend!r}?)"
            )
        self.selector.load_state_dict(
            {key.removeprefix("rl/"): arrays[key] for key in required}
        )

    # -- Algorithm 1 -----------------------------------------------------------------------
    def _draw_model(self, rng: np.random.Generator) -> SubmodelConfig:
        """Step 2 (RandomSel): uniform draw from the pool, or L1 under "greedy"."""
        if self.strategy == "greedy":
            return self.pool.full_config
        index = int(rng.integers(0, len(self.pool)))
        return self.pool.by_rank(index)

    def plan_round(self, round_index: int) -> list[ParticipantSlot]:
        """Plan the round serially, exactly as Algorithm 1's control flow dictates.

        Walk the participant slots in order — draw a pool entry, select a
        client, update the RL tables — so later slots see earlier slots'
        table updates.  Those updates need only the ⟨dispatched,
        returned⟩ pair (Algorithm 1, lines 12-26), and the returned size
        is the deterministic outcome of resource-aware pruning under the
        capacity the server's resource model already simulates, so the
        whole control flow resolves before any training happens; the
        independent local rounds then fan out through the executor.
        """
        rng = self.round_rng(round_index)
        streaming = isinstance(self.selector, StreamingRLClientSelector)
        allowed_mask: np.ndarray | None = None
        excluded: set[int] = set()
        if streaming:
            # mask-based planning: never materialise per-client python objects
            # for the whole fleet — availability arrives as a boolean array and
            # selected clients are cleared bit by bit
            allowed_mask = self.selectable_mask(round_index)
            if allowed_mask is None:
                allowed_mask = np.ones(self.num_clients, dtype=bool)
            else:
                allowed_mask = allowed_mask.copy()
            participants = min(self.dispatch_count(), int(np.count_nonzero(allowed_mask)))
        else:
            available = self.selectable_clients(round_index)
            # unavailable clients are folded into the selector's exclusion set, so
            # the RL machinery runs unchanged over the reachable fleet
            excluded = set() if available is None else set(range(self.num_clients)) - set(available)
            participants = (
                self.dispatch_count()
                if available is None
                else min(self.dispatch_count(), len(available))
            )

        slots: list[ParticipantSlot] = []
        for _ in range(participants):
            dispatched = self._draw_model(rng)
            if streaming:
                assert allowed_mask is not None
                client_id = self.selector.select_from_mask(dispatched, rng, allowed_mask)
                allowed_mask[client_id] = False
            else:
                client_id = self.selector.select(dispatched, rng, excluded=excluded)
                excluded.add(client_id)
            planned_return = resource_aware_prune(
                self.pool, dispatched, self.client_capacity(client_id, round_index)
            )
            self.selector.update(dispatched, planned_return, client_id)
            slots.append(
                ParticipantSlot(
                    client_id=client_id,
                    dispatched=dispatched.name,
                    returned=planned_return.name,
                    group_sizes=self.pool.group_sizes(planned_return),
                    params_down=dispatched.num_params,
                    params_up=planned_return.num_params,
                )
            )
        return slots

    def make_task(self, round_index: int, slot: ParticipantSlot, handle: StateHandle) -> LocalRoundTask:
        """The device runs its own round: prune to its capacity, then train.

        The task carries the *planned-return* configuration, so the worker
        cuts exactly the slice the device trains, and it fails loudly if
        the device pruned to anything else.
        """
        return LocalRoundTask(
            client=self.dispatch_client(slot.client_id),
            pool=self.pool,
            dispatched=self.pool.by_name(slot.dispatched),
            dispatched_state=handle,
            available_capacity=self.client_capacity(slot.client_id, round_index),
            rng_stream=self.client_stream(round_index, slot.client_id),
            planned_return=self.pool.by_name(slot.returned),
            codec=self._codec,
            codec_residual=self.codec_residual_for(slot.client_id, slot.group_sizes),
            trace=self.task_trace(),
        )

"""The retired per-object fleet engine, kept as a test oracle.

:class:`~repro.sim.fleet.FleetSimulator` computes a round as array
arithmetic over the dispatch columns.  This module recomputes the same
round the way the historical engine did: one Python object per
dispatched client, the event queue for every dynamic round (also the
uncontended ones the engine solves in closed form), and plain loops for
battery deaths, the deadline, byte-budget admission and the battery
advance.  Parity tests compare the two; the oracle shares only the fleet's
pre-drawn randomness, its event decomposition and its state.

* :func:`oracle_simulate_round` simulates one round of a fleet.
* :func:`oracle_fleet` reroutes one fleet instance's ``simulate_round``
  through the oracle, so a whole federated run (or a benchmark's
  per-device baseline) can be driven by it.
"""

from __future__ import annotations

import types

import numpy as np

from repro.devices.testbed import split_round_seconds
from repro.sim.fleet import BYTES_PER_PARAM, ClientDispatch, ClientOutcome, FleetSimulator, RoundOutcome


def oracle_simulate_round(
    fleet: FleetSimulator, round_index: int, dispatches: list[ClientDispatch]
) -> RoundOutcome:
    """One synchronous round, per dispatched client; mutates ``fleet``."""
    fleet._check_monotonic(round_index)
    if fleet.spec.is_static:
        return _static_round(fleet, round_index, dispatches)
    draws = fleet._dispatch_draws(round_index, [d.client_id for d in dispatches])
    outcome = fleet._simulate_events(round_index, dispatches, draws)
    _apply_battery_deaths(fleet, outcome)
    _apply_deadline(fleet, outcome)
    _apply_byte_budget(fleet, outcome)
    _advance_batteries(fleet, outcome)
    return outcome


def oracle_fleet(fleet: FleetSimulator) -> FleetSimulator:
    """Route this one instance's ``simulate_round`` through the oracle."""
    fleet.simulate_round = types.MethodType(oracle_simulate_round, fleet)
    return fleet


def _static_round(fleet, round_index, dispatches) -> RoundOutcome:
    clients = []
    for dispatch in dispatches:
        device = fleet.devices[dispatch.client_id]
        communication, training = split_round_seconds(
            device.bandwidth_mbps,
            device.flops_per_second,
            dispatch.params_down,
            dispatch.params_up,
            dispatch.flops_per_sample,
            dispatch.num_samples,
            dispatch.local_epochs,
        )
        clients.append(
            ClientOutcome(
                client_id=dispatch.client_id,
                bytes_down=dispatch.params_down * BYTES_PER_PARAM,
                bytes_up=dispatch.params_up * BYTES_PER_PARAM,
                finish_seconds=communication + training,
                dropped=False,
                aggregated=True,
                compute_seconds=training,
            )
        )
    finishes = [client.finish_seconds for client in clients]
    return RoundOutcome(
        round_index=round_index,
        clients=clients,
        deadline_seconds=None,
        round_seconds=float(max(finishes)) if finishes else 0.0,
    )


def _energy(battery, client: ClientOutcome) -> float:
    return battery.compute_watts * client.compute_seconds + battery.transfer_joules_per_mb * (
        (client.bytes_down + client.bytes_up) / 1e6
    )


def _apply_battery_deaths(fleet, outcome: RoundOutcome) -> None:
    """Clients whose charge cannot cover the round die mid-round."""
    battery = fleet.spec.battery
    if battery is None:
        return
    for client in outcome.clients:
        if _energy(battery, client) > fleet._charge[client.client_id]:
            client.dropped = True
            if client.failure_seconds is None:
                # went silent no later than it would have finished/failed
                client.failure_seconds = client.finish_seconds
            client.finish_seconds = None
            client.bytes_up = 0


def _apply_deadline(fleet, outcome: RoundOutcome) -> None:
    """Set the deadline, aggregated flags and the round's duration."""
    finishes = [c.finish_seconds for c in outcome.clients if c.finish_seconds is not None]
    deadline = fleet.spec.deadline_seconds
    if deadline is None and fleet.spec.deadline_factor is not None and finishes:
        deadline = float(fleet.spec.deadline_factor * np.median(finishes))
    outcome.deadline_seconds = deadline
    any_missing = False
    for client in outcome.clients:
        client.aggregated = client.finish_seconds is not None and (
            deadline is None or client.finish_seconds <= deadline
        )
        any_missing = any_missing or not client.aggregated
    # without a deadline the server's horizon is the last arrival or the
    # last failure it times out on
    horizon = finishes + [c.failure_seconds for c in outcome.clients if c.failure_seconds is not None]
    if deadline is not None and (any_missing or not finishes):
        outcome.round_seconds = float(deadline)  # the server waits out the deadline
    else:
        outcome.round_seconds = float(max(horizon)) if horizon else 0.0


def _apply_byte_budget(fleet, outcome: RoundOutcome) -> None:
    """Downlinks spend the budget first; returned uploads are then admitted
    greedily in arrival order (dispatch position breaking ties)."""
    budget = fleet.spec.round_byte_budget
    if budget is None:
        return
    remaining = float(budget) - float(sum(c.bytes_down for c in outcome.clients))
    returned = [i for i, c in enumerate(outcome.clients) if c.finish_seconds is not None]
    for i in sorted(returned, key=lambda i: (outcome.clients[i].finish_seconds, i)):
        client = outcome.clients[i]
        if client.bytes_up <= remaining:
            remaining -= client.bytes_up
        else:
            client.aggregated = False
            client.bytes_up = 0


def _advance_batteries(fleet, outcome: RoundOutcome) -> None:
    """Drain participants, recharge everyone else, update recovery flags."""
    battery = fleet.spec.battery
    if battery is None:
        return
    participants = {client.client_id for client in outcome.clients}
    for client in outcome.clients:
        charge = fleet._charge[client.client_id]
        fleet._charge[client.client_id] = max(0.0, charge - min(_energy(battery, client), charge))
    for client_id in range(fleet.num_clients):
        if client_id not in participants:
            fleet._charge[client_id] = min(
                battery.capacity_joules,
                fleet._charge[client_id] + battery.recharge_watts * outcome.round_seconds,
            )
    low = battery.min_charge_fraction * battery.capacity_joules
    resume = battery.resume_charge_fraction * battery.capacity_joules
    below = fleet._charge < low
    fleet._recovering_mask = below | (fleet._recovering_mask & ~(fleet._charge >= resume))

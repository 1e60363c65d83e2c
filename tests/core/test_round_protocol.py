"""The shared round protocol: every registered algorithm plans, the base class runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.registry import available_algorithms, get_algorithm
from repro.engine.serial import SerialExecutor
from repro.engine.tasks import LocalRoundTask


class RecordingExecutor(SerialExecutor):
    """Serial executor that keeps the tasks of every ``map`` call (one per round)."""

    def __init__(self):
        super().__init__()
        self.rounds: list[list] = []

    def map(self, tasks):
        self.rounds.append(list(tasks))
        return super().map(tasks)


def dispatched_params(algorithm, task) -> int:
    """Parameter count of the submodel a task's client received."""
    if isinstance(task, LocalRoundTask):
        return task.dispatched.num_params
    return algorithm.architecture.parameter_count(dict(task.group_sizes))


@pytest.mark.parametrize("name", available_algorithms())
def test_simulated_downlink_matches_dispatched_submodels(ci_prepared, name):
    """Under a scenario, ``bytes_down`` is 4 B per parameter actually dispatched.

    ``paper_testbed`` drops nobody, so every dispatched client runs a task
    and the dispatched submodels can be read off the tasks themselves.
    """
    algorithm = get_algorithm(name).build(ci_prepared, scenario="paper_testbed")
    executor = RecordingExecutor()
    algorithm.set_executor(executor)
    history = algorithm.run(num_rounds=2)
    assert len(executor.rounds) == len(history.records)
    for record, tasks in zip(history.records, executor.rounds):
        assert len(tasks) == len(record.selected_clients)
        assert record.bytes_down == 4 * sum(dispatched_params(algorithm, task) for task in tasks)


@pytest.mark.parametrize("module", ["repro.engine.codecs", "repro.engine.tasks", "repro.serve.client"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    src = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr

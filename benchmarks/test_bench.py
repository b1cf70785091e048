"""Tests of the benchmark itself: item isolation and the tracer's hygiene.

Run from the root of the repository:

    python -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPER_MARK  # noqa: E402

ISOLATION_COUNTS = ("gaussian.new.calls", "matrix.matmul.calls", "span.vectorspan_add.calls")


class SmallCube(workloads.Cube):
    D = 3
    round_items = 2


class TwoRd(workloads.RdFamily):
    d_values = range(5)
    round_items = 2


class TwoCli(workloads.CliIo):
    d_values = range(2)
    round_items = 2


@pytest.fixture()
def lab():
    run.OUT.mkdir(exist_ok=True)  # cli-io writes its rep files there
    return run.Lab(run.ROOT / "src")


def _bindings(lab) -> dict:
    """Every name bound in a racahlab module or in a class defined there."""
    out = {}
    for module in lab.all_modules():
        for name, value in vars(module).items():
            out[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("racahlab"):
                for attr, member in vars(value).items():
                    out[(value.__module__, value.__qualname__, attr)] = member
    return out


def _is_wrapper(value) -> bool:
    return getattr(getattr(value, "__func__", value), WRAPPER_MARK, False)


def _same_input_twice(workload, lab):
    inp = workload.make_input(lab, 7, 0)
    return [inp, inp]


@pytest.mark.parametrize("workload", [SmallCube(), TwoRd(), TwoCli()], ids=lambda w: w.name)
def test_identical_items_report_identical_counts(workload, lab):
    inputs = _same_input_twice(workload, lab)
    tracer, (times, attempted, failed, problems, _cal) = run.timed_phase(
        workload, lab, inputs, seed=7, seconds=0, trace=True
    )
    assert (attempted, failed, problems) == (2, 0, [])
    per_item = tracer.per_item()
    first = {name: per_item[0][name] for name in ISOLATION_COUNTS}
    second = {name: per_item[1][name] for name in ISOLATION_COUNTS}
    assert first == second
    assert first["gaussian.new.calls"] > 0


@pytest.mark.parametrize("workload", [SmallCube(), TwoCli()], ids=lambda w: w.name)
def test_traced_run_restores_every_binding(workload, lab):
    before = _bindings(lab)
    seen_wrappers = []

    def on_item(k, clock):
        seen_wrappers.append(sum(map(_is_wrapper, _bindings(lab).values())))

    run.timed_phase(workload, lab, _same_input_twice(workload, lab), 7, 0, True, on_item)
    after = _bindings(lab)
    assert seen_wrappers and all(seen_wrappers)
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    assert not any(map(_is_wrapper, after.values()))


def test_untraced_run_installs_no_wrapper(lab):
    before = _bindings(lab)
    seen_wrappers = []

    def on_item(k, clock):
        seen_wrappers.append(sum(map(_is_wrapper, _bindings(lab).values())))

    workload = SmallCube()
    tracer, _ = run.timed_phase(workload, lab, [3, 3], 7, 0, False, on_item)
    assert tracer is None
    assert seen_wrappers == [0, 0]
    after = _bindings(lab)
    assert all(before[key] is after[key] for key in before)


@pytest.mark.parametrize("workload", [SmallCube(), TwoRd(), TwoCli()], ids=lambda w: w.name)
def test_self_times_fit_inside_item_wall_time(workload, lab):
    walls = {}

    def on_item(k, clock):
        walls[k] = clock.wall

    tracer, _ = run.timed_phase(
        workload, lab, _same_input_twice(workload, lab), 7, 0, True, on_item
    )
    per_item = tracer.per_item()
    for k, wall in walls.items():
        self_total = sum(v for name, v in per_item[k].items() if name.endswith(".self_s"))
        assert 0 < self_total <= wall

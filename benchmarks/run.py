"""Benchmark for racahlab: one workload per process, timed from outside.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload cube --seed 1 --seconds 20 --trace 0

Set-up (a fresh import of ``src/racahlab``, input generation from the seed and
a small warm-up item) is done ``SETUP_REPEATS`` times and its median reported.
The timed phase then runs whole rounds of the workload's ``round_items``
items until ``--seconds`` have passed.  Before each item every
``functools.lru_cache`` in the racahlab modules is cleared and garbage is
collected, outside the timed span, so that an item does the work a fresh
CLI process would do.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same phase runs under the tracer and
the metrics are the per-layer ones over the first round.  The spans are
written to ``benchmarks/out/``.  The exit code is 0 when the run completes,
2 when racahlab cannot be imported from ``src``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from tracer import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# Times are reported at the speed of a reference machine on which one
# calibration sample (CALIBRATION_PASSES of calibration_work) takes
# REFERENCE_CALIBRATION_S.  A shared virtual machine changed speed by more than
# 2x within an hour; scaling by calibration samples taken in the same process,
# before every item, removes that drift from the reported times.
CALIBRATION_PASSES = 24
REFERENCE_CALIBRATION_S = 0.06
MODULES = (
    "gaussian",
    "polynomial",
    "matrix",
    "span",
    "pbw",
    "racah",
    "rd",
    "sl2",
    "decompose",
    "leonard",
    "cli",
)


def calibration_work() -> int:
    """Fixed exact arithmetic in the style of racahlab's kernels, apart from it:
    a Fraction Gauss-Jordan elimination and an integer matrix product."""
    n = 9
    rows = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = [x / rows[col][col] for x in rows[col]]
        rows[col] = lead
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], lead)]
    m = 20
    a = [[(7 * i + 3 * j) % 13 - 6 for j in range(m)] for i in range(m)]
    b = [[(5 * i + 11 * j) % 9 - 4 for j in range(m)] for i in range(m)]
    product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return sum(map(sum, product)) + sum(x.numerator for x in rows[0])


def calibrate() -> float:
    """Seconds for one calibration sample, with the garbage collector off so
    that the heap the program left behind does not slow it."""
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(CALIBRATION_PASSES):
            calibration_work()
        return perf_counter() - start
    finally:
        gc.enable()


class Lab:
    """A fresh import of racahlab from ``src`` and its lru caches."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "racahlab" or m.startswith("racahlab.")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        package = importlib.import_module("racahlab")
        if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
            raise ImportError(f"racahlab was imported from {package.__file__}, not from {src}")
        self.package = package
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"racahlab.{name}"))
        self.caches = []
        seen = set()
        for module in self.all_modules():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and id(value) not in seen:
                    seen.add(id(value))
                    self.caches.append(value)

    def all_modules(self):
        return [self.package] + [getattr(self, name) for name in MODULES]

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()


class ItemClock:
    """Sums the wall time of an item's timed segments; opens tracer segments."""

    def __init__(self, item: int, tracer: Tracer | None = None):
        self.item = item
        self.tracer = tracer
        self.wall = 0.0

    @contextmanager
    def timed(self):
        if self.tracer is not None:
            self.tracer.begin(self.item)
        start = perf_counter()
        try:
            yield
        finally:
            self.wall += perf_counter() - start
            if self.tracer is not None:
                self.tracer.end()


def set_up(workload, seed: int):
    """Import, generate the first round's inputs and warm up; returns (lab, inputs)."""
    lab = Lab(ROOT / "src")
    inputs = [workload.make_input(lab, seed, k) for k in range(workload.round_items)]
    workload.run_item(lab, workload.warm_input(lab), ItemClock(-1), OUT)
    return lab, inputs


def run_items(workload, lab, inputs, seed, seconds, tracer=None, on_item=None):
    """The timed phase; returns (item wall times, attempted, failed, problems,
    calibration samples)."""
    times: list[float] = []
    calibrations: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = perf_counter()
    k = 0
    while k == 0 or k % workload.round_items or perf_counter() - start < seconds:
        inp = inputs[k] if k < len(inputs) else workload.make_input(lab, seed, k)
        lab.clear_caches()
        gc.collect()
        calibrations.append(calibrate())
        clock = ItemClock(k, tracer)
        attempted += 1
        try:
            out = workload.run_item(lab, inp, clock, OUT)
        except Exception:  # a failed operation is counted, and the run goes on
            failed += 1
            print(f"item {k} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            times.append(clock.wall)
            found = workload.check(lab, inp, out)
            problems.extend(f"item {k}: {p}" for p in found)
            if on_item is not None:
                on_item(k, clock)
        k += 1
    return times, attempted, failed, problems, calibrations


def timed_phase(workload, lab, inputs, seed, seconds, trace, on_item=None):
    """``run_items``, under a tracer installed for the phase when ``trace``."""
    tracer = Tracer(lab) if trace else None
    if tracer is not None:
        tracer.install()
    try:
        return tracer, run_items(workload, lab, inputs, seed, seconds, tracer, on_item)
    finally:
        if tracer is not None:
            tracer.restore()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    setup_times = []
    setup_calibrations = []
    try:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            lab, inputs = set_up(workload, args.seed)
            setup_times.append(perf_counter() - start)
            setup_calibrations.append(calibrate())
    except ImportError as exc:
        print(f"cannot import racahlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    tracer, (times, attempted, failed, problems, calibrations) = timed_phase(
        workload, lab, inputs, args.seed, args.seconds, args.trace
    )
    for problem in problems:
        print(f"WRONG {problem}", file=sys.stderr)

    first = workload.round_items
    p50 = statistics.median(times) if times else float("nan")
    calibration = statistics.median(setup_calibrations + calibrations)
    scale = REFERENCE_CALIBRATION_S / calibration
    summary = (
        f"{workload.name} seed={args.seed} trace={args.trace}: {len(times)} items; wall "
        f"setup {statistics.median(setup_times):.4f} s, item p50 {p50 * 1000:.1f} ms, "
        f"first round {sum(times[:first]):.3f} s; calibration {calibration * 1000:.2f} ms, "
        f"scale {scale:.4f}"
    )
    print(summary, file=sys.stderr)
    if tracer is not None:
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.tsv"
        tracer.write(trace_path)
        layer = tracer.metrics(range(first))
        units = {name: unit for name, unit, _ in METRICS}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * scale, "unit": "s"},
            "run_s": {"value": sum(times[:first]) * scale, "unit": "s"},
            "item_p50_ms": {"value": p50 * 1000 * scale, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

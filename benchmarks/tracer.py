"""Per-layer tracing of racahlab from outside the program.

A ``Tracer`` wraps the functions and methods listed in ``FUNCTION_LAYERS``
and ``METHOD_LAYERS`` at every place their names are bound: the defining
module, every racahlab module (the package included) that imported the same
object, and the class that owns a method.  While an item is open, each call records one span
``[layer, start, end, parent span, item]`` in memory; ``restore`` puts every
original binding back.  Outside an item the wrappers only pass the call
through, so the benchmark's own output checks are never traced.

Self time of a span is its duration minus the durations of its direct child
spans.  Spans nest strictly (the benchmark is single-threaded), so the child
spans of one span never overlap.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# layer name -> module-level functions (module, attribute) that make it up
FUNCTION_LAYERS = {
    "matrix.rref": [("matrix", "rref")],
    "matrix.kernel_basis": [("matrix", "kernel_basis")],
    "matrix.solve_columns": [("matrix", "solve_columns")],
    "matrix.minimal_polynomial": [("matrix", "minimal_polynomial")],
    "matrix.eigen_split": [("matrix", "eigen_split")],
    "matrix.rational_roots": [("matrix", "rational_roots")],
    "span.algebra_closure": [("span", "algebra_closure")],
    "sl2.build_hypercube": [("sl2", "build_hypercube")],
    "sl2.hypercube_checks": [("sl2", "hypercube_checks")],
    "sl2.sharp_pullback": [("sl2", "sharp_pullback")],
    "sl2.halved_cube": [("sl2", "halved_cube")],
    "decompose.re_decompose": [("decompose", "re_decompose")],
    "decompose.semisimple_profile": [("decompose", "semisimple_profile")],
    "decompose.compare_te_re": [("decompose", "compare_te_re")],
    "decompose.even_isotypic": [("decompose", "even_isotypic")],
    "rd.construct": [("rd", "construct")],
    "rd.is_irreducible": [("rd", "is_irreducible")],
    "rd.burnside_irreducible": [("rd", "burnside_irreducible")],
    "rd.min_polys": [("rd", "min_polys")],
    "racah.verify_presentation": [("racah", "verify_presentation")],
    "racah.central_values": [("racah", "central_values")],
    "racah.verify_section6_relations": [("racah", "verify_section6_relations")],
    "racah.rep_to_text": [("racah", "rep_to_text")],
    "racah.rep_from_text": [("racah", "rep_from_text")],
    "leonard.check": [("leonard", "check")],
    "pbw.verify": [
        ("pbw", name)
        for name in (
            "verify_sharp_relations",
            "verify_casimir_images",
            "verify_kernel_generators",
            "verify_d3_presentation",
            "verify_equivariance",
            "verify_even_identities",
        )
    ],
    "cli.main": [("cli", "main")],
}

# layer name -> methods (module, class, attribute) that make it up.
# ExactMatrix.__mul__ is special-cased: a matrix operand goes on to _matmul
# (its own layer), only a scalar operand is a "scale" call.
METHOD_LAYERS = {
    "polynomial.gcd": [("polynomial", "Poly", "gcd")],
    "polynomial.eval": [("polynomial", "Poly", "__call__")],
    # Wrapped so that the evaluations it makes are not counted as root
    # candidates of the rational_roots span that calls it.
    "polynomial.root_multiplicity": [("polynomial", "Poly", "root_multiplicity")],
    "matrix.matmul": [("matrix", "ExactMatrix", "_matmul")],
    "matrix.addsub": [("matrix", "ExactMatrix", "__add__"), ("matrix", "ExactMatrix", "__sub__")],
    "matrix.scale": [("matrix", "ExactMatrix", "__mul__"), ("matrix", "ExactMatrix", "__rmul__")],
    "matrix.subspace": [("matrix", "Subspace", "from_vectors"), ("matrix", "Subspace", "contains")],
    "span.vectorspan_add": [("span", "VectorSpan", "add")],
    "span.vectorspan_contains": [("span", "VectorSpan", "contains")],
}

SPAN_LAYERS = tuple(FUNCTION_LAYERS) + tuple(METHOD_LAYERS)

# Every per-layer metric the traced run reports, with its unit and direction.
METRICS = (
    [("gaussian.new.calls", "count", "lower")]
    + [
        (f"{layer}.{kind}", unit, "lower")
        for layer in SPAN_LAYERS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("matrix.matmul.mults", "count", "lower"),
        ("matrix.rational_roots.max_coeff_bits", "bits", "lower"),
        ("matrix.rational_roots.useful_ratio", "ratio", "higher"),
        ("span.vectorspan_add.grew", "count", "higher"),
        ("span.vectorspan_add.useful_ratio", "ratio", "higher"),
    ]
)

WRAPPER_MARK = "__racahlab_bench_wrapper__"


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs:
        for part in (c.re, c.im):
            bits = max(bits, part.numerator.bit_length(), part.denominator.bit_length())
    return bits


class Tracer:
    """Spans and counters for one traced run; ``install`` / ``restore`` wrap it."""

    def __init__(self, lab):
        self.lab = lab
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._item: int | None = None
        self._new_count = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- item segments --------------------------------------------------

    def begin(self, item: int) -> None:
        """Open a timed segment of ``item``; calls inside it are recorded."""
        self._item = item
        self._new_count = 0

    def end(self) -> None:
        self.counters[self._item]["gaussian.new.calls"] += self._new_count
        self._item = None

    # -- wrapping -------------------------------------------------------

    def _span(self, layer, fn, note=None, passthrough=None):
        tracer = self
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if tracer._item is None or (passthrough is not None and passthrough(args)):
                return fn(*args, **kwargs)
            sid = len(spans)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer._item]
            spans.append(rec)
            stack.append(sid)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(tracer.counters[tracer._item], args, result)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _count_new(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._item is not None:
                tracer._new_count += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPER_MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        lab = self.lab
        modules = lab.all_modules()
        for layer, targets in FUNCTION_LAYERS.items():
            note = _NOTES.get(layer)
            for mod_name, attr in targets:
                original = getattr(getattr(lab, mod_name), attr)
                wrapper = self._span(layer, original, note)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        for layer, targets in METHOD_LAYERS.items():
            note = _NOTES.get(layer)
            for mod_name, cls_name, attr in targets:
                cls = getattr(getattr(lab, mod_name), cls_name)
                descriptor = cls.__dict__[attr]
                passthrough = None
                if (cls_name, attr) == ("ExactMatrix", "__mul__"):
                    matrix_type = cls
                    passthrough = lambda args: isinstance(args[1], matrix_type)  # noqa: E731
                if isinstance(descriptor, classmethod):
                    new = classmethod(self._span(layer, descriptor.__func__, note, passthrough))
                else:
                    new = self._span(layer, descriptor, note, passthrough)
                self._patch(cls, attr, new)
        gaussian = lab.gaussian.GaussianRational
        self._patch(gaussian, "__init__", self._count_new(gaussian.__dict__["__init__"]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------

    def per_item(self) -> dict[int, dict[str, float]]:
        """Calls, self time and counters of every layer, per item."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, parent, item) in enumerate(self.spans):
            row = out[item]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += (end - start) - child_time[sid]
            if name == "polynomial.eval" and parent >= 0 and self.spans[parent][0] == "matrix.rational_roots":
                row["matrix.rational_roots.candidates"] += 1
        for item, counters in self.counters.items():
            row = out[item]
            for key, value in counters.items():
                if key.endswith(".max_coeff_bits"):
                    row[key] = max(row[key], value)
                else:
                    row[key] += value
        return out

    def metrics(self, items) -> dict[str, float]:
        """Per-layer totals over ``items``; zero where a layer stayed idle."""
        per_item = self.per_item()
        totals: dict[str, float] = defaultdict(float)
        for item in items:
            for key, value in per_item.get(item, {}).items():
                if key.endswith(".max_coeff_bits"):
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
        candidates = totals.pop("matrix.rational_roots.candidates", 0)
        found = totals.pop("matrix.rational_roots.roots", 0)
        totals["matrix.rational_roots.useful_ratio"] = found / candidates if candidates else 0.0
        adds = totals["span.vectorspan_add.calls"]
        totals["span.vectorspan_add.useful_ratio"] = (
            totals["span.vectorspan_add.grew"] / adds if adds else 0.0
        )
        return {name: totals.get(name, 0.0) for name, _unit, _better in METRICS}

    def write(self, path) -> None:
        """Write every span as one tab-separated line, parents by span id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\titem\tlayer\tstart\tend\n")
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{item}\t{name}\t{start:.9f}\t{end:.9f}\n")


def _note_matmul(counters, args, result):
    a, b = args[0], args[1]
    counters["matrix.matmul.mults"] += a.rows * a.cols * b.cols


def _note_roots(counters, args, result):
    counters["matrix.rational_roots.max_coeff_bits"] = max(
        counters["matrix.rational_roots.max_coeff_bits"], _coeff_bits(args[0])
    )
    counters["matrix.rational_roots.roots"] += len(result.roots)


def _note_add(counters, args, result):
    if result:
        counters["span.vectorspan_add.grew"] += 1


_NOTES = {
    "matrix.matmul": _note_matmul,
    "matrix.rational_roots": _note_roots,
    "span.vectorspan_add": _note_add,
}

"""Algebra closure by span saturation.

The closure grows a ``VectorSpan`` (defined with the one exact elimination
kernel in ``matrix``): each word is flattened to a Gaussian-integer vector,
realified in interleaved coordinates (re_0, im_0, re_1, im_1, ...) and, if
it enlarges the span, stored together with its i-multiple, so membership
over the Gaussian rationals is a rational rank test on integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch
from .matrix import ExactMatrix, VectorSpan, _from_int_form, _gauss_int_matmul


@dataclass(frozen=True)
class ClosureResult:
    """Linear basis of the unital algebra generated by a set of matrices."""

    dim: int
    basis: tuple[ExactMatrix, ...]
    span: VectorSpan

    def contains(self, matrix: ExactMatrix) -> bool:
        return self.span.contains(matrix.entries)


def _flatten(rows: list[list[int]] | None) -> list[int] | None:
    return None if rows is None else [x for row in rows for x in row]


def algebra_closure(gens: Sequence[ExactMatrix]) -> ClosureResult:
    """Span-saturate the unital algebra generated by square matrices.

    The span is seeded with the identity and the generators, then grown by
    left-multiplying new basis elements by the generators until stable.
    Because the span always contains the identity, this reaches every word
    in the generators, hence the whole algebra.  Generators are rescaled to
    Gaussian-integer form first (harmless: scaling a generator by a nonzero
    scalar does not change the generated unital algebra), and every word
    stays a (real rows, imaginary rows or None) integer pair until the basis
    is returned.
    """
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rows
    for g in gens:
        if not g.is_square or g.rows != n:
            raise DimensionMismatch("generators must be square and equally sized")
    scaled = [g.int_form()[1:] for g in gens]
    identity = ([[int(i == j) for j in range(n)] for i in range(n)], None)
    span = VectorSpan(n * n)
    basis = []
    frontier = []
    for candidate in [identity] + scaled:
        if span.add_int(*map(_flatten, candidate)):
            basis.append(candidate)
            frontier.append(candidate)
    while frontier:
        fresh = []
        for w in frontier:
            for g in scaled:
                prod = _gauss_int_matmul(g, w, n)
                if span.add_int(*map(_flatten, prod)):
                    basis.append(prod)
                    fresh.append(prod)
        frontier = fresh
    return ClosureResult(len(basis), tuple(_from_int_form(1, *b) for b in basis), span)

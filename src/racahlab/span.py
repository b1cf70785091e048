"""Algebra closure by span saturation.

The closure grows a ``VectorSpan`` (defined with the one exact elimination
kernel in ``matrix``): each word is flattened to a Gaussian-integer vector
and kept if it enlarges the span.  Real words stay real integer rows; from
the first word with an imaginary part on, the span is realified, so
membership over the Gaussian rationals is a rational rank test on integer
rows either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch
from .matrix import ExactMatrix, VectorSpan, _from_ints, _gauss_int_matmul


@dataclass(frozen=True)
class ClosureResult:
    """Linear basis of the unital algebra generated by a set of matrices."""

    dim: int
    basis: tuple[ExactMatrix, ...]
    span: VectorSpan

    def contains(self, matrix: ExactMatrix) -> bool:
        return self.span.contains_int(_flatten(matrix.re), _flatten(matrix.im))


def _flatten(rows) -> list[int] | None:
    return None if rows is None else [x for row in rows for x in row]


def algebra_closure(gens: Sequence[ExactMatrix]) -> ClosureResult:
    """Span-saturate the unital algebra generated by square matrices.

    The span is seeded with the identity and the generators, then grown by
    left-multiplying new basis elements by the generators until stable or
    until the span is the whole n x n matrix algebra.
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
    scaled = [(g.re, g.im) for g in gens]
    identity = ([[int(i == j) for j in range(n)] for i in range(n)], None)
    span = VectorSpan(n * n)
    basis = [c for c in [identity, *scaled] if span.add_int(*map(_flatten, c))]
    # basis grows while this walks it, so the words come breadth first
    for w, g in ((w, g) for w in basis for g in scaled):
        if span.rank == n * n:
            break  # nothing enlarges the full matrix algebra
        prod = _gauss_int_matmul(g, w, n)
        if span.add_int(*map(_flatten, prod)):
            basis.append(prod)
    return ClosureResult(len(basis), tuple(_from_ints(1, *b) for b in basis), span)

"""Algebra closure by span saturation.

The closure grows a ``VectorSpan`` (defined with the one exact elimination
kernel in ``matrix``): each word is flattened to a Gaussian-integer vector
and kept if it enlarges the span.  Real words stay real integer rows; from
the first word with an imaginary part on, the span is realified, so
membership over the Gaussian rationals is a rational rank test on integer
rows either way.

``is_full_matrix_algebra`` walks the images mod a prime first, which can
only certify the full matrix algebra (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch
from .matrix import ExactMatrix, VectorSpan, _from_ints, _gauss_int_matmul, _identity_rows, _walk
from .matrix import _ModSpan, _mod_image, _mod_matmul


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


def _size(gens: Sequence[ExactMatrix]) -> int:
    """The common size n of square generators; raises unless there is one."""
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].rows
    for g in gens:
        if not g.is_square or g.rows != n:
            raise DimensionMismatch("generators must be square and equally sized")
    return n


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
    n = _size(gens)
    scaled = [(g.re, g.im) for g in gens]
    span = VectorSpan(n * n)
    basis = _walk(
        [(_identity_rows(n), None), *scaled],
        scaled,
        lambda g, w: _gauss_int_matmul(g, w, n),
        lambda c: span.add_int(*map(_flatten, c)),
        n * n,
    )
    return ClosureResult(len(basis), tuple(_from_ints(1, *b) for b in basis), span)


def is_full_matrix_algebra(gens: Sequence[ExactMatrix]) -> bool:
    """True iff the generators generate the whole n x n matrix algebra.

    The closure walk runs first on the images mod P of the generators that
    have one; it can only certify, since rank mod P never exceeds the exact
    rank.  When it stops short of n^2, ``algebra_closure`` decides.
    """
    n = _size(gens)
    images = [image for image in map(_mod_image, gens) if image is not None]
    kept = _walk([_identity_rows(n), *images], images, _mod_matmul, _ModSpan().add, n * n)
    return len(kept) == n * n or algebra_closure(gens).dim == n * n

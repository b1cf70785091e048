"""Incremental exact linear spans and algebra closure by span saturation.

The echelon kernel works on integer vectors with cross-multiplied
elimination and content stripping, so no Fraction objects appear in the
hot loops.  Gaussian-rational vectors are scaled to Gaussian-integer form
and, when imaginary parts are present, realified (a vector v is in the
Gaussian-rational span of a set iff its realification is in the rational
span of the realifications of the set together with their i-multiples).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionMismatch
from .gaussian import GaussianRational
from .matrix import ExactMatrix, _from_int_form, _gauss_int_matmul


def _strip_content(vec: list[int]) -> list[int]:
    g = 0
    for x in vec:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        vec = [x // g for x in vec]
    return vec


class _IntEchelon:
    """Exact incremental rank structure over the integers.

    Rows are kept in insertion order; each stored row is fully reduced
    against all earlier rows, is primitive, and has a positive leading
    entry.  Reduction of a fresh vector therefore proceeds triangularly.
    """

    __slots__ = ("length", "rows", "pivots", "pivot_values")

    def __init__(self, length: int):
        self.length = length
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.pivot_values: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: list[int]) -> list[int]:
        steps = 0
        for row, piv, pval in zip(self.rows, self.pivots, self.pivot_values):
            c = vec[piv]
            if c:
                g = gcd(pval, c)
                a = pval // g
                b = c // g
                if a == 1:
                    vec = [x - b * y for x, y in zip(vec, row)]
                else:
                    vec = [a * x - b * y for x, y in zip(vec, row)]
                steps += 1
                if steps % 12 == 0:
                    # Keep coordinates small across long elimination chains.
                    vec = _strip_content(vec)
        return vec

    def contains(self, vec: list[int]) -> bool:
        return not any(self._reduce(list(vec)))

    def add(self, vec: list[int]) -> bool:
        """Insert the vector; True if it enlarged the span."""
        if len(vec) != self.length:
            raise DimensionMismatch("vector length does not match the span")
        vec = self._reduce(list(vec))
        for piv, x in enumerate(vec):
            if x:
                vec = _strip_content(vec)
                if vec[piv] < 0:
                    vec = [-y for y in vec]
                self.rows.append(vec)
                self.pivots.append(piv)
                self.pivot_values.append(vec[piv])
                return True
        return False


def _vector_int_form(vec: Sequence[GaussianRational]) -> tuple[list[int], list[int] | None]:
    den = 1
    for x in vec:
        den = lcm(den, x.re.denominator, x.im.denominator)
    re_part = [int(x.re * den) for x in vec]
    im_part = [int(x.im * den) for x in vec]
    return re_part, (im_part if any(im_part) else None)


class VectorSpan:
    """Incremental span of fixed-length Gaussian-rational vectors."""

    def __init__(self, length: int):
        self.length = length
        self._echelon = _IntEchelon(2 * length)

    @property
    def rank(self) -> int:
        # Realified rows come in (v, i*v) pairs, so the rank over the
        # Gaussian rationals is half the integer rank.
        r = self._echelon.rank
        assert r % 2 == 0
        return r // 2

    def _realify(self, re_part: list[int], im_part: list[int] | None) -> list[int]:
        if len(re_part) != self.length:
            raise DimensionMismatch("vector length does not match the span")
        if im_part is None:
            im_part = [0] * self.length
        return re_part + im_part

    def add(self, vec: Sequence[GaussianRational]) -> bool:
        return self.add_int(*_vector_int_form(vec))

    def contains(self, vec: Sequence[GaussianRational]) -> bool:
        return self._echelon.contains(self._realify(*_vector_int_form(vec)))

    def add_int(self, re_part: list[int], im_part: list[int] | None) -> bool:
        """Insert the Gaussian-integer vector re_part + i*im_part; True if it grew."""
        grew = self._echelon.add(self._realify(re_part, im_part))
        if grew:
            # i * (re + i*im) = -im + i*re
            neg_im = [0] * self.length if im_part is None else [-x for x in im_part]
            self._echelon.add(self._realify(neg_im, re_part))
        return grew


# -- algebra closure ----------------------------------------------------


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

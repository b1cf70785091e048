"""Algebra closure by span saturation.

The closure grows a ``VectorSpan`` (defined with the one exact elimination
kernel in ``matrix``): each word is flattened to a Gaussian-integer vector
and kept if it enlarges the span.  Real words stay real integer rows; from
the first word with an imaginary part on, the span is realified, so
membership over the Gaussian rationals is a rational rank test on integer
rows either way.

``is_full_matrix_algebra`` tries Norton's test first, which decides both
ways whenever a generator has an element of nullity 1 (see its docstring);
the closure decides only the sets where no generator has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch
from .matrix import ExactMatrix, VectorSpan, _from_ints, _gauss_int_matmul, _walk
from .matrix import _ModSpan, _mod_image, _mod_ints, _spin_rank_mod_p
from .matrix import kernel_basis, minimal_polynomial, rational_roots


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
        [([[int(i == j) for j in range(n)] for i in range(n)], None), *scaled],
        scaled,
        lambda g, w: _gauss_int_matmul(g, w, n),
        lambda c: span.add_int(*map(_flatten, c)),
        n * n,
    )
    return ClosureResult(len(basis), tuple(_from_ints(1, *b) for b in basis), span)


def _mod_rank(image, shift: int) -> int:
    """The rank mod P of an image less shift on the diagonal."""
    span = _ModSpan()
    rows = ([y - shift * (i == j) for j, y in enumerate(row)] for i, row in enumerate(image))
    return sum(span.add([row]) for row in rows)


def _spins(vec, gens: Sequence[ExactMatrix], images, n: int) -> bool:
    """True iff vec spins to the whole n-space under gens, given their images
    mod P.  Rank n mod P decides at once; otherwise the exact spin decides."""
    if _spin_rank_mod_p(vec, images) == n:
        return True
    return len(_walk([vec], gens, lambda g, u: g.apply(u), VectorSpan(n).add, n)) == n


def _norton(gens: Sequence[ExactMatrix], n: int) -> bool | None:
    """Norton's criterion (Parker 1984; Holt & Rees 1994): True if the
    generators act irreducibly, False if they keep a proper subspace, None
    (no verdict) when no generator has an element of nullity 1 at hand.

    Take x = g - theta*I for a generator g and a root theta of its minimal
    polynomial, with rank n - 1 mod P, hence rank n - 1 exactly: ker x is one
    line <v> and ker x^T one line <w>.  A spin of v short of V is a proper
    submodule, and a spin of w short of V* annihilates one; either proves the
    module reducible.  If v spins to V under the generators and w to V*
    under their transposes, no proper submodule U exists, over C either:
    ker x meeting U would put v in U, and x injective on U would put w in
    the annihilator of U.  So the module is absolutely irreducible, and by
    Burnside the algebra is all of M_n.
    """
    images = [_mod_image(g) for g in gens]
    for g, image in zip(gens, images):
        for theta in rational_roots(minimal_polynomial(g)).roots:
            shift = _mod_ints(theta.den, [theta.num_re], [theta.num_im])
            if image is None or shift is None or _mod_rank(image, shift[0]) != n - 1:
                continue
            x = g - ExactMatrix.scalar_matrix(n, theta)
            (v,) = kernel_basis(x)
            (w,) = kernel_basis(x.transpose())
            transposed = [None if im is None else list(zip(*im)) for im in images]
            return _spins(v, gens, images, n) and _spins(w, [h.transpose() for h in gens], transposed, n)
    return None


def is_full_matrix_algebra(gens: Sequence[ExactMatrix]) -> bool:
    """True iff the generators generate the whole n x n matrix algebra.

    Norton's test (``_norton``) runs first: two spins of one vector each,
    mod P where that reaches rank n and exactly otherwise.  It decides
    whenever some g - theta*I (theta a root of a generator g's minimal
    polynomial) has rank n - 1 mod P, so nullity 1; only when none has does
    ``algebra_closure`` decide.  Every verdict is exact.
    """
    n = _size(gens)
    verdict = _norton(gens, n)
    return algebra_closure(gens).dim == n * n if verdict is None else verdict

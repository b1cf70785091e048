"""S_D-invariant operators on the D-cube in orbit coordinates.

S_D permutes the coordinates of the cube, and it commutes with every cube
operator used here (E, F, H, the level-graph operators and the pulled-back
A, B, C, Delta).  Such a matrix is fixed by its value on each S_D-orbit of
vertex pairs (x, y), and the orbit is given by the Venn sizes

    (a, b, c, e) = (|x - y|, |y - x|, |x & y|, rest),

so there are C(D + 3, 3) orbits.  The map to orbit vectors is linear and
one-to-one on invariant matrices and turns products into the orbit product
below, so closure dimensions, containment and identity residuals are the
same numbers in orbit coordinates.  This is the orbit basis of the cube's
Terwilliger algebra (Terwilliger 1992, J. Algebraic Combin. 1; Schrijver
2005, IEEE Trans. Inform. Theory 51).

The even-level variant keeps the orbits where |x| = a + c and |y| = b + c
are both even: those orbit vectors are the restrictions to the even levels.

Orbit vectors are integer lists indexed by ``orbits(D, even)``, for
2 <= D <= MAX_ORBIT_D.  ``check_list`` holds the cube's consistency checks,
the one source of Theorem 1.8's identities.  ``cube_build`` caches the cube
operators and their checks once per D, as tuples; the closures' per-D caches
are the entry points in ``decompose``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import ConfigError, DimensionMismatch
from .matrix import ExactMatrix, VectorSpan, _strip_content, _walk
from .pbw import CheckResult

Orbit = tuple[int, int, int, int]

MAX_ORBIT_D = 16


def orbits(D: int, even: bool = False) -> list[Orbit]:
    """The pair orbits (a, b, c, e) of the D-cube in a fixed order; with even,
    only those whose two sets both have even size."""
    if not 2 <= D <= MAX_ORBIT_D:
        raise ConfigError(f"the cube dimension must be between 2 and {MAX_ORBIT_D}")
    return [
        (a, b, c, D - a - b - c)
        for a in range(D + 1)
        for b in range(D + 1 - a)
        for c in range(D + 1 - a - b)
        if not even or (a + c) % 2 == (b + c) % 2 == 0
    ]


def restrict(vec: list[int], D: int) -> list[int]:
    """The even-level part of a full orbit vector."""
    return [x for (a, b, c, _e), x in zip(orbits(D), vec) if (a + c) % 2 == (b + c) % 2 == 0]


def multiplier(left: list[int], D: int, even: bool = False) -> list[list[tuple[int, int]]]:
    """Rows of the map v -> left * v on orbit vectors.

    ``left`` is a full orbit vector; ``v`` and the result are indexed by
    ``orbits(D, even)``.  Row k lists the pairs (j, w) with
    (left * v)[k] = sum of w * v[j].

    Fix the target orbit's pair (x, y) and let z take z1..z4 elements from
    the Venn regions x - y, y - x, x & y and the rest.  Then (x, z) lies in
    (a-z1+c-z3, z2+z4, z1+z3, e-z4+b-z2), (z, y) lies in
    (z1+z4, b-z2+c-z3, z2+z3, a-z1+e-z4), and C(a,z1) C(b,z2) C(c,z3) C(e,z4)
    vertices z share those counts.  Only the left factor's support is
    walked: its orbit fixes z1+z3 and z2+z4, which leaves z1 and z2 free.
    |z| = z1+z2+z3+z4 is fixed too, and on the even levels only even z count.
    """
    index = {o: k for k, o in enumerate(orbits(D, even))}
    support = [(o, m) for o, m in zip(orbits(D), left) if m]
    rows = []
    for a, b, c, e in index:
        row: dict[int, int] = {}
        for (al, be, ga, _de), m in support:
            if al + ga != a + c or (even and (be + ga) % 2):
                continue
            for z1 in range(max(0, ga - c), min(a, ga) + 1):
                z3 = ga - z1
                w13 = m * comb(a, z1) * comb(c, z3)
                for z2 in range(max(0, be - e), min(b, be) + 1):
                    z4 = be - z2
                    j = index[(z1 + z4, b - z2 + c - z3, z2 + z3, a - z1 + e - z4)]
                    row[j] = row.get(j, 0) + w13 * comb(b, z2) * comb(e, z4)
        rows.append(list(row.items()))
    return rows


def _apply(rows: list[list[tuple[int, int]]], vec: list[int]) -> list[int]:
    return [sum(w * vec[j] for j, w in row) for row in rows]


def product(left: list[int], right: list[int], D: int, even: bool = False) -> list[int]:
    """The orbit vector of left * right (see ``multiplier``)."""
    return _apply(multiplier(left, D, even), right)


def identity(D: int) -> list[int]:
    return [int(a == b == 0) for a, b, _c, _e in orbits(D)]


def orbit_vector(matrix: ExactMatrix, D: int, even: bool = False):
    """The (real, imaginary or None) integer orbit vectors of den * matrix,
    or None if the matrix is not constant on every pair orbit.

    Rows and columns are the cube's vertices, subsets as bit masks in
    increasing order, only those of even size when even.
    """
    verts = [v for v in range(1 << D) if not even or v.bit_count() % 2 == 0]
    if not matrix.is_square or matrix.rows != len(verts):
        raise DimensionMismatch(f"expected a {len(verts)}x{len(verts)} matrix")
    index = {o[:3]: k for k, o in enumerate(orbits(D, even))}
    sizes = [v.bit_count() for v in verts]
    parts = []
    for rows in (matrix.re, matrix.im):
        if rows is None:
            parts.append(None)
            continue
        vec = [None] * len(index)
        for x, sx, row in zip(verts, sizes, rows):
            for y, sy, value in zip(verts, sizes, row):
                c = (x & y).bit_count()
                k = index[(sx - c, sy - c, c)]
                if vec[k] is None:
                    vec[k] = value
                elif vec[k] != value:
                    return None
        parts.append(vec)
    return parts


@dataclass(frozen=True)
class OrbitClosure:
    """The unital algebra generated by invariant operators, in orbit coordinates."""

    D: int
    even: bool
    dim: int
    span: VectorSpan

    def contains_vector(self, vec: list[int]) -> bool:
        """Membership of an orbit vector indexed by ``orbits(D, even)``."""
        return self.span.contains_int(vec, None)

    def contains(self, matrix: ExactMatrix) -> bool:
        """Exact membership of a dense matrix; a matrix that is not constant
        on every pair orbit is not invariant, so it is not a member."""
        vec = orbit_vector(matrix, self.D, self.even)
        return vec is not None and self.span.contains_int(*vec)


def closure(gens: list[list[int]], D: int, even: bool = False) -> OrbitClosure:
    """Span-saturate the unital algebra generated by full orbit vectors,
    restricted to the even levels when even.

    As in ``span.algebra_closure``: seed the span with the identity and the
    generators, left-multiply each new basis element by every generator,
    and stop once the span holds every invariant operator.  Each product
    is stored without its content, which leaves the span unchanged.
    """
    seeds = [identity(D), *gens]
    if even:
        seeds = [restrict(v, D) for v in seeds]
    mults = [multiplier(g, D, even) for g in gens]
    size = len(mults[0])
    span = VectorSpan(size)
    product = lambda m, w: _strip_content(_apply(m, w))  # noqa: E731
    basis = _walk(seeds, mults, product, lambda v: span.add_int(v, None), size)
    return OrbitClosure(D, even, len(basis), span)


def _combine(*terms: tuple[int, list[int]]) -> list[int]:
    """The linear combination of orbit vectors given as (coefficient, vector)."""
    return [sum(s * v[k] for s, v in terms) for k in range(len(terms[0][1]))]


def _orbit_size(o: Orbit) -> int:
    """The number of vertex pairs in the orbit: D! / (a! b! c! e!)."""
    a, b, c, e = o
    return comb(a + b + c + e, a) * comb(b + c + e, b) * comb(c + e, c)


# The integer-scaled cube operators, in the order ``check_list`` returns them.
OPERATORS = (
    "E", "F", "H", "A2J", "A2Jbar", "2A2star",
    "E2", "F2", "2Casimir", "16A", "16B", "16C", "64Delta",
)

MODULE_CHECKS = 6  # check_list's first checks: the sl2 relations, E^2, F^2 and the Casimir
# The labels of Theorem 1.8's span identities in check_list: when all six
# hold, the pullbacks and the level-graph operators generate one algebra.
SPAN_IDENTITIES = (
    "pullback A = D/16 - 1/4 + (A2J + A2Jbar)/8", "pullback B = D/16 - 1/4 + A2star/8",
    "pullback C = D/16 - 1/4 + (A2J - A2Jbar)/8",
    "A2J = 2 - D/2 + 4(A + C)", "A2Jbar = 4(A - C)", "A2star = 2 - D/2 + 8B",
)


def check_list(
    D: int, E, F, H, A2J, A2Jbar, A2star2
) -> tuple[list[list[int]], tuple[CheckResult, ...]]:
    """The cube operators named in OPERATORS and their consistency checks.

    Takes full orbit vectors of E, F, H, A2J, A2Jbar and 2*A2star.  E2, F2,
    2*Casimir = 2(EF + FE) + H^2 and the pullbacks 16A = (E+F)^2 - 4,
    16B = H^2 - 4, 16C = -(E-F)^2 - 4 and 64*Delta = (H+2)F^2 - (H-2)E^2
    are orbit products.  Each identity is checked as an integer multiple of
    its residual; its residual count is the number of vertex pairs where
    the residual is nonzero, the sum of the orbit sizes over its nonzero
    orbit entries (the dense ``nonzero_count``).  The level-block check
    counts 0 or 1.  The sl2 relations make the cube an sl2-module, which
    ``decompose`` splits into copies of L_n.
    """
    orbs = orbits(D)
    one = identity(D)
    mul = lambda x, y: product(x, y, D)
    pairs = lambda ab: [int((a, b) == ab) for a, b, _c, _e in orbs]
    diagonal = lambda f: [f(c) * (a == b == 0) for a, b, c, _e in orbs]
    below, equal, above = pairs((0, 2)), pairs((1, 1)), pairs((2, 0))
    e2, f2, h2, ef, fe = mul(E, E), mul(F, F), mul(H, H), mul(E, F), mul(F, E)
    s, t = _combine((1, E), (1, F)), _combine((1, E), (-1, F))
    a16 = _combine((1, mul(s, s)), (-4, one))
    b16 = _combine((1, h2), (-4, one))
    c16 = _combine((-1, mul(t, t)), (-4, one))
    cas2 = _combine((2, ef), (2, fe), (1, h2))
    delta64 = _combine(
        (1, mul(_combine((1, H), (2, one)), f2)), (-1, mul(_combine((1, H), (-2, one)), e2))
    )
    ops = [E, F, H, A2J, A2Jbar, A2star2, e2, f2, cas2, a16, b16, c16, delta64]
    pull_a, pull_b, pull_c, span_a2j, span_a2jbar, span_a2star = SPAN_IDENTITIES
    residuals = (
        ("[H,E] = 2E", (1, mul(H, E)), (-1, mul(E, H)), (-2, E)),
        ("[H,F] = -2F", (1, mul(H, F)), (-1, mul(F, H)), (2, F)),
        ("[E,F] = H", (1, ef), (-1, fe), (-1, H)),
        ("E^2 = 2 * (distance-2 sum below)", (1, e2), (-2, below)),
        ("F^2 = 2 * (distance-2 sum above)", (1, f2), (-2, above)),
        ("Casimir = (D + (D-2|x|)^2/2) + 2 * (distance-2 sum on level)",
         (1, cas2), (-1, diagonal(lambda c: 2 * D + (D - 2 * c) ** 2)), (-4, equal)),
        ("A2J + A2Jbar = full distance-2 operator",
         (1, A2J), (1, A2Jbar), (-1, below), (-1, equal), (-1, above)),
        ("A2J = level-preserving distance-2 sum", (1, A2J), (-1, equal)),
        (pull_a, (1, a16), (4 - D, one), (-2, A2J), (-2, A2Jbar)),
        (pull_b, (1, b16), (4 - D, one), (-1, A2star2)),
        (pull_c, (1, c16), (4 - D, one), (-2, A2J), (2, A2Jbar)),
        (span_a2j, (4, A2J), (2 * D - 8, one), (-1, a16), (-1, c16)),
        (span_a2jbar, (4, A2Jbar), (-1, a16), (1, c16)),
        (span_a2star, (2, A2star2), (2 * D - 8, one), (-2, b16)),
        ("pullback B is the dual-distance diagonal closed form",
         (1, b16), (-1, diagonal(lambda c: (D - 2 * c) ** 2 - 4))),
    )
    sizes = [_orbit_size(o) for o in orbs]
    checks = []
    for label, *terms in residuals:
        count = sum(size for size, x in zip(sizes, _combine(*terms)) if x)
        checks.append(CheckResult(label, count == 0, count))
    # On a level (a = b) the subset graph joins the pairs with a = b = 1.
    blocks_ok = all(x == (a == 1) for (a, b, _c, _e), x in zip(orbs, A2J) if a == b)
    checks.append(
        CheckResult("A2J level blocks are subset-graph adjacencies", blocks_ok, int(not blocks_ok))
    )
    return ops, tuple(checks)


@lru_cache(maxsize=MAX_ORBIT_D)
def cube_build(D: int) -> tuple[tuple[tuple[int, ...], ...], tuple[CheckResult, ...]]:
    """``check_list`` on E, F, H, A2J, A2Jbar and 2*A2star built from their
    definitions, made once per D; every vector is a tuple, so the cached
    value is read-only."""
    orbs = orbits(D)
    ops, checks = check_list(
        D,
        [int(a == 0 and b == 1) for a, b, _c, _e in orbs],
        [int(a == 1 and b == 0) for a, b, _c, _e in orbs],
        [(D - 2 * c) * (a == b == 0) for a, b, c, _e in orbs],
        [int(a == b == 1) for a, b, _c, _e in orbs],
        [int({a, b} == {0, 2}) for a, b, _c, _e in orbs],
        [((D - 2 * c) ** 2 - D) * (a == b == 0) for a, b, c, _e in orbs],
    )
    return tuple(map(tuple, ops)), checks


def cube_operators(D: int) -> dict[str, tuple[int, ...]]:
    """The operators of ``cube_build`` by their OPERATORS names; raises if
    one of its checks fails."""
    ops, checks = cube_build(D)
    failed = [c.identity for c in checks if not c.passed]
    if failed:
        raise ArithmeticError(f"identity fails in orbit coordinates: {failed}")
    return dict(zip(OPERATORS, ops))

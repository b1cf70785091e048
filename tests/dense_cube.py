"""The D-cube's operators built from their definitions on dense 2^D x 2^D
matrices: the oracle of ``sl2.build_hypercube``, which expands the orbit
vectors of ``orbit.cube_operators`` instead.

Vertices are the subsets of {1..D} as bit masks in increasing order, as in
``sl2``.  E removes one element and F adds one, H is D - 2|x|, A2J and
A2Jbar are the distance-2 relation within a level and across two levels,
and A2star is the diagonal ((D - 2|x|)^2 - D) / 2.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from racahlab import sl2
from racahlab.matrix import ExactMatrix, _from_ints
from racahlab.sl2 import GraphOperators, Sl2Rep


def zero_one(cells, n: int) -> ExactMatrix:
    """The n x n 0/1 matrix with ones at the given positions."""
    rows = [[0] * n for _ in range(n)]
    for i, j in cells:
        rows[i][j] = 1
    return _from_ints(1, rows, None)


@lru_cache(maxsize=None)
def r2(D: int) -> frozenset[tuple[int, int]]:
    """The distance-2 relation: the vertex pairs x < y that differ in two elements."""
    size = 1 << D
    return frozenset(
        (x, y) for x in range(size) for y in range(x + 1, size) if (x ^ y).bit_count() == 2
    )


@lru_cache(maxsize=4)
def build(D: int) -> tuple[Sl2Rep, GraphOperators]:
    """The module and the level-graph operators from the subset relations."""
    n = 1 << D
    vertices = range(n)
    e_cells, f_cells = set(), set()
    for x in vertices:
        for bit in range(D):
            if x >> bit & 1:
                e_cells.add((x & ~(1 << bit), x))
            else:
                f_cells.add((x | (1 << bit), x))
    h = ExactMatrix.diagonal([D - 2 * x.bit_count() for x in vertices])
    rep = Sl2Rep(n, zero_one(e_cells, n), zero_one(f_cells, n), h)
    aj_cells, ajbar_cells = set(), set()
    for x, y in r2(D):
        cells = aj_cells if x.bit_count() == y.bit_count() else ajbar_cells
        cells.update(((x, y), (y, x)))
    a2star = ExactMatrix.diagonal([Fraction((D - 2 * x.bit_count()) ** 2 - D, 2) for x in vertices])
    return rep, GraphOperators(zero_one(aj_cells, n), zero_one(ajbar_cells, n), a2star)


def r2_split_operators(D: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """The distance-2 sums split by level movement: below, equal, above."""
    below, equal, above = set(), set(), set()
    for x, y in r2(D):
        for src, dst in ((x, y), (y, x)):
            ks, kd = src.bit_count(), dst.bit_count()
            cells = below if kd < ks else equal if kd == ks else above
            cells.add((dst, src))
    return tuple(zero_one(cells, 1 << D) for cells in (below, equal, above))


def johnson_adjacency(D: int, k: int) -> ExactMatrix:
    """Adjacency matrix of the level-k subset graph, on sorted k-subsets."""
    verts = sorted(sum(1 << (i - 1) for i in combo) for combo in combinations(range(1, D + 1), k))
    index = {v: pos for pos, v in enumerate(verts)}
    cells = {(index[v], index[w]) for v in verts for w in verts if (v ^ w).bit_count() == 2}
    return zero_one(cells, len(verts))


def forbid_dense_cube(monkeypatch) -> None:
    """Make every ``sl2.build_hypercube`` call fail: it expands each operator
    through ``sl2.dense``, which is looked up at call time."""

    def expand(vec, D, *args):
        raise AssertionError(f"dense cube build at D={D}")

    monkeypatch.setattr(sl2, "dense", expand)

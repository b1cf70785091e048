"""Concrete modules: the (n+1)-dimensional irreducibles, their even halves,
the hypercube module, the level-graph operators, and pullbacks along the
homomorphism from the Racah presentation.

Vertices of the D-cube are the subsets of {1..D} in binary-counter order
(subset s maps to the integer with bit i-1 set for each i in s).  All
operators are built from the distance relations and cross-checked against
the closed forms; any discrepancy raises at build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import ConfigError, DimensionMismatch
from .gaussian import GaussianRational, ONE, ZERO, gr
from .matrix import ExactMatrix, commutator
from .pbw import CheckResult
from .racah import RacahRep, ensure_verified

_QUARTER = GaussianRational(Fraction(1, 4))

MAX_DENSE_D = 12


@dataclass(frozen=True)
class Sl2Rep:
    """A finite-dimensional module given by its three generator matrices."""

    dim: int
    E: ExactMatrix
    F: ExactMatrix
    H: ExactMatrix
    labels: tuple[str, ...]

    def __post_init__(self):
        for name in ("E", "F", "H"):
            m = getattr(self, name)
            if not m.is_square or m.rows != self.dim:
                raise DimensionMismatch(f"operator {name} must be {self.dim}x{self.dim}")
        if len(self.labels) != self.dim:
            raise DimensionMismatch("label count must match dimension")


def relation_checks(rep: Sl2Rep) -> list[CheckResult]:
    """The three defining commutation relations, exact."""
    out = []
    for label, residual in (
        ("[H,E] = 2E", commutator(rep.H, rep.E) - rep.E * 2),
        ("[H,F] = -2F", commutator(rep.H, rep.F) + rep.F * 2),
        ("[E,F] = H", commutator(rep.E, rep.F) - rep.H),
    ):
        out.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    return out


def _require_relations(rep: Sl2Rep) -> Sl2Rep:
    bad = [c.identity for c in relation_checks(rep) if not c.passed]
    if bad:
        raise ArithmeticError(f"defining relations fail: {bad}")
    return rep


def casimir_matrix(rep: Sl2Rep) -> ExactMatrix:
    """The quadratic central element E F + F E + H^2/2 in this module."""
    half = GaussianRational(Fraction(1, 2))
    return rep.E * rep.F + rep.F * rep.E + (rep.H * rep.H) * half


def build_Ln(n: int) -> Sl2Rep:
    """The irreducible module of highest weight n on basis v_0..v_n."""
    if n < 0:
        raise ConfigError("the highest weight must be nonnegative")
    dim = n + 1
    e_rows = [[ZERO] * dim for _ in range(dim)]
    f_rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(1, dim):
        e_rows[i - 1][i] = gr(n - i + 1)
    for i in range(dim - 1):
        f_rows[i + 1][i] = gr(i + 1)
    rep = Sl2Rep(
        dim,
        ExactMatrix.from_rows(e_rows),
        ExactMatrix.from_rows(f_rows),
        ExactMatrix.diagonal([n - 2 * i for i in range(dim)]),
        tuple(f"v{i}" for i in range(dim)),
    )
    return _require_relations(rep)


# -- even halves ----------------------------------------------------------


@dataclass(frozen=True)
class EvenHalfModule:
    """Action of E^2, F^2, H and the central element on one parity half."""

    n: int
    parity: int
    dim: int
    E2: ExactMatrix
    F2: ExactMatrix
    H: ExactMatrix
    Lam: ExactMatrix
    labels: tuple[str, ...]
    indices: tuple[int, ...]


def half_coeffs(n: int, parity: int):
    """Closed forms of the parity half of L_n: its size, the coefficients
    i -> E^2 and i -> F^2 along its chain, and its top weight."""
    if parity == 0:
        size = n // 2 + 1
        e2_coeff = lambda i: (n - 2 * i + 1) * (n - 2 * i + 2)
        f2_coeff = lambda i: (2 * i + 1) * (2 * i + 2)
        top_weight = n
    else:
        size = (n - 1) // 2 + 1
        e2_coeff = lambda i: (n - 2 * i) * (n - 2 * i + 1)
        f2_coeff = lambda i: (2 * i + 2) * (2 * i + 3)
        top_weight = n - 2
    return size, e2_coeff, f2_coeff, top_weight


def _expected_half(n: int, parity: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Closed-form E^2, F^2, H actions on the parity half of L_n."""
    size, e2_coeff, f2_coeff, top_weight = half_coeffs(n, parity)
    e2 = [[ZERO] * size for _ in range(size)]
    f2 = [[ZERO] * size for _ in range(size)]
    for i in range(1, size):
        e2[i - 1][i] = gr(e2_coeff(i))
    for i in range(size - 1):
        f2[i + 1][i] = gr(f2_coeff(i))
    return (
        ExactMatrix.from_rows(e2),
        ExactMatrix.from_rows(f2),
        ExactMatrix.diagonal([top_weight - 4 * i for i in range(size)]),
    )


def even_halves(rep: Sl2Rep) -> tuple[EvenHalfModule, EvenHalfModule | None]:
    """Split a standard-basis irreducible into its two parity halves.

    Basis vectors are grouped by weight residue mod 4; the extracted actions
    must match the closed forms exactly, else the build fails.  The second
    half is None when n = 0.
    """
    n = rep.dim - 1
    expected_h = ExactMatrix.diagonal([n - 2 * i for i in range(rep.dim)])
    if rep.H != expected_h:
        raise ValueError("even halves require the standard weight-ordered basis")
    e2 = rep.E * rep.E
    f2 = rep.F * rep.F
    lam = casimir_matrix(rep)
    halves: list[EvenHalfModule] = []
    for parity in (0, 1):
        indices = tuple(i for i in range(rep.dim) if i % 2 == parity)
        if not indices:
            continue
        sub = lambda m: m.submatrix(indices, indices)
        half = EvenHalfModule(
            n,
            parity,
            len(indices),
            sub(e2),
            sub(f2),
            sub(rep.H),
            sub(lam),
            tuple(f"u{parity}_{k}" for k in range(len(indices))),
            indices,
        )
        exp_e2, exp_f2, exp_h = _expected_half(n, parity)
        if half.E2 != exp_e2 or half.F2 != exp_f2 or half.H != exp_h:
            raise ArithmeticError(f"half (n={n}, parity={parity}) deviates from closed form")
        scalar = half.Lam.scalar_value()
        if scalar != gr(Fraction(n * (n + 2), 2)):
            raise ArithmeticError("central element is not the expected scalar on the half")
        halves.append(half)
    return halves[0], (halves[1] if len(halves) > 1 else None)


# -- pullbacks ------------------------------------------------------------


@lru_cache(maxsize=32)
def sharp_pullback(rep: Sl2Rep) -> RacahRep:
    """Evaluate the homomorphism images in the module; presentation-checked."""
    n = rep.dim
    two = ExactMatrix.scalar_matrix(n, 2)
    s = rep.E + rep.F
    a = (s - two) * (s + two) * GaussianRational(Fraction(1, 16))
    b = (rep.H - two) * (rep.H + two) * GaussianRational(Fraction(1, 16))
    t = rep.E * GaussianRational(0, 1) + rep.F * GaussianRational(0, -1)
    c = (t - two) * (t + two) * GaussianRational(Fraction(1, 16))
    e2 = rep.E * rep.E
    f2 = rep.F * rep.F
    delta = ((rep.H + two) * f2 - (rep.H - two) * e2) * GaussianRational(Fraction(1, 64))
    return ensure_verified(RacahRep(n, a, b, c, delta))


def even_pullback(
    e2: ExactMatrix, f2: ExactMatrix, h: ExactMatrix, lam: ExactMatrix
) -> RacahRep:
    """Pullback expressed through E^2, F^2, H and the central element."""
    n = e2.rows
    ident = ExactMatrix.identity(n)
    sixteenth = GaussianRational(Fraction(1, 16))
    h2 = h * h
    a = (lam + e2 + f2) * sixteenth - h2 * GaussianRational(Fraction(1, 32)) - ident * _QUARTER
    b = h2 * sixteenth - ident * _QUARTER
    c = (lam - e2 - f2) * sixteenth - h2 * GaussianRational(Fraction(1, 32)) - ident * _QUARTER
    two = ExactMatrix.scalar_matrix(n, 2)
    delta = (f2 * (h - two) - e2 * (h + two)) * GaussianRational(Fraction(1, 64))
    return ensure_verified(RacahRep(n, a, b, c, delta))


def half_pullback(half: EvenHalfModule) -> RacahRep:
    return even_pullback(half.E2, half.F2, half.H, half.Lam)


# -- the hypercube --------------------------------------------------------


@dataclass(frozen=True)
class HypercubeSpace:
    """Vertex bookkeeping: subsets in binary order plus distance relations."""

    D: int
    vertices: tuple[int, ...]
    labels: tuple[str, ...]
    r1: frozenset[tuple[int, int]]
    r2: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class GraphOperators:
    """Level-preserving and level-crossing halves of the second distance
    operator, and the second dual distance operator."""

    A2J: ExactMatrix
    A2Jbar: ExactMatrix
    A2star: ExactMatrix


def _subset_label(mask: int, D: int) -> str:
    elems = [str(i + 1) for i in range(D) if mask >> i & 1]
    return "{" + ",".join(elems) + "}"


@lru_cache(maxsize=None)
def hypercube_space(D: int) -> HypercubeSpace:
    if D < 2:
        raise ConfigError("the cube dimension must be at least 2")
    size = 1 << D
    vertices = tuple(range(size))
    labels = tuple(_subset_label(v, D) for v in vertices)
    r1 = set()
    r2 = set()
    for x in vertices:
        for y in range(x + 1, size):
            dist = (x ^ y).bit_count()
            if dist == 1:
                r1.add((x, y))
            elif dist == 2:
                r2.add((x, y))
    return HypercubeSpace(D, vertices, labels, frozenset(r1), frozenset(r2))


def _rows_to_matrix(cells: dict[tuple[int, int], GaussianRational], n: int) -> ExactMatrix:
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), v in cells.items():
        rows[i][j] = v
    return ExactMatrix.from_rows(rows)


@lru_cache(maxsize=4)
def build_hypercube(D: int, validate: bool | None = None) -> tuple[Sl2Rep, GraphOperators]:
    """The module on the cube's vertex set plus the level-graph operators.

    Dense construction; D is capped at MAX_DENSE_D.  With validate enabled
    (default for D <= 8) the dual-route consistency checks run at build time.
    """
    if D > MAX_DENSE_D:
        raise ConfigError(f"dense construction is capped at D = {MAX_DENSE_D}")
    if validate is None:
        validate = D <= 8
    space = hypercube_space(D)
    n = 1 << D
    e_cells: dict[tuple[int, int], GaussianRational] = {}
    f_cells: dict[tuple[int, int], GaussianRational] = {}
    for x in space.vertices:
        for bit in range(D):
            if x >> bit & 1:
                e_cells[(x & ~(1 << bit), x)] = ONE
            else:
                f_cells[(x | (1 << bit), x)] = ONE
    h = ExactMatrix.diagonal([D - 2 * x.bit_count() for x in space.vertices])
    rep = Sl2Rep(
        n,
        _rows_to_matrix(e_cells, n),
        _rows_to_matrix(f_cells, n),
        h,
        space.labels,
    )
    aj_cells: dict[tuple[int, int], GaussianRational] = {}
    ajbar_cells: dict[tuple[int, int], GaussianRational] = {}
    for x, y in space.r2:
        if x.bit_count() == y.bit_count():
            aj_cells[(x, y)] = ONE
            aj_cells[(y, x)] = ONE
        else:
            ajbar_cells[(x, y)] = ONE
            ajbar_cells[(y, x)] = ONE
    a2star = ExactMatrix.diagonal(
        [Fraction((D - 2 * x.bit_count()) ** 2 - D, 2) for x in space.vertices]
    )
    ops = GraphOperators(
        _rows_to_matrix(aj_cells, n), _rows_to_matrix(ajbar_cells, n), a2star
    )
    if validate:
        problems = [c.identity for c in hypercube_checks(rep, ops, space) if not c.passed]
        if problems:
            raise ArithmeticError(f"hypercube build inconsistency: {problems}")
    else:
        _require_relations(rep)
    return rep, ops


def _r2_split_operators(space: HypercubeSpace, n: int):
    """R2 sums split by level movement: below, equal, above."""
    below: dict[tuple[int, int], GaussianRational] = {}
    equal: dict[tuple[int, int], GaussianRational] = {}
    above: dict[tuple[int, int], GaussianRational] = {}
    for x, y in space.r2:
        for src, dst in ((x, y), (y, x)):
            ks, kd = src.bit_count(), dst.bit_count()
            if kd < ks:
                below[(dst, src)] = ONE
            elif kd == ks:
                equal[(dst, src)] = ONE
            else:
                above[(dst, src)] = ONE
    return (
        _rows_to_matrix(below, n),
        _rows_to_matrix(equal, n),
        _rows_to_matrix(above, n),
    )


def johnson_adjacency(D: int, k: int) -> ExactMatrix:
    """Adjacency matrix of the level-k subset graph, on sorted k-subsets."""
    verts = [sum(1 << (i - 1) for i in combo) for combo in combinations(range(1, D + 1), k)]
    verts.sort()
    index = {v: pos for pos, v in enumerate(verts)}
    m = len(verts)
    rows = [[ZERO] * m for _ in range(m)]
    for v in verts:
        for w in verts:
            if (v ^ w).bit_count() == 2:
                rows[index[v]][index[w]] = ONE
    return ExactMatrix.from_rows(rows)


def hypercube_checks(
    rep: Sl2Rep, ops: GraphOperators, space: HypercubeSpace
) -> list[CheckResult]:
    """Dual-route consistency checks for the cube build."""
    D = space.D
    n = rep.dim
    checks = list(relation_checks(rep))
    below, equal, above = _r2_split_operators(space, n)
    e2 = rep.E * rep.E
    f2 = rep.F * rep.F
    lam = casimir_matrix(rep)
    lam_diag = ExactMatrix.diagonal(
        [
            Fraction(2 * D) / 2 + Fraction((D - 2 * x.bit_count()) ** 2, 2)
            for x in space.vertices
        ]
    )
    for label, residual in (
        ("E^2 = 2 * (distance-2 sum below)", e2 - below * 2),
        ("F^2 = 2 * (distance-2 sum above)", f2 - above * 2),
        ("Casimir = (D + (D-2|x|)^2/2) + 2 * (distance-2 sum on level)", lam - lam_diag - equal * 2),
        ("A2J + A2Jbar = full distance-2 operator", ops.A2J + ops.A2Jbar - below - equal - above),
        ("A2J = level-preserving distance-2 sum", ops.A2J - equal),
    ):
        checks.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    pull = sharp_pullback(rep)
    quarter_term = ExactMatrix.scalar_matrix(n, GaussianRational(Fraction(D, 16) - Fraction(1, 4)))
    eighth = GaussianRational(Fraction(1, 8))
    for label, residual in (
        ("pullback A = D/16 - 1/4 + (A2J + A2Jbar)/8", pull.A - quarter_term - (ops.A2J + ops.A2Jbar) * eighth),
        ("pullback B = D/16 - 1/4 + A2star/8", pull.B - quarter_term - ops.A2star * eighth),
        ("pullback C = D/16 - 1/4 + (A2J - A2Jbar)/8", pull.C - quarter_term - (ops.A2J - ops.A2Jbar) * eighth),
    ):
        checks.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    half_d = ExactMatrix.scalar_matrix(n, GaussianRational(2 - Fraction(D, 2)))
    for label, residual in (
        ("A2J = 2 - D/2 + 4(A + C)", ops.A2J - half_d - (pull.A + pull.C) * 4),
        ("A2Jbar = 4(A - C)", ops.A2Jbar - (pull.A - pull.C) * 4),
        ("A2star = 2 - D/2 + 8B", ops.A2star - half_d - pull.B * 8),
    ):
        checks.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    b_closed = ExactMatrix.diagonal(
        [
            Fraction((D - 2 * x.bit_count()) ** 2, 16) - Fraction(1, 4)
            for x in space.vertices
        ]
    )
    residual = pull.B - b_closed
    checks.append(
        CheckResult(
            "pullback B is the dual-distance diagonal closed form",
            residual.is_zero(),
            residual.nonzero_count(),
        )
    )
    # Level blocks of the level-preserving operator are the subset-graph adjacencies.
    blocks_ok = True
    for k in range(D + 1):
        idx = [v for v in space.vertices if v.bit_count() == k]
        if not idx:
            continue
        block = ops.A2J.submatrix(idx, idx)
        if block != johnson_adjacency(D, k):
            blocks_ok = False
    checks.append(CheckResult("A2J level blocks are subset-graph adjacencies", blocks_ok, 0 if blocks_ok else 1))
    return checks


def verify_hypercube(D: int) -> list[CheckResult]:
    rep, ops = build_hypercube(D, validate=False)
    return hypercube_checks(rep, ops, hypercube_space(D))


# -- the halved cube -------------------------------------------------------


@dataclass(frozen=True)
class HalvedCube:
    """Even-level restriction with both generating operator families."""

    D: int
    dim: int
    indices: tuple[int, ...]
    labels: tuple[str, ...]
    te_ops: dict[str, ExactMatrix]
    re_ops: dict[str, ExactMatrix]


def _restrict(m: ExactMatrix, indices: tuple[int, ...], name: str) -> ExactMatrix:
    inside = set(indices)
    for i, row in enumerate(m.sparse_rows()):
        if i in inside:
            continue
        for j, _val in row:
            if j in inside:
                raise ArithmeticError(f"{name} does not preserve the subspace")
    return m.submatrix(indices, indices)


@lru_cache(maxsize=4)
def halved_cube(D: int) -> HalvedCube:
    """Restrict the cube to even levels; both operator families restrict."""
    rep, _ops = build_hypercube(D)
    space = hypercube_space(D)
    indices = tuple(v for v in space.vertices if v.bit_count() % 2 == 0)
    labels = tuple(space.labels[v] for v in indices)
    e2 = rep.E * rep.E
    f2 = rep.F * rep.F
    lam = casimir_matrix(rep)
    pull = sharp_pullback(rep)
    te = {
        "E2": _restrict(e2, indices, "E^2"),
        "F2": _restrict(f2, indices, "F^2"),
        "H": _restrict(rep.H, indices, "H"),
        "Casimir": _restrict(lam, indices, "Casimir"),
    }
    re_ops = {
        "A": _restrict(pull.A, indices, "A"),
        "B": _restrict(pull.B, indices, "B"),
        "C": _restrict(pull.C, indices, "C"),
        "Delta": _restrict(pull.Delta, indices, "Delta"),
    }
    return HalvedCube(D, len(indices), indices, labels, te, re_ops)

"""Concrete modules: the (n+1)-dimensional irreducibles, their even halves,
the hypercube module, the level-graph operators, and pullbacks along the
homomorphism from the Racah presentation.

Vertices of the D-cube are the subsets of {1..D} in binary-counter order
(subset s maps to the integer with bit i-1 set for each i in s).  The dense
cube, for D <= MAX_DENSE_D, expands the orbit vectors of
``orbit.cube_operators``: the cube's operators are defined, and their
identities checked, in orbit coordinates only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import ConfigError, DimensionMismatch, RelationFailure
from .gaussian import GaussianRational, gr
from .matrix import ExactMatrix, _from_ints, commutator
from .orbit import check_list, cube_operators, dense, orbit_vector
from .pbw import CheckResult, casimir_of, sharp_of
from .racah import RacahRep, ensure_verified

_QUARTER = GaussianRational(Fraction(1, 4))

MAX_DENSE_D = 8


@dataclass(frozen=True)
class Sl2Rep:
    """A finite-dimensional module given by its three generator matrices."""

    dim: int
    E: ExactMatrix
    F: ExactMatrix
    H: ExactMatrix

    def __post_init__(self):
        for name in ("E", "F", "H"):
            m = getattr(self, name)
            if not m.is_square or m.rows != self.dim:
                raise DimensionMismatch(f"operator {name} must be {self.dim}x{self.dim}")


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
    """The quadratic central element in this module (``pbw.casimir_of``)."""
    return casimir_of(rep.E, rep.F, rep.H)


class Ladder(NamedTuple):
    """A chain v_0..v_{size-1}: the raising operator sends v_i to
    raising(i) v_{i-1}, the lowering operator sends v_i to lowering(i) v_{i+1},
    and v_i has weight top - step*i."""

    size: int
    raising: Callable[[int], int]
    lowering: Callable[[int], int]
    top: int
    step: int

    def weights(self) -> list[int]:
        return [self.top - self.step * i for i in range(self.size)]

    def matrices(self) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
        """The raising, lowering and weight matrices on v_0..v_{size-1}."""
        cells = range(self.size)
        up = [[self.raising(j) if j == i + 1 else 0 for j in cells] for i in cells]
        down = [[self.lowering(j) if i == j + 1 else 0 for j in cells] for i in cells]
        return (
            _from_ints(1, up, None), _from_ints(1, down, None), ExactMatrix.diagonal(self.weights())
        )


def ln_coeffs(n: int) -> Ladder:
    """L_n under E, F and H: E v_i = (n-i+1) v_{i-1}, F v_i = (i+1) v_{i+1}."""
    return Ladder(n + 1, lambda i: n - i + 1, lambda i: i + 1, n, 2)


def casimir_value(n: int) -> GaussianRational:
    """The scalar n(n+2)/2 by which the quadratic central element acts on L_n."""
    return gr(Fraction(n * (n + 2), 2))


def build_Ln(n: int) -> Sl2Rep:
    """The irreducible module of highest weight n on basis v_0..v_n."""
    if n < 0:
        raise ConfigError("the highest weight must be nonnegative")
    return _require_relations(Sl2Rep(n + 1, *ln_coeffs(n).matrices()))


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
    indices: tuple[int, ...]


def half_coeffs(n: int, parity: int) -> Ladder:
    """The parity half of L_n under E^2, F^2 and H, on its basis vectors
    v_parity, v_{parity+2}, ..."""
    m = n - parity
    return Ladder(
        m // 2 + 1,
        lambda i: (m - 2 * i + 1) * (m - 2 * i + 2),
        lambda i: (2 * i + parity + 1) * (2 * i + parity + 2),
        n - 2 * parity,
        4,
    )


def even_halves(rep: Sl2Rep) -> tuple[EvenHalfModule, EvenHalfModule | None]:
    """Split a standard-basis irreducible into its two parity halves.

    Basis vectors are grouped by weight residue mod 4; the extracted actions
    must match the closed forms exactly, else the build fails.  The second
    half is None when n = 0.
    """
    n = rep.dim - 1
    if rep.H != ExactMatrix.diagonal(ln_coeffs(n).weights()):
        raise ValueError("even halves require the standard weight-ordered basis")
    e2 = rep.E * rep.E
    f2 = rep.F * rep.F
    lam = casimir_matrix(rep)
    halves: list[EvenHalfModule] = []
    for parity in (0, 1):
        indices = tuple(range(parity, rep.dim, 2))
        if not indices:
            continue
        sub = lambda m: m.submatrix(indices, indices)
        half = EvenHalfModule(n, parity, len(indices), *map(sub, (e2, f2, rep.H, lam)), indices)
        if (half.E2, half.F2, half.H) != half_coeffs(n, parity).matrices():
            raise ArithmeticError(f"half (n={n}, parity={parity}) deviates from closed form")
        if half.Lam.scalar_value() != casimir_value(n):
            raise ArithmeticError("central element is not the expected scalar on the half")
        halves.append(half)
    return halves[0], (halves[1] if len(halves) > 1 else None)


# -- pullbacks ------------------------------------------------------------


@lru_cache(maxsize=32)
def sharp_pullback(rep: Sl2Rep) -> RacahRep:
    """Evaluate the homomorphism images in the module; presentation-checked."""
    images = sharp_of(rep.E, rep.F, rep.H, ExactMatrix.scalar_matrix(rep.dim, 2))
    return ensure_verified(RacahRep(rep.dim, *images))


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
    """Vertex bookkeeping: the subsets in binary order."""

    D: int
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class GraphOperators:
    """Level-preserving and level-crossing halves of the second distance
    operator, and the second dual distance operator."""

    A2J: ExactMatrix
    A2Jbar: ExactMatrix
    A2star: ExactMatrix


@lru_cache(maxsize=None)
def hypercube_space(D: int) -> HypercubeSpace:
    """The vertices of the dense cube, for 2 <= D <= MAX_DENSE_D."""
    if D < 2:
        raise ConfigError("the cube dimension must be at least 2")
    if D > MAX_DENSE_D:
        raise ConfigError(f"dense construction is capped at D = {MAX_DENSE_D}")
    return HypercubeSpace(D, tuple(range(1 << D)))


def build_hypercube(D: int) -> tuple[Sl2Rep, GraphOperators]:
    """The module on the cube's vertex set plus the level-graph operators:
    the orbit vectors of ``orbit.cube_operators`` expanded to dense matrices,
    A2star being 2A2star over 2.

    D is capped at MAX_DENSE_D (``hypercube_space``), since every matrix is
    stored dense.  Raises if one of the cube's checks fails.
    """
    hypercube_space(D)  # raises outside 2..MAX_DENSE_D
    ops = cube_operators(D)
    E, F, H, A2J, A2Jbar = (dense(ops[k], D) for k in ("E", "F", "H", "A2J", "A2Jbar"))
    return Sl2Rep(1 << D, E, F, H), GraphOperators(A2J, A2Jbar, dense(ops["2A2star"], D, 2))


def hypercube_checks(
    rep: Sl2Rep, ops: GraphOperators, space: HypercubeSpace
) -> list[CheckResult]:
    """The cube's consistency checks on dense operators: ``orbit.check_list``
    on the orbit vectors of E, F, H, A2J, A2Jbar and 2*A2star.

    Raises RelationFailure if one of them is not S_D-invariant or not an
    integer matrix, since only such operators have integer orbit vectors.
    """
    vectors = []
    for name, matrix, scale in (
        ("E", rep.E, 1), ("F", rep.F, 1), ("H", rep.H, 1),
        ("A2J", ops.A2J, 1), ("A2Jbar", ops.A2Jbar, 1), ("2*A2star", ops.A2star, 2),
    ):
        vec = orbit_vector(matrix, space.D)
        if vec is None or vec[1] is not None or any(scale * x % matrix.den for x in vec[0]):
            raise RelationFailure(f"{name} is not an S_D-invariant integer operator")
        vectors.append([scale * x // matrix.den for x in vec[0]])
    return list(check_list(space.D, *vectors)[1])


# -- the halved cube -------------------------------------------------------


@dataclass(frozen=True)
class HalvedCube:
    """Even-level restriction with both generating operator families."""

    D: int
    dim: int
    indices: tuple[int, ...]
    te_ops: dict[str, ExactMatrix]
    re_ops: dict[str, ExactMatrix]


def _restrict(m: ExactMatrix, indices: tuple[int, ...], name: str) -> ExactMatrix:
    inside = set(indices)
    outside = [i for i in range(m.rows) if i not in inside]
    if outside and not m.submatrix(outside, indices).is_zero():
        raise ArithmeticError(f"{name} does not preserve the subspace")
    return m.submatrix(indices, indices)


@lru_cache(maxsize=4)
def halved_cube(D: int) -> HalvedCube:
    """Restrict the cube to even levels; both operator families restrict."""
    rep, _ops = build_hypercube(D)
    space = hypercube_space(D)
    indices = tuple(v for v in space.vertices if v.bit_count() % 2 == 0)
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
    return HalvedCube(D, len(indices), indices, te, re_ops)

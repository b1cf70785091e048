"""The bidiagonal (d+1)-dimensional module family and its classification data.

For parameters (a, b, c) and size d+1 the distinguished generator acts lower
bidiagonally with diagonal theta_i = (a + d/2 - i)(a + d/2 - i + 1) and unit
subdiagonal; its partner acts upper bidiagonally with diagonal built from b
and superdiagonal phi_i.  The third generator is determined by the central
sum, and the bracket generator by half the commutator.  Closed forms for
central values, traces, irreducibility, minimal polynomials, the
diagonalizability window and the Leonard-triple window all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError, NotIrreducible
from .gaussian import GaussianRational, gaussian_sqrt, gr
from .matrix import ExactMatrix, commutator, minimal_polynomial
from .polynomial import Poly
from .racah import RacahRep, ensure_verified
from .span import algebra_closure

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class RdParams:
    """Parameters of one bidiagonal module: three scalars and a size d+1."""

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", gr(self.a))
        object.__setattr__(self, "b", gr(self.b))
        object.__setattr__(self, "c", gr(self.c))
        if self.d < 0:
            raise ConfigError("d must be nonnegative")

    def label(self) -> str:
        return (
            f"R_{self.d}({self.a.token()},{self.b.token()},{self.c.token()})"
        )


def _eigen_sequence(param: GaussianRational, d: int) -> list[GaussianRational]:
    half_d = GaussianRational(Fraction(d, 2))
    out = []
    for i in range(d + 1):
        base = param + half_d - i
        out.append(base * (base + 1))
    return out


def theta_list(p: RdParams) -> list[GaussianRational]:
    return _eigen_sequence(p.a, p.d)


def theta_star_list(p: RdParams) -> list[GaussianRational]:
    return _eigen_sequence(p.b, p.d)


def theta_eps_list(p: RdParams) -> list[GaussianRational]:
    return _eigen_sequence(p.c, p.d)


def leonard_hints(p: RdParams) -> tuple[list[GaussianRational], ...]:
    """The distinct eigenvalues of A, B and C in first-seen order."""
    return tuple(
        list(dict.fromkeys(seq))
        for seq in (theta_list(p), theta_star_list(p), theta_eps_list(p))
    )


def phi_list(p: RdParams) -> list[GaussianRational]:
    """Superdiagonal entries phi_1 .. phi_d."""
    a, b, c, d = p.a, p.b, p.c, p.d
    half_d = GaussianRational(Fraction(d, 2))
    out = []
    for i in range(1, d + 1):
        out.append(
            gr(i)
            * gr(i - d - 1)
            * (a + b + c + half_d - i + 2)
            * (a + b - c + half_d - i + 1)
        )
    return out


def central_scalars(p: RdParams) -> dict[str, GaussianRational]:
    """Closed forms for the four central values."""
    a, b, c = p.a, p.b, p.c
    half_d = GaussianRational(Fraction(p.d, 2))
    return {
        "alpha": (c - b) * (c + b + 1) * (a - half_d) * (a + half_d + 1),
        "beta": (a - c) * (a + c + 1) * (b - half_d) * (b + half_d + 1),
        "gamma": (b - a) * (b + a + 1) * (c - half_d) * (c + half_d + 1),
        "delta": half_d * (half_d + 1) + a * (a + 1) + b * (b + 1) + c * (c + 1),
    }


def construct(p: RdParams) -> RacahRep:
    """Build the verified operator quadruple for the given parameters."""
    n = p.d + 1
    theta = theta_list(p)
    theta_star = theta_star_list(p)
    phi = phi_list(p)
    a_rows = [
        [
            theta[i] if i == j else (gr(1) if i == j + 1 else gr(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    b_rows = [
        [
            theta_star[i] if i == j else (phi[j - 1] if j == i + 1 else gr(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    a_mat = ExactMatrix.from_rows(a_rows)
    b_mat = ExactMatrix.from_rows(b_rows)
    delta_scalar = central_scalars(p)["delta"]
    c_mat = ExactMatrix.scalar_matrix(n, delta_scalar) - a_mat - b_mat
    bracket = commutator(a_mat, b_mat) * GaussianRational(_HALF)
    return ensure_verified(RacahRep(n, a_mat, b_mat, c_mat, bracket))


# -- irreducibility ------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityWitness:
    """The four linear forms against the forbidden half-integer set."""

    irreducible: bool
    forms: tuple[tuple[str, GaussianRational], ...]
    forbidden: tuple[GaussianRational, ...]
    hits: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.irreducible


def is_irreducible(p: RdParams) -> IrreducibilityWitness:
    """Evaluate the linear-form criterion for irreducibility."""
    a, b, c, d = p.a, p.b, p.c, p.d
    forms = (
        ("a+b+c+1", a + b + c + 1),
        ("-a+b+c", -a + b + c),
        ("a-b+c", a - b + c),
        ("a+b-c", a + b - c),
    )
    forbidden = tuple(
        GaussianRational(Fraction(d, 2) - i) for i in range(1, d + 1)
    )
    forbidden_set = set(forbidden)
    hits = tuple(name for name, value in forms if value in forbidden_set)
    return IrreducibilityWitness(not hits, forms, forbidden, hits)


def burnside_irreducible(rep: RacahRep) -> bool:
    """Independent oracle: the generated algebra is the full matrix algebra."""
    closure = algebra_closure([rep.A, rep.B, rep.C])
    return closure.dim == rep.dim * rep.dim


# -- isomorphism classes -----------------------------------------------------


@dataclass(frozen=True)
class IsoClass:
    """Trace data determining an irreducible module up to isomorphism.

    Stores d and the three values a(a+1), b(b+1), c(c+1); parameter triples
    related by the substitution a -> -1-a give the same class.
    """

    d: int
    sA: GaussianRational
    sB: GaussianRational
    sC: GaussianRational

    def sort_key(self):
        return (self.d, self.sA.sort_key(), self.sB.sort_key(), self.sC.sort_key())

    @property
    def dim(self) -> int:
        return self.d + 1

    def label(self) -> str:
        parts = []
        for s in (self.sA, self.sB, self.sC):
            root = recover_parameter(s)
            parts.append(root.token() if root is not None else f"s={s.token()}")
        return f"R_{self.d}({','.join(parts)})"


def recover_parameter(s: GaussianRational) -> GaussianRational | None:
    """A parameter t with t(t+1) = s, canonically chosen, if one exists.

    Of the two roots t and -1-t the one with lexicographically larger
    (re, im) is returned.
    """
    disc = gr(1) + s * 4
    root = gaussian_sqrt(disc)
    if root is None:
        return None
    t1 = (root - 1) / 2
    t2 = (-root - 1) / 2
    return t1 if t1.sort_key() >= t2.sort_key() else t2


def iso_class_of(p: RdParams) -> IsoClass:
    """The class of the parameter triple, from the closed trace forms."""
    return IsoClass(
        p.d,
        p.a * (p.a + 1),
        p.b * (p.b + 1),
        p.c * (p.c + 1),
    )


def iso_class_from_traces(
    d: int,
    trace_a: GaussianRational,
    trace_b: GaussianRational,
    trace_c: GaussianRational,
) -> IsoClass:
    shift = GaussianRational(Fraction(d * (d + 2), 12))
    n = d + 1
    return IsoClass(
        d,
        trace_a / n - shift,
        trace_b / n - shift,
        trace_c / n - shift,
    )


def iso_class(rep: RacahRep, d: int, burnside_check: bool | None = None) -> IsoClass:
    """Class of an irreducible quadruple of size d+1, from operator traces.

    For d <= 6 irreducibility is certified by the closure oracle unless
    explicitly disabled; for larger d the caller asserts it.
    """
    if rep.dim != d + 1:
        raise ValueError(f"operator size {rep.dim} does not match d={d}")
    if burnside_check is None:
        burnside_check = d <= 6
    if burnside_check and not burnside_irreducible(rep):
        raise NotIrreducible("closure oracle says the module is reducible")
    return iso_class_from_traces(d, rep.A.trace(), rep.B.trace(), rep.C.trace())


# -- minimal polynomials, diagonalizability, Leonard window --------------------


def min_polys(p: RdParams) -> tuple[Poly, Poly, Poly]:
    """Minimal polynomials of the three generators on an irreducible module.

    Products run over the full eigenvalue sequences, repeats included; the
    result is cross-checked against the matrix minimal-polynomial oracle.
    """
    if not is_irreducible(p):
        raise NotIrreducible(p.label())
    polys = tuple(
        Poly.from_roots(seq)
        for seq in (theta_list(p), theta_star_list(p), theta_eps_list(p))
    )
    rep = construct(p)
    for poly, op in zip(polys, (rep.A, rep.B, rep.C)):
        if minimal_polynomial(op) != poly:
            raise ArithmeticError(
                f"closed-form minimal polynomial disagrees with the oracle for {p.label()}"
            )
    return polys


@lru_cache(maxsize=None)
def _forbidden_half_integers(d: int) -> tuple[GaussianRational, ...]:
    return tuple(
        GaussianRational(Fraction(i - d - 1, 2)) for i in range(1, 2 * d)
    )


def parameter_diagonalizable(param: GaussianRational, d: int) -> bool:
    """The distinguished generator with this parameter is diagonalizable."""
    return param not in set(_forbidden_half_integers(d))


def leonard_criterion(p: RdParams) -> bool:
    """Parameter window in which the three generators form a Leonard triple."""
    if not is_irreducible(p):
        raise NotIrreducible(p.label())
    return all(
        parameter_diagonalizable(param, p.d) for param in (p.a, p.b, p.c)
    )

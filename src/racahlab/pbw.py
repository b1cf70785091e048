"""Symbolic enveloping-algebra elements in normal-ordered form.

An element is a finitely supported map from exponent triples ``(e, f, h)``
to Gaussian-rational coefficients, standing for the sum of the normal-ordered
monomials ``E^e F^f H^h``.  Products are straightened recursively with
memoized monomial tables, using the defining commutation rules

    [H, E] = 2E,    [H, F] = -2F,    [E, F] = H.

The module also carries the quadratic central element, the homomorphism from
the four-generator Racah presentation into this algebra, the order-6 dihedral
symmetry action, and the symbolic identity suites built on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .gaussian import GaussianRational, I, ONE, ZERO, gr

Triple = tuple[int, int, int]


class PBWElement:
    """A normal-ordered element: map (e, f, h) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Triple, GaussianRational] | None = None):
        clean: dict[Triple, GaussianRational] = {}
        if terms:
            for key, val in terms.items():
                if val:
                    clean[key] = val
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PBWElement is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "PBWElement":
        return cls()

    @classmethod
    def monomial(cls, e: int, f: int, h: int, coeff=1) -> "PBWElement":
        return cls({(e, f, h): gr(coeff)})

    @classmethod
    def scalar(cls, value) -> "PBWElement":
        return cls({(0, 0, 0): gr(value)})

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, val in other.terms.items():
            cur = out.get(key)
            out[key] = val if cur is None else cur + val
        return PBWElement(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return PBWElement({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = gr(other)
            return PBWElement({k: v * c for k, v in self.terms.items()})
        if not isinstance(other, PBWElement):
            return NotImplemented
        out: dict[Triple, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for mono, coeff in _mono_product(m1, m2):
                    add = c12 * coeff
                    cur = out.get(mono)
                    out[mono] = add if cur is None else cur + add
        return PBWElement(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        return self * (ONE / gr(other))

    def __pow__(self, n: int) -> "PBWElement":
        result = PBWElement.scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def coefficient(self, e: int, f: int, h: int) -> GaussianRational:
        return self.terms.get((e, f, h), ZERO)

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_even(self) -> bool:
        """True iff every monomial has even degree e - f."""
        return all((e - f) % 2 == 0 for (e, f, _h) in self.terms)

    def graded_components(self) -> list["GradedComponent"]:
        """Partition by degree e - f, ascending; concatenation reproduces self."""
        buckets: dict[int, dict[Triple, GaussianRational]] = {}
        for (e, f, h), c in self.terms.items():
            buckets.setdefault(e - f, {})[(e, f, h)] = c
        return [
            GradedComponent(degree, PBWElement(buckets[degree]))
            for degree in sorted(buckets)
        ]

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (e, f, h) in sorted(self.terms, key=lambda t: (t[0] + t[1] + t[2], t)):
            c = self.terms[(e, f, h)]
            word = "".join(
                sym * k for sym, k in (("E", e), ("F", f), ("H", h))
            )
            parts.append(f"({c.token()})*{word or '1'}")
        return " + ".join(parts)


@dataclass(frozen=True)
class GradedComponent:
    """A homogeneous piece: every monomial satisfies e - f == degree."""

    degree: int
    element: PBWElement


def _coerce(value):
    if isinstance(value, PBWElement):
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return PBWElement.scalar(value)
    return NotImplemented


# -- straightening tables ---------------------------------------------------


@lru_cache(maxsize=None)
def _h_shift_pow(a: int, m: int) -> tuple[int, ...]:
    """Integer coefficients of (H + a)^m as a polynomial in H."""
    return tuple(comb(m, k) * a ** (m - k) for k in range(m + 1))


@lru_cache(maxsize=None)
def _straighten_fe(f: int, e: int) -> tuple[tuple[Triple, int], ...]:
    """Normal-ordered form of F^f E^e; all coefficients are integers.

    Uses F E^e = E^e F - e E^(e-1) H - e(e-1) E^(e-1), peeling one F at a
    time from the left.
    """
    if f == 0 or e == 0:
        return (((e, f, 0), 1),)
    prev = _straighten_fe(f - 1, e)
    out: dict[Triple, int] = {}

    def bump(key: Triple, val: int):
        cur = out.get(key, 0)
        new = cur + val
        if new:
            out[key] = new
        elif key in out:
            del out[key]

    # (F^(f-1) E^e) * F : H^h F = F (H - 2)^h
    for (e1, f1, h1), c in prev:
        for k, hc in enumerate(_h_shift_pow(-2, h1)):
            bump((e1, f1 + 1, k), c * hc)
    # - e * (F^(f-1) E^(e-1)) * H  and  - e(e-1) * (F^(f-1) E^(e-1))
    lower = _straighten_fe(f - 1, e - 1)
    for (e1, f1, h1), c in lower:
        bump((e1, f1, h1 + 1), -e * c)
        bump((e1, f1, h1), -e * (e - 1) * c)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _mono_product(m1: Triple, m2: Triple) -> tuple[tuple[Triple, int], ...]:
    """Normal-ordered form of (E^e1 F^f1 H^h1)(E^e2 F^f2 H^h2), integer coeffs."""
    e1, f1, h1 = m1
    e2, f2, h2 = m2
    shift = 2 * (e2 - f2)
    out: dict[Triple, int] = {}
    for (e, f, h), c in _straighten_fe(f1, e2):
        # E^(e1+e) F^(f+f2) (H - 2 f2)^h (H + shift)^h1 H^h2
        pa = _h_shift_pow(-2 * f2, h)
        pb = _h_shift_pow(shift, h1)
        conv = [0] * (len(pa) + len(pb) - 1)
        for ka, ca in enumerate(pa):
            if ca:
                for kb, cb in enumerate(pb):
                    conv[ka + kb] += ca * cb
        key_e = e1 + e
        key_f = f + f2
        for k, hc in enumerate(conv):
            if hc:
                key = (key_e, key_f, k + h2)
                cur = out.get(key, 0)
                new = cur + c * hc
                if new:
                    out[key] = new
                elif key in out:
                    del out[key]
    return tuple(sorted(out.items()))


def commutator(x: PBWElement, y: PBWElement) -> PBWElement:
    return x * y - y * x


# -- generators and the quadratic central element -----------------------------

E = PBWElement.monomial(1, 0, 0)
F = PBWElement.monomial(0, 1, 0)
H = PBWElement.monomial(0, 0, 1)


def casimir_of(e, f, h):
    """The quadratic central element E F + F E + H^2 / 2 on images e, f, h of
    E, F, H in any ring whose elements take ``*``, ``+`` and a ``Fraction``
    factor."""
    return e * f + f * e + h * h * Fraction(1, 2)


@lru_cache(maxsize=1)
def casimir() -> PBWElement:
    """The quadratic central element in normal order."""
    return casimir_of(E, F, H)


# -- the homomorphism from the Racah presentation -----------------------------

SHARP_NAMES = (
    "A",
    "B",
    "C",
    "Delta",
    "alpha",
    "beta",
    "gamma",
    "delta",
    "Omega_A",
    "Omega_B",
    "Omega_C",
)


def omega(k: int, gens, centrals, d, delta):
    """Omega_X for X the k-th of (A, B, C), in any ring whose elements take
    ``*``, ``+``, ``-`` and a ``Fraction`` factor: with (x, y, z) the
    generators ``gens`` rotated to start at X and c_y, c_z the central
    elements ``centrals`` (alpha, beta, gamma) of y and z,

        Omega_X = d^2 + (y x z + z x y) / 2 + x^2 + y c_z - z c_y - x delta.
    """
    x, y, z = (gens[(k + j) % 3] for j in range(3))
    c_y, c_z = centrals[(k + 1) % 3], centrals[(k + 2) % 3]
    return d * d + (y * x * z + z * x * y) * Fraction(1, 2) + x * x + y * c_z - z * c_y - x * delta


def sharp_of(e, f, h, two):
    """(A#, B#, C#, Delta#) on images e, f, h of E, F, H in any ring whose
    elements take ``*``, ``+``, ``-`` and a Gaussian-rational factor, ``two``
    being the ring's element 2."""
    s, t = e + f, e * I + f * (-I)
    return (
        (s - two) * (s + two) * Fraction(1, 16),
        (h - two) * (h + two) * Fraction(1, 16),
        (t - two) * (t + two) * Fraction(1, 16),
        ((h + two) * (f * f) - (h - two) * (e * e)) * Fraction(1, 64),
    )


@lru_cache(maxsize=1)
def _sharp_generators() -> dict[str, PBWElement]:
    return dict(zip(("A", "B", "C", "Delta"), sharp_of(E, F, H, PBWElement.scalar(2))))


@lru_cache(maxsize=None)
def sharp(name: str) -> PBWElement:
    """Image of a Racah-presentation element under the homomorphism.

    Generator images are quadratic expressions in E, F, H (``sharp_of``); the
    central elements are evaluated on those images from their definitions:
    alpha = [A,Delta] + AC - BA and its rotations, delta = A + B + C.
    """
    generators = _sharp_generators()
    if name in generators:
        return generators[name]
    gens = tuple(map(sharp, ("A", "B", "C")))
    if name in ("alpha", "beta", "gamma"):
        k = ("alpha", "beta", "gamma").index(name)
        x, y, z = (gens[(k + j) % 3] for j in range(3))
        return commutator(x, sharp("Delta")) + x * z - y * x
    if name == "delta":
        return gens[0] + gens[1] + gens[2]
    if name in ("Omega_A", "Omega_B", "Omega_C"):
        centrals = tuple(map(sharp, ("alpha", "beta", "gamma")))
        return omega("ABC".index(name[-1]), gens, centrals, sharp("Delta"), sharp("delta"))
    raise ValueError(f"unknown element name: {name!r}")


# -- dihedral symmetry actions -------------------------------------------------

_HALF = GaussianRational(Fraction(1, 2))


@lru_cache(maxsize=None)
def _generator_images(letter: str) -> tuple[PBWElement, PBWElement, PBWElement]:
    if letter == "s":
        return (F * I, E * (-I), -H)
    if letter == "t":
        return (
            (H - E * I - F * I) * _HALF,
            (H + E * I + F * I) * _HALF,
            E * I - F * I,
        )
    raise ValueError(f"unknown dihedral generator: {letter!r}")


def _apply_letter(letter: str, x: PBWElement) -> PBWElement:
    img_e, img_f, img_h = _generator_images(letter)
    out = PBWElement.zero()
    for (e, f, h), c in x.terms.items():
        term = PBWElement.scalar(c)
        if e:
            term = term * img_e ** e
        if f:
            term = term * img_f ** f
        if h:
            term = term * img_h ** h
        out = out + term
    return out


def d3_apply(word: str, x: PBWElement) -> PBWElement:
    """Apply a word in the dihedral generators, written with letters 's'/'t'.

    The rightmost letter acts first, matching composition order.
    """
    out = x
    for letter in reversed(word):
        out = _apply_letter(letter, out)
    return out


D3_WORDS = ("", "t", "tt", "s", "st", "stt")

# Signed permutation tables of the dihedral action on the Racah presentation.
SIGMA_RACAH: dict[str, tuple[str, int]] = {
    "A": ("C", 1),
    "B": ("B", 1),
    "C": ("A", 1),
    "Delta": ("Delta", -1),
    "alpha": ("gamma", -1),
    "beta": ("beta", -1),
    "gamma": ("alpha", -1),
    "delta": ("delta", 1),
    "Omega_A": ("Omega_C", 1),
    "Omega_B": ("Omega_B", 1),
    "Omega_C": ("Omega_A", 1),
}
TAU_RACAH: dict[str, tuple[str, int]] = {
    "A": ("B", 1),
    "B": ("C", 1),
    "C": ("A", 1),
    "Delta": ("Delta", 1),
    "alpha": ("beta", 1),
    "beta": ("gamma", 1),
    "gamma": ("alpha", 1),
    "delta": ("delta", 1),
    "Omega_A": ("Omega_B", 1),
    "Omega_B": ("Omega_C", 1),
    "Omega_C": ("Omega_A", 1),
}


def racah_side_apply(word: str, name: str) -> tuple[str, int]:
    """Image of a presentation symbol under a dihedral word, with sign."""
    sign = 1
    for letter in reversed(word):
        table = SIGMA_RACAH if letter == "s" else TAU_RACAH
        name, s = table[name]
        sign *= s
    return name, sign


# -- identity suites -------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one exact identity check."""

    identity: str
    passed: bool
    residual_term_count: int

    @classmethod
    def from_residual(cls, identity: str, residual: PBWElement) -> "CheckResult":
        return cls(identity, residual.is_zero(), residual.term_count)


def verify_sharp_relations() -> list[CheckResult]:
    """The seven defining identities of the homomorphism, checked exactly."""
    a, b, c = sharp("A"), sharp("B"), sharp("C")
    two_d = sharp("Delta") * 2
    checks = [
        ("[A#,B#] = 2*Delta#", commutator(a, b) - two_d),
        ("[B#,C#] = 2*Delta#", commutator(b, c) - two_d),
        ("[C#,A#] = 2*Delta#", commutator(c, a) - two_d),
        ("[A#,Delta#] + A#C# - B#A# = 0", sharp("alpha")),
        ("[B#,Delta#] + B#A# - C#B# = 0", sharp("beta")),
        ("[C#,Delta#] + C#B# - A#C# = 0", sharp("gamma")),
        ("A# + B# + C# = (Casimir - 6)/8", sharp("delta") - (casimir() - PBWElement.scalar(6)) / 8),
    ]
    return [CheckResult.from_residual(name, res) for name, res in checks]


def verify_casimir_images() -> list[CheckResult]:
    """The three symmetric central elements all map to -3/1024 (L-4)(L-12)."""
    lam = casimir()
    target = (
        (lam - PBWElement.scalar(4))
        * (lam - PBWElement.scalar(12))
        * GaussianRational(Fraction(-3, 1024))
    )
    return [
        CheckResult.from_residual(
            f"{name}# = -3/1024*(Casimir-4)(Casimir-12)", sharp(name) - target
        )
        for name in ("Omega_A", "Omega_B", "Omega_C")
    ]


def kernel_polynomial(omega: PBWElement, delta: PBWElement) -> PBWElement:
    """Evaluate 256*x + 3(4y - 3)(4y + 1) on commuting images."""
    three = PBWElement.scalar(3)
    one = PBWElement.scalar(1)
    return omega * 256 + (delta * 4 - three) * (delta * 4 + one) * 3


def verify_kernel_generators() -> list[CheckResult]:
    """Membership of the three kernel generators, checked symbolically."""
    results = [
        CheckResult.from_residual("alpha# = 0", sharp("alpha")),
        CheckResult.from_residual("beta# = 0", sharp("beta")),
    ]
    de = sharp("delta")
    for name in ("Omega_A", "Omega_B", "Omega_C"):
        residual = kernel_polynomial(sharp(name), de)
        results.append(
            CheckResult.from_residual(f"256*{name}# + 3(4d#-3)(4d#+1) = 0", residual)
        )
    return results


def verify_d3_presentation() -> list[CheckResult]:
    """Order relations of the dihedral action on both presentations."""
    results = []
    for gen, elem in (("E", E), ("F", F), ("H", H)):
        results.append(
            CheckResult.from_residual(f"ss({gen}) = {gen}", d3_apply("ss", elem) - elem)
        )
        results.append(
            CheckResult.from_residual(f"ttt({gen}) = {gen}", d3_apply("ttt", elem) - elem)
        )
        results.append(
            CheckResult.from_residual(
                f"stst({gen}) = {gen}", d3_apply("stst", elem) - elem
            )
        )
    for word, label in (("ss", "ss"), ("ttt", "ttt"), ("stst", "stst")):
        ok = all(
            racah_side_apply(word, name) == (name, 1)
            for name in ("A", "B", "C", "Delta", "alpha", "beta", "gamma", "delta")
        )
        results.append(CheckResult(f"{label} = id on Racah generators", ok, 0 if ok else 1))
    lam = casimir()
    for letter in ("s", "t"):
        results.append(
            CheckResult.from_residual(
                f"{letter}(Casimir) = Casimir", d3_apply(letter, lam) - lam
            )
        )
    return results


def verify_equivariance() -> list[CheckResult]:
    """The dihedral actions commute with the homomorphism on generators."""
    results = []
    for letter in ("s", "t"):
        for name in ("A", "B", "C", "Delta"):
            target_name, sign = racah_side_apply(letter, name)
            expected = sharp(target_name) * sign
            residual = d3_apply(letter, sharp(name)) - expected
            results.append(
                CheckResult.from_residual(
                    f"{letter}({name}#) = {'-' if sign < 0 else ''}{target_name}#",
                    residual,
                )
            )
    return results


def verify_even_identities() -> list[CheckResult]:
    """Quadratic rewriting identities inside the even subalgebra."""
    lam = casimir()
    e2, f2, h2 = E * E, F * F, H * H
    one = PBWElement.scalar(1)
    checks = [
        ("[H,E^2] = 4E^2", commutator(H, e2) - e2 * 4),
        ("[H,F^2] = -4F^2", commutator(H, f2) + f2 * 4),
        (
            "16E^2F^2 = (H^2-2H-2L)(H^2-6H-2L+8)",
            e2 * f2 * 16
            - (h2 - H * 2 - lam * 2) * (h2 - H * 6 - lam * 2 + one * 8),
        ),
        (
            "16F^2E^2 = (H^2+2H-2L)(H^2+6H-2L+8)",
            f2 * e2 * 16
            - (h2 + H * 2 - lam * 2) * (h2 + H * 6 - lam * 2 + one * 8),
        ),
        ("[H^2,E] = 4(H-1)E", commutator(h2, E) - (H - one) * E * 4),
        ("[H^2,F] = -4(H+1)F", commutator(h2, F) + (H + one) * F * 4),
        ("[H^2,E^2] = 8(H-2)E^2", commutator(h2, e2) - (H - one * 2) * e2 * 8),
        ("[H^2,F^2] = -8(H+2)F^2", commutator(h2, f2) + (H + one * 2) * f2 * 8),
    ]
    return [CheckResult.from_residual(name, res) for name, res in checks]


# -- membership in the even-subalgebra spanning family -------------------------


def even_lambda_span_coordinates(
    x: PBWElement,
) -> dict[tuple[int, int, int], GaussianRational] | None:
    """Express x in the family E^(2n) L^i H^k / F^(2n) L^i H^k if possible.

    Keys are (signed_n, i, k) with signed_n >= 0 meaning an E^(2n) prefix and
    signed_n < 0 an F^(-2n) prefix.  Returns None when x is not in the span
    of the bounded-degree truncation suggested by x's own support.
    """
    if x.is_zero():
        return {}
    if not x.is_even():
        return None
    max_h = max(h for (_e, _f, h) in x.terms)
    # Mixing depth: the power of the central element needed to produce a
    # monomial with min(e, f) = m is at least m, and at most that (the
    # top mixed layer of each power never cancels).
    mix = max(min(e, f) for (e, f, _h) in x.terms)
    k_bound = max_h + 2 * mix
    degrees = {e - f for (e, f, _h) in x.terms}
    lam = casimir()
    lam_powers = [PBWElement.scalar(1)]
    for _ in range(mix + 1):
        lam_powers.append(lam_powers[-1] * lam)
    family: list[tuple[tuple[int, int, int], PBWElement]] = []
    for degree in sorted(degrees):
        n = abs(degree) // 2
        prefix = E ** (2 * n) if degree >= 0 else F ** (2 * n)
        for i in range(mix + 1):
            for k in range(k_bound + 1):
                candidate = prefix * lam_powers[i] * H ** k
                family.append(((degree // 2, i, k), candidate))
    keys = sorted({t for _lab, el in family for t in el.terms} | set(x.terms))
    index = {t: pos for pos, t in enumerate(keys)}
    from .matrix import ExactMatrix, solve_columns

    cols = []
    for _lab, el in family:
        col = [ZERO] * len(keys)
        for t, c in el.terms.items():
            col[index[t]] = c
        cols.append(col)
    target = [ZERO] * len(keys)
    for t, c in x.terms.items():
        target[index[t]] = c
    a = ExactMatrix.from_rows(cols).transpose()
    b = ExactMatrix.from_rows([[v] for v in target])
    try:
        sol = solve_columns(a, b)
    except ValueError:
        return None
    if sol is None:
        return None
    out = {}
    for (label, _el), row in zip(family, range(sol.rows)):
        c = sol.entry(row, 0)
        if c:
            out[label] = c
    return out

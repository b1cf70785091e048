"""Dense univariate polynomials over the Gaussian rationals."""

from __future__ import annotations

from typing import Iterable, Sequence

from .gaussian import GaussianRational, ONE, ZERO, gr


class Poly:
    """A polynomial with coefficients stored low degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [gr(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def from_roots(cls, roots: Sequence) -> "Poly":
        p = cls((1,))
        for r in roots:
            p = p * cls((-gr(r), 1))
        return p

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> GaussianRational:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == ONE

    def coefficient(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for ka, ca in enumerate(self.coeffs):
                if not ca:
                    continue
                for kb, cb in enumerate(other.coeffs):
                    if cb:
                        out[ka + kb] = out[ka + kb] + ca * cb
            return Poly(out)
        return Poly(tuple(c * gr(other) for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [ZERO] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        r = list(self.coeffs)
        inv_lead = ONE / other.leading
        while len(r) >= len(other.coeffs) and any(r):
            while r and not r[-1]:
                r.pop()
            if len(r) < len(other.coeffs):
                break
            k = len(r) - len(other.coeffs)
            factor = r[-1] * inv_lead
            q[k] = factor
            for j, c in enumerate(other.coeffs):
                r[k + j] = r[k + j] - factor * c
            r.pop()
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        inv = ONE / self.leading
        return Poly(tuple(c * inv for c in self.coeffs))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Poly":
        return Poly(tuple(self.coeffs[k] * k for k in range(1, len(self.coeffs))))

    @property
    def is_squarefree(self) -> bool:
        """True iff gcd(p, p') is a nonzero constant.

        A squarefree image mod a prime certifies it first
        (``matrix._squarefree_mod_p``); only a polynomial it leaves without a
        verdict runs the exact Euclid of ``gcd``, which gives every False.
        """
        from .matrix import _squarefree_mod_p

        if self.is_zero:
            return False
        return _squarefree_mod_p(self) or self.gcd(self.derivative()).degree == 0

    # -- evaluation ---------------------------------------------------

    def __call__(self, value) -> GaussianRational:
        acc = ZERO
        v = gr(value)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def eval_matrix(self, matrix):
        """Evaluate at a square matrix by Horner's rule."""
        from .matrix import ExactMatrix

        n = matrix.rows
        acc = ExactMatrix.zeros(n, n)
        for c in reversed(self.coeffs):
            acc = acc * matrix + ExactMatrix.scalar_matrix(n, c)
        return acc

    def root_multiplicity(self, root) -> int:
        r = gr(root)
        m = 0
        p = self
        factor = Poly((-r, 1))
        while not p.is_zero and not p(r):
            p = p // factor
            m += 1
        return m

    # -- comparison / display ------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(c.token())
            elif k == 1:
                parts.append(f"({c.token()})*x")
            else:
                parts.append(f"({c.token()})*x^{k}")
        return " + ".join(parts)

"""Dense exact matrices over the Gaussian rationals and their kernels.

Matrices are immutable and row-major.  Multiplication goes through a scaled
integer fast path so that the hypercube-sized operators (dimension 2**D)
remain tractable without ever leaving exact arithmetic.  All row reduction
(``rref``, ``kernel_basis``, ``solve_columns``, ``Subspace`` and
``VectorSpan``) runs on one fraction-free integer echelon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, RootsMismatch
from .gaussian import GaussianRational, ONE, ZERO, gr
from .polynomial import Poly

Vector = tuple[GaussianRational, ...]


def _int_matmul(a_rows, b_rows, cols):
    """Integer matrix product with zero skipping on the left factor."""
    zero = [0] * cols
    out = []
    for arow in a_rows:
        acc = None
        for k, a in enumerate(arow):
            if a:
                brow = b_rows[k]
                if acc is None:
                    acc = list(brow) if a == 1 else [a * x for x in brow]
                elif a == 1:
                    acc = [p + q for p, q in zip(acc, brow)]
                else:
                    acc = [p + a * q for p, q in zip(acc, brow)]
        out.append(acc if acc is not None else list(zero))
    return out


def _int_mat_add(a_rows, b_rows, negate=False):
    if a_rows is None and b_rows is None:
        return None
    if a_rows is None:
        return [[-x for x in row] for row in b_rows] if negate else [list(r) for r in b_rows]
    if b_rows is None:
        return [list(r) for r in a_rows]
    if negate:
        return [[p - q for p, q in zip(ra, rb)] for ra, rb in zip(a_rows, b_rows)]
    return [[p + q for p, q in zip(ra, rb)] for ra, rb in zip(a_rows, b_rows)]


def _gauss_int_matmul(a, b, cols):
    """Product of Gaussian-integer matrices given as (real rows, imaginary rows or None)."""
    re_a, im_a = a
    re_b, im_b = b
    re_part = _int_matmul(re_a, re_b, cols)
    if im_a is not None and im_b is not None:
        re_part = _int_mat_add(re_part, _int_matmul(im_a, im_b, cols), negate=True)
    im_part = None
    if im_b is not None:
        im_part = _int_matmul(re_a, im_b, cols)
    if im_a is not None:
        im_part = _int_mat_add(im_part, _int_matmul(im_a, re_b, cols))
    return re_part, im_part


def _scalar_maker(den: int):
    """Memoized (re, im) -> GaussianRational(re/den, im/den) for integers."""
    cache: dict[tuple[int, int], GaussianRational] = {}

    def wrap(re_v: int, im_v: int) -> GaussianRational:
        key = (re_v, im_v)
        got = cache.get(key)
        if got is None:
            got = GaussianRational(Fraction(re_v, den), Fraction(im_v, den))
            cache[key] = got
        return got

    return wrap


def _from_int_form(den, re_rows, im_rows) -> "ExactMatrix":
    """The ExactMatrix (re_rows + i*im_rows) / den; im_rows may be None."""
    wrap = _scalar_maker(den)
    flat = []
    if im_rows is None:
        for row in re_rows:
            flat.extend(wrap(v, 0) for v in row)
    else:
        for rrow, irow in zip(re_rows, im_rows):
            flat.extend(wrap(rv, iv) for rv, iv in zip(rrow, irow))
    return ExactMatrix(len(re_rows), len(re_rows[0]), flat)


class ExactMatrix:
    """An immutable rows x cols matrix of GaussianRational entries."""

    __slots__ = ("rows", "cols", "entries", "_intform", "_sparse")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        ent = tuple(entries)
        if len(ent) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_intform", None)
        object.__setattr__(self, "_sparse", None)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("need at least one row")
        c = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(gr(x) for x in row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence) -> "ExactMatrix":
        vals = [gr(v) for v in values]
        n = len(vals)
        return cls(n, n, tuple(vals[i] if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def scalar_matrix(cls, n: int, value) -> "ExactMatrix":
        return cls.diagonal([value] * n)

    # -- accessors ----------------------------------------------------

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row_list(self, i: int) -> list[GaussianRational]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def sparse_rows(self):
        """Cached per-row list of (column, value) pairs for nonzero entries."""
        if self._sparse is None:
            c = self.cols
            rows = []
            for i in range(self.rows):
                base = i * c
                rows.append(
                    [(j, self.entries[base + j]) for j in range(c) if self.entries[base + j]]
                )
            object.__setattr__(self, "_sparse", rows)
        return self._sparse

    def int_form(self):
        """Cached (denominator, real int rows, imaginary int rows or None)."""
        if self._intform is None:
            den = 1
            for x in self.entries:
                den = lcm(den, x.re.denominator, x.im.denominator)
            c = self.cols
            re_rows = []
            im_rows = []
            has_im = False
            for i in range(self.rows):
                row = self.entries[i * c : (i + 1) * c]
                re_rows.append([int(x.re * den) for x in row])
                irow = [int(x.im * den) for x in row]
                if any(irow):
                    has_im = True
                im_rows.append(irow)
            object.__setattr__(self, "_intform", (den, re_rows, im_rows if has_im else None))
        return self._intform

    # -- arithmetic -----------------------------------------------------

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"{self.rows}x{self.cols} times {other.rows}x{other.cols}"
                )
            return self._matmul(other)
        scalar = gr(other)
        return ExactMatrix(self.rows, self.cols, tuple(a * scalar for a in self.entries))

    def __rmul__(self, other):
        scalar = gr(other)
        return ExactMatrix(self.rows, self.cols, tuple(scalar * a for a in self.entries))

    def _matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        den_a, re_a, im_a = self.int_form()
        den_b, re_b, im_b = other.int_form()
        re_part, im_part = _gauss_int_matmul((re_a, im_a), (re_b, im_b), other.cols)
        return _from_int_form(den_a * den_b, re_part, im_part)

    def apply(self, vec: Sequence[GaussianRational]) -> Vector:
        """Matrix-vector product, exploiting sparsity of the matrix."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = []
        for row in self.sparse_rows():
            acc = ZERO
            for j, val in row:
                v = vec[j]
                if v:
                    acc = acc + val * v
            out.append(acc)
        return tuple(out)

    # -- structure ------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entry(i, i)
        return acc

    def is_zero(self) -> bool:
        return not any(self.entries)

    def scalar_value(self) -> GaussianRational | None:
        """The scalar c with self == c*I, or None."""
        if not self.is_square:
            return None
        c = self.entry(0, 0)
        for i in range(self.rows):
            for j in range(self.cols):
                expected = c if i == j else ZERO
                if self.entry(i, j) != expected:
                    return None
        return c

    def nonzero_count(self) -> int:
        return sum(1 for x in self.entries if x)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        return ExactMatrix(
            len(row_idx),
            len(col_idx),
            tuple(self.entry(i, j) for i in row_idx for j in col_idx),
        )

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.entry(i, j).token() for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- text exchange format --------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            lines.append(" ".join(self.entry(i, j).token() for j in range(self.cols)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], pos: int = 0) -> tuple["ExactMatrix", int]:
        """Read `rows cols` and rows*cols entries from tokens[pos:].

        Returns the matrix and the position of the first token after it.
        """
        if len(tokens) - pos < 2:
            raise ValueError("matrix text too short")
        rows, cols = int(tokens[pos]), int(tokens[pos + 1])
        end = pos + 2 + rows * cols
        body = tokens[pos + 2 : end]
        if len(body) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, found {len(body)}")
        return cls(rows, cols, tuple(GaussianRational.parse(t) for t in body)), end

    @classmethod
    def from_text(cls, text: str) -> "ExactMatrix":
        tokens = text.split()
        matrix, end = cls.from_tokens(tokens)
        if end != len(tokens):
            raise ValueError(f"expected {end - 2} entries, found {len(tokens) - 2}")
        return matrix


def commutator(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    return x * y - y * x


# -- exact elimination ----------------------------------------------------


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
    entry.  Reduction of a fresh vector therefore proceeds triangularly,
    and one back-substitution pass (``reduced``) completes the reduced
    row echelon form.  Elimination is fraction-free: rows are
    cross-multiplied, never divided.
    """

    __slots__ = ("rows", "pivots", "pivot_values")

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.pivot_values: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: list[int], start: int = 0) -> list[int]:
        """Eliminate the pivots of the stored rows from ``start`` on."""
        steps = 0
        for row, piv, pval in islice(zip(self.rows, self.pivots, self.pivot_values), start, None):
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
        return not any(self._reduce(vec))

    def add(self, vec: list[int]) -> bool:
        """Insert the vector; True if it enlarged the span."""
        vec = self._reduce(vec)
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

    def reduced(self) -> list[list[int]]:
        """The stored rows, each made zero at every pivot but its own.

        Row k is already zero at the pivots of the rows before it, so
        reducing it against the rows after it finishes the job.  Each
        result is a positive multiple of a reduced row echelon row.
        """
        return [self._reduce(row, k + 1) for k, row in enumerate(self.rows)]


def _vector_int_form(vec: Sequence[GaussianRational]) -> tuple[list[int], list[int] | None]:
    den = 1
    for x in vec:
        den = lcm(den, x.re.denominator, x.im.denominator)
    re_part = [x.re.numerator * (den // x.re.denominator) for x in vec]
    im_part = [x.im.numerator * (den // x.im.denominator) for x in vec]
    return re_part, (im_part if any(im_part) else None)


class VectorSpan:
    """Incremental span of fixed-length Gaussian-rational vectors.

    A vector re + i*im is stored realified in interleaved coordinates
    (re_0, im_0, re_1, im_1, ...) next to its i-multiple, so the rational
    span of the stored rows is the realification of the Gaussian-rational
    span.
    """

    def __init__(self, length: int):
        self.length = length
        self._echelon = _IntEchelon()

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
        vec = [0] * (2 * self.length)
        vec[::2] = re_part
        if im_part is not None:
            vec[1::2] = im_part
        return vec

    def add(self, vec: Sequence[GaussianRational]) -> bool:
        return self.add_int(*_vector_int_form(vec))

    def contains(self, vec: Sequence[GaussianRational]) -> bool:
        return self._echelon.contains(self._realify(*_vector_int_form(vec)))

    def add_int(self, re_part: list[int], im_part: list[int] | None) -> bool:
        """Insert the Gaussian-integer vector re_part + i*im_part; True if it grew."""
        vec = self._realify(re_part, im_part)
        grew = self._echelon.add(vec)
        if grew:
            # i * (re + i*im) = -im + i*re
            turned = [0] * len(vec)
            turned[::2] = [-x for x in vec[1::2]]
            turned[1::2] = vec[::2]
            self._echelon.add(turned)
        return grew

    def reduced_basis(self) -> tuple[list[int], list[Vector]]:
        """Pivot columns and rows of the span's reduced row echelon form.

        In interleaved coordinates a Gaussian-rational reduced row with
        pivot p realifies to a rational reduced row with pivot 2p, and its
        i-multiple to one with pivot 2p + 1.  So the rational reduced rows
        with even pivots, de-interleaved, are the Gaussian-rational ones.
        """
        echelon = self._echelon
        found = []
        for piv, row in zip(echelon.pivots, echelon.reduced()):
            if piv % 2 == 0:
                wrap = _scalar_maker(row[piv])
                found.append((piv // 2, tuple(map(wrap, row[::2], row[1::2]))))
        found.sort(key=lambda pair: pair[0])
        return [piv for piv, _row in found], [row for _piv, row in found]


def _row_span(rows: Iterable[Sequence[GaussianRational]], length: int) -> VectorSpan:
    span = VectorSpan(length)
    for row in rows:
        span.add_int(*_vector_int_form(row))
    return span


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, int]:
    """Reduced row echelon form and rank, exact."""
    span = _row_span(map(matrix.row_list, range(matrix.rows)), matrix.cols)
    pivots, rows = span.reduced_basis()
    flat = [x for row in rows for x in row]
    flat.extend([ZERO] * ((matrix.rows - len(rows)) * matrix.cols))
    return ExactMatrix(matrix.rows, matrix.cols, flat), len(pivots)


def kernel_basis(matrix: ExactMatrix) -> list[Vector]:
    """A canonical basis of the right kernel of the matrix."""
    span = _row_span(map(matrix.row_list, range(matrix.rows)), matrix.cols)
    pivots, rows = span.reduced_basis()
    pivot_set = set(pivots)
    free = [j for j in range(matrix.cols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * matrix.cols
        vec[f] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f]
        basis.append(tuple(vec))
    return basis


def solve_columns(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix | None:
    """Solve a*X = b for X where a has full column rank; None if inconsistent."""
    m = a.cols
    if a.rows != b.rows:
        raise DimensionMismatch("row counts differ")
    joined = (a.row_list(i) + b.row_list(i) for i in range(a.rows))
    pivots, rows = _row_span(joined, m + b.cols).reduced_basis()
    if pivots and pivots[-1] >= m:
        return None
    if len(pivots) < m:
        raise ValueError("coefficient matrix does not have full column rank")
    return ExactMatrix(m, b.cols, [x for row in rows for x in row[m:]])


# -- subspaces ------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace given by its canonical reduced-echelon basis."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        rows = ([gr(x) for x in v] for v in vectors)
        return cls(ambient_dim, tuple(_row_span(rows, ambient_dim).reduced_basis()[1]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence) -> bool:
        """True iff adding the vector to the basis leaves the rank unchanged."""
        span = _row_span(self.basis, self.ambient_dim)
        return not span.add_int(*_vector_int_form([gr(x) for x in vector]))


# -- minimal polynomial and eigenspaces ------------------------------------


def minimal_polynomial(matrix: ExactMatrix) -> Poly:
    """Monic least-degree annihilating polynomial, by Krylov span saturation."""
    if not matrix.is_square:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    n = matrix.rows
    power = ExactMatrix.identity(n)
    flats: list[Vector] = []
    for k in range(n + 1):
        flats.append(power.entries)
        cols = ExactMatrix(len(flats), n * n, tuple(x for f in flats for x in f)).transpose()
        target_matrix = power * matrix
        target = ExactMatrix(1, n * n, target_matrix.entries).transpose()
        sol = solve_columns(cols, target)
        if sol is not None:
            coeffs = [-sol.entry(j, 0) for j in range(k + 1)]
            coeffs.append(ONE)
            return Poly(coeffs)
        power = target_matrix
    raise RuntimeError("minimal polynomial search did not terminate")


@dataclass(frozen=True)
class EigenSplit:
    """Eigenvalue/eigenspace pairs plus a diagonalizability verdict."""

    pairs: tuple[tuple[GaussianRational, Subspace], ...]
    diagonalizable: bool


def eigen_split(matrix: ExactMatrix, roots: Sequence) -> EigenSplit:
    """Split into eigenspaces for the supplied distinct roots of the min poly.

    Raises RootsMismatch unless the supplied values are exactly the distinct
    Gaussian-rational roots of the minimal polynomial.
    """
    if not matrix.is_square:
        raise DimensionMismatch("eigen split of a non-square matrix")
    vals = [gr(r) for r in roots]
    if len(set(vals)) != len(vals):
        raise RootsMismatch("duplicate values in supplied root list")
    p = minimal_polynomial(matrix)
    q = p
    for v in vals:
        if p(v):
            raise RootsMismatch(f"{v.token()} is not a root of the minimal polynomial")
        while not q(v):
            q = q // Poly((-v, 1))
    leftover = rational_roots(q)
    if leftover.roots:
        raise RootsMismatch(
            "missing roots: " + ", ".join(r.token() for r in leftover.roots)
        )
    n = matrix.rows
    pairs = []
    total = 0
    for v in vals:
        space_basis = kernel_basis(matrix - ExactMatrix.scalar_matrix(n, v))
        space = Subspace.from_vectors(n, space_basis)
        total += space.dim
        pairs.append((v, space))
    return EigenSplit(tuple(pairs), total == n)


# -- Gaussian-rational root finding ------------------------------------------


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _gaussian_divides(d: tuple[int, int], z: tuple[int, int]) -> bool:
    a, b = d
    c, e = z
    n = a * a + b * b
    re = c * a + e * b
    im = e * a - c * b
    return n != 0 and re % n == 0 and im % n == 0


def _gaussian_int_divisors(z: tuple[int, int]) -> list[tuple[int, int]]:
    """Divisors of a nonzero Gaussian integer, up to unit multiples."""
    a, b = z
    norm = a * a + b * b
    found = []
    for m in _int_divisors(norm):
        u = 0
        while u * u <= m:
            v_sq = m - u * u
            v = isqrt(v_sq)
            if v * v == v_sq:
                cand = (u, v)
                if cand != (0, 0) and _gaussian_divides(cand, z):
                    found.append(cand)
                if v and u != v:
                    cand = (v, u)
                    if _gaussian_divides(cand, z):
                        found.append(cand)
            u += 1
    return found


@dataclass(frozen=True)
class RootSearch:
    """All Gaussian-rational roots and whether the polynomial splits."""

    roots: tuple[GaussianRational, ...]
    splits: bool


_UNITS = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
)


def rational_roots(p: Poly) -> RootSearch:
    """Roots of p in the Gaussian rationals by divisor search.

    Clears denominators, then tests unit multiples of divisor quotients of
    the extreme coefficients.  Reports whether p splits completely.
    """
    if p.is_zero:
        raise ValueError("root search requires a nonzero polynomial")
    if p.degree == 0:
        return RootSearch((), True)
    den = 1
    for c in p.coeffs:
        den = lcm(den, c.re.denominator, c.im.denominator)
    ints = [(int(c.re * den), int(c.im * den)) for c in p.coeffs]
    roots: list[GaussianRational] = []
    low = 0
    while ints[low] == (0, 0):
        low += 1
    if low > 0:
        roots.append(ZERO)
    lead = ints[-1]
    const = ints[low]
    candidates: set[GaussianRational] = set()
    num_divs = _gaussian_int_divisors(const)
    den_divs = _gaussian_int_divisors(lead)
    for nd in num_divs:
        num = GaussianRational(nd[0], nd[1])
        for dd in den_divs:
            base = num / GaussianRational(dd[0], dd[1])
            for unit in _UNITS:
                candidates.add(base * unit)
    for cand in sorted(candidates, key=lambda c: c.sort_key()):
        if not p(cand):
            roots.append(cand)
    multiplicity = sum(p.root_multiplicity(r) for r in roots)
    ordered = tuple(sorted(set(roots), key=lambda c: c.sort_key()))
    return RootSearch(ordered, multiplicity == p.degree)

"""Dense exact matrices over the Gaussian rationals and their kernels.

An ``ExactMatrix`` has one stored form, ``(re + i*im) / den``: ``re`` and
``im`` are tuples of integer row tuples (``im`` is None for a real matrix)
and ``den > 0`` is coprime to every entry, so equal matrices are stored
alike.  Sums, scalar multiples, products, ``apply`` and the structural
operations all run on these integer rows; ``GaussianRational`` entries
appear only in the views built on demand (``entries``, ``entry``,
``row_list`` and the text format).  All row reduction (``rref``,
``kernel_basis``, ``solve_columns``, ``Subspace`` and ``VectorSpan``) runs on
one fraction-free integer echelon; ranks mod a prime only certify
independence ahead of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, islice, repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NonSplitting, RootsMismatch
from .gaussian import GaussianRational, ONE, ZERO, _make, gr
from .polynomial import Poly

# a header dimension: ASCII digits only, where int() also takes '1_0' and other scripts' digits
_DIMENSION = re.compile(r"[+-]?[0-9]+")

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


def _int_scale(rows, s):
    return rows if s == 1 else [[s * x for x in row] for row in rows]


def _int_combine(a, sa, b, sb):
    """The integer rows sa*a + sb*b, where None stands for a zero matrix."""
    if b is None or not sb:
        return None if a is None else _int_scale(a, sa)
    if a is None:
        return _int_scale(b, sb)
    if sa == 1:
        return [[x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [[sa * x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _gauss_int_matmul(a, b, cols):
    """Product of Gaussian-integer matrices given as (real rows, imaginary rows or None)."""
    re_a, im_a = a
    re_b, im_b = b
    re_part = _int_matmul(re_a, re_b, cols)
    if im_a is not None and im_b is not None:
        re_part = _int_combine(re_part, 1, _int_matmul(im_a, im_b, cols), -1)
    im_part = None if im_b is None else _int_matmul(re_a, im_b, cols)
    if im_a is not None:
        im_part = _int_combine(im_part, 1, _int_matmul(im_a, re_b, cols), 1)
    return re_part, im_part


def _gauss_int_apply(re_rows, im_rows, v_re, v_im):
    """(re_rows + i*im_rows)(v_re + i*v_im) by integer dot products, as
    (real part, imaginary part or None); im_rows and v_im may be None."""

    def dots(rows, v):
        return [sum(map(mul, row, v)) for row in rows]

    # (re + i*im)(v_re + i*v_im) = re*v_re - im*v_im + i*(re*v_im + im*v_re)
    re_part = dots(re_rows, v_re)
    im_part = v_im and dots(re_rows, v_im)
    if im_rows is not None:
        if v_im:
            re_part = [x - y for x, y in zip(re_part, dots(im_rows, v_im))]
        cross = dots(im_rows, v_re)
        im_part = [x + y for x, y in zip(im_part, cross)] if im_part else cross
    return re_part, im_part


def _vector_ints(vec: Sequence[GaussianRational]) -> tuple[int, list[int], list[int] | None]:
    """(den, re, im or None) with vec = (re + i*im) / den and den the lcm of the denominators."""
    den = lcm(*(x.den for x in vec))
    re_part = [x.num_re * (den // x.den) for x in vec]
    im_part = [x.num_im * (den // x.den) for x in vec]
    return den, re_part, (im_part if any(im_part) else None)


def _from_ints(den, re_rows, im_rows) -> "ExactMatrix":
    """The ExactMatrix (re_rows + i*im_rows) / den, brought to canonical form.

    den must be positive and im_rows may be None.
    """
    re_rows = tuple(map(tuple, re_rows))
    im_rows = None if im_rows is None else tuple(map(tuple, im_rows))
    if not re_rows or not re_rows[0]:
        raise ValueError("matrix dimensions must be positive")
    if im_rows is not None and not any(map(any, im_rows)):
        im_rows = None
    g = gcd(den, *chain.from_iterable(re_rows), *chain.from_iterable(im_rows or ()))
    if g > 1:
        den //= g
        re_rows, im_rows = (
            rows and tuple(tuple(x // g for x in row) for row in rows) for rows in (re_rows, im_rows)
        )
    matrix = object.__new__(ExactMatrix)
    matrix._assign(len(re_rows), len(re_rows[0]), den, re_rows, im_rows)
    return matrix


def _split_rows(flat: list[int] | None, cols: int):
    """A flat integer list as a tuple of row tuples; None stays None."""
    return flat and tuple(tuple(flat[k : k + cols]) for k in range(0, len(flat), cols))


class ExactMatrix:
    """An immutable rows x cols matrix over the Gaussian rationals.

    Stored as (re + i*im) / den; see the module docstring.
    """

    __slots__ = ("rows", "cols", "den", "re", "im")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        den, re_flat, im_flat = _vector_ints([gr(x) for x in entries])
        if len(re_flat) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        # den is the lcm of the entries' denominators, so the form is canonical
        self._assign(rows, cols, den, _split_rows(re_flat, cols), _split_rows(im_flat, cols))

    def _assign(self, rows, cols, den, re_rows, im_rows) -> None:
        for name, value in zip(self.__slots__, (rows, cols, den, re_rows, im_rows)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("need at least one row")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.diagonal([1] * n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return _from_ints(1, [[0] * cols for _ in range(rows)], None)

    @classmethod
    def diagonal(cls, values: Sequence) -> "ExactMatrix":
        den, re_diag, im_diag = _vector_ints([gr(v) for v in values])
        n = len(re_diag)

        def square(diag):
            return diag and [[x if i == j else 0 for j in range(n)] for i, x in enumerate(diag)]

        return _from_ints(den, square(re_diag), square(im_diag))

    @classmethod
    def scalar_matrix(cls, n: int, value) -> "ExactMatrix":
        return cls.diagonal([value] * n)

    # -- views ----------------------------------------------------------

    @property
    def entries(self) -> Vector:
        """The row-major entries as GaussianRationals."""
        return tuple(chain.from_iterable(map(self.row_list, range(self.rows))))

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.row_list(i)[j]

    def row_list(self, i: int) -> list[GaussianRational]:
        im_row = (0,) * self.cols if self.im is None else self.im[i]
        return list(map(_make, self.re[i], im_row, repeat(self.den)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign*other over the lcm of the two denominators."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        return _from_ints(
            den, _int_combine(self.re, sa, other.re, sb), _int_combine(self.im, sa, other.im, sb)
        )

    def _scale(self, scalar) -> "ExactMatrix":
        """scalar * self: (re + i*im)(sr + i*si) / (den * sden)."""
        sden, (sr,), si = _vector_ints([gr(scalar)])
        si = si[0] if si else 0
        re_part = _int_combine(self.re, sr, self.im, -si)
        im_part = _int_combine(self.im, sr, self.re, si)
        return _from_ints(self.den * sden, re_part, im_part)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "ExactMatrix":
        return self._scale(-1)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"{self.rows}x{self.cols} times {other.rows}x{other.cols}"
                )
            return self._matmul(other)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def _matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        re_part, im_part = _gauss_int_matmul((self.re, self.im), (other.re, other.im), other.cols)
        return _from_ints(self.den * other.den, re_part, im_part)

    def apply(self, vec: Sequence[GaussianRational]) -> Vector:
        """Matrix-vector product, by Gaussian-integer dot products with the stored rows."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        vden, v_re, v_im = _vector_ints(vec)
        re_part, im_part = _gauss_int_apply(self.re, self.im, v_re, v_im)
        return tuple(map(_make, re_part, im_part or repeat(0), repeat(self.den * vden)))

    # -- structure ------------------------------------------------------

    def transpose(self) -> "ExactMatrix":
        return _from_ints(self.den, zip(*self.re), self.im and zip(*self.im))

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise DimensionMismatch("trace of a non-square matrix")
        re_sum, im_sum = (
            sum(row[i] for i, row in enumerate(rows or ())) for rows in (self.re, self.im)
        )
        return _make(re_sum, im_sum, self.den)

    def is_zero(self) -> bool:
        return self.im is None and not any(map(any, self.re))

    def scalar_value(self) -> GaussianRational | None:
        """The scalar c with self == c*I, or None."""
        if not self.is_square:
            return None
        c = self.entry(0, 0)
        return c if self == ExactMatrix.scalar_matrix(self.rows, c) else None

    def nonzero_count(self) -> int:
        if self.im is None:
            return sum(len(row) - row.count(0) for row in self.re)
        return sum(
            1 for rrow, irow in zip(self.re, self.im) for x, y in zip(rrow, irow) if x or y
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        pick = lambda rows: rows and [[rows[i][j] for j in col_idx] for i in row_idx]  # noqa: E731
        return _from_ints(self.den, pick(self.re), pick(self.im))

    def _key(self):
        return (self.rows, self.cols, self.den, self.re, self.im)

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _token_rows(self) -> list[str]:
        return [" ".join(x.token() for x in self.row_list(i)) for i in range(self.rows)]

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}: {'; '.join(self._token_rows())})"

    # -- text exchange format --------------------------------------------

    def to_text(self) -> str:
        return "\n".join([f"{self.rows} {self.cols}", *self._token_rows()]) + "\n"

    @staticmethod
    def header_from_tokens(tokens: Sequence[str], pos: int = 0) -> tuple[int, int]:
        """Read the `rows cols` header at tokens[pos:], without the entries."""
        if len(tokens) - pos < 2:
            raise ValueError("matrix text too short")
        header = tokens[pos : pos + 2]
        if not all(map(_DIMENSION.fullmatch, header)):
            raise ValueError(f"matrix header '{' '.join(header)}' is not two integers")
        rows, cols = map(int, header)
        if rows <= 0 or cols <= 0:
            raise ValueError(f"matrix header '{rows} {cols}' needs positive dimensions")
        return rows, cols

    @classmethod
    def from_tokens(cls, tokens: Sequence[str], pos: int = 0) -> tuple["ExactMatrix", int]:
        """Read `rows cols` and rows*cols entries from tokens[pos:].

        Returns the matrix and the position of the first token after it.
        """
        rows, cols = cls.header_from_tokens(tokens, pos)
        end = pos + 2 + rows * cols
        body = tokens[pos + 2 : end]
        if len(body) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, found {len(body)}")
        return cls(rows, cols, [GaussianRational.parse(t) for t in body]), end

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


class VectorSpan:
    """Incremental span of fixed-length Gaussian-rational vectors.

    While every vector added is real, the echelon holds the real integer
    rows as they are.  The first vector with an imaginary part realifies
    the span once: from then on a vector re + i*im is stored in
    interleaved coordinates (re_0, im_0, re_1, im_1, ...) next to its
    i-multiple, so the rational span of the stored rows is the
    realification of the Gaussian-rational span.
    """

    def __init__(self, length: int):
        self.length = length
        self._echelon = _IntEchelon()
        self._complex = False

    @property
    def rank(self) -> int:
        # Realified rows come in (v, i*v) pairs, so the rank over the
        # Gaussian rationals is then half the integer rank.
        r = self._echelon.rank
        return r // 2 if self._complex else r

    def _checked(self, re_part: Sequence[int]) -> list[int]:
        if len(re_part) != self.length:
            raise DimensionMismatch("vector length does not match the span")
        return list(re_part)

    def _interleave(self, re_part: Sequence[int], im_part: Sequence[int] | None) -> list[int]:
        vec = [0] * (2 * self.length)
        vec[::2] = self._checked(re_part)
        if im_part is not None:
            vec[1::2] = im_part
        return vec

    def _realify(self) -> None:
        """Switch to interleaved coordinates.

        Stored row r with pivot p becomes (r, 0) with pivot 2p followed by
        (0, r) with pivot 2p + 1.  Each is zero at the images of the earlier
        pivots, so no elimination is needed, and the echelon is row for row
        the one that realifying every vector from the start would build.
        """
        real, echelon = self._echelon, _IntEchelon()
        for row, piv, pval in zip(real.rows, real.pivots, real.pivot_values):
            for offset in (0, 1):
                vec = [0] * (2 * self.length)
                vec[offset::2] = row
                echelon.rows.append(vec)
                echelon.pivots.append(2 * piv + offset)
                echelon.pivot_values.append(pval)
        self._echelon = echelon
        self._complex = True

    def add(self, vec: Sequence[GaussianRational]) -> bool:
        return self.add_int(*_vector_ints(vec)[1:])

    def contains(self, vec: Sequence[GaussianRational]) -> bool:
        return self.contains_int(*_vector_ints(vec)[1:])

    def contains_int(self, re_part: Sequence[int], im_part: Sequence[int] | None) -> bool:
        if self._complex:
            return self._echelon.contains(self._interleave(re_part, im_part))
        # A real span holds re + i*im iff it holds re and im.
        return self._echelon.contains(self._checked(re_part)) and (
            im_part is None or self._echelon.contains(self._checked(im_part))
        )

    def add_int(self, re_part: Sequence[int], im_part: Sequence[int] | None) -> bool:
        """Insert the Gaussian-integer vector re_part + i*im_part; True if it grew."""
        if not self._complex:
            if im_part is None or not any(im_part):
                return self._echelon.add(self._checked(re_part))
            self._realify()
        vec = self._interleave(re_part, im_part)
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
        While the span is real, its reduced rows are the rows themselves.
        """
        step = 2 if self._complex else 1
        found = []
        for piv, row in zip(self._echelon.pivots, self._echelon.reduced()):
            if piv % step == 0:
                im_part = row[1::2] if self._complex else repeat(0)
                found.append((piv // step, tuple(map(_make, row[::step], im_part, repeat(row[piv])))))
        found.sort(key=lambda pair: pair[0])
        return [piv for piv, _row in found], [row for _piv, row in found]


def _walk(seeds, gens, product, add, full: int) -> list:
    """The words kept by offering the seeds and then each kept word
    left-multiplied by each generator, breadth first, to ``add``, until
    ``full`` words are kept or no word is left to offer."""
    basis = [c for c in seeds if add(c)]
    # basis grows while this walks it, so the words come breadth first
    for w, g in ((w, g) for w in basis for g in gens):
        if len(basis) == full:
            break  # nothing enlarges the full algebra
        prod = product(g, w)
        if add(prod):
            basis.append(prod)
    return basis


# -- rank certificates mod a prime -------------------------------------------
#
# i -> S (S^2 = -1 mod P) maps the Gaussian rationals whose denominators P
# does not divide onto F_P, and a matrix's rank is at least the rank of its
# image.  So independence mod P certifies independence exactly; a dependence
# mod P proves nothing and is left to the exact echelon.

_P = 2147483629  # the largest prime below 2^31 that is 1 mod 4
_S = 629208553


def _mod_ints(den: int, re_part: Sequence[int], im_part: Sequence[int] | None) -> list[int] | None:
    """(re_part + i*im_part) / den mod P under i -> S, or None when P divides den."""
    if den % _P == 0:
        return None
    inv = pow(den, -1, _P)
    return [(x + _S * y) * inv % _P for x, y in zip(re_part, im_part or repeat(0))]


@lru_cache(maxsize=64)
def _mod_image(m: ExactMatrix) -> list[list[int]] | None:
    """The rows of m mod P under i -> S, or None when P divides m.den.

    Memoized on the (immutable) matrix, so the minimal polynomial and
    Norton's test of one generator share one image; callers must not mutate
    it."""
    rows = [_mod_ints(m.den, r, s) for r, s in zip(m.re, m.im or repeat(None))]
    return None if rows[0] is None else rows


def _mod_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % _P for col in cols] for row in a]


class _ModSpan:
    """Incremental span over F_P of matrices, flattened row by row.  Each
    stored row is kept from its pivot on, where it reads 1, and is 0 mod P
    at the pivots of the rows before it."""

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []

    def add(self, matrix_rows: Iterable[Iterable[int]]) -> bool:
        """Insert the matrix; True if it enlarged the span."""
        vec = list(chain.from_iterable(matrix_rows))
        for piv, tail in self.rows:
            c = vec[piv] % _P
            if c:
                # the entries are reduced mod P only where they are read
                vec[piv:] = [x - c * y for x, y in zip(vec[piv:], tail)]
        for piv, x in enumerate(vec):
            if x % _P:
                inv = pow(x, -1, _P)
                self.rows.append((piv, [y * inv % _P for y in vec[piv:]]))
                return True
        return False


def _spin_rank_mod_p(vec, images: Sequence[list[list[int]] | None]) -> int:
    """The rank mod P of the spin of vec (0 when vec has no image) under the
    ``_mod_image`` images that are not None: a lower bound on the exact spin's
    rank, since the spin mod P is the image of words of the exact spin."""
    seed = _mod_ints(*_vector_ints(vec))
    if seed is None:
        return 0
    images = [image for image in images if image is not None]
    return len(_walk([[[x] for x in seed]], images, _mod_matmul, _ModSpan().add, len(vec)))


def _span_of_rows(pairs: Iterable, length: int) -> VectorSpan:
    """The span of Gaussian-integer rows given as (real row, imaginary row or None) pairs."""
    span = VectorSpan(length)
    for re_part, im_part in pairs:
        span.add_int(re_part, im_part)
    return span


def _vector_rows(vectors: Iterable[Sequence[GaussianRational]]):
    return (_vector_ints(v)[1:] for v in vectors)


def _matrix_rows(m: ExactMatrix, scale: int = 1):
    """The rows of scale * m.den * m as (real row, imaginary row) integer pairs."""
    im_rows = m.im or ((0,) * m.cols,) * m.rows
    return zip(_int_scale(m.re, scale), _int_scale(im_rows, scale))


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, int]:
    """Reduced row echelon form and rank, exact."""
    pivots, rows = _span_of_rows(_matrix_rows(matrix), matrix.cols).reduced_basis()
    flat = [x for row in rows for x in row]
    flat.extend([ZERO] * ((matrix.rows - len(rows)) * matrix.cols))
    return ExactMatrix(matrix.rows, matrix.cols, flat), len(pivots)


def kernel_basis(matrix: ExactMatrix) -> list[Vector]:
    """A canonical basis of the right kernel of the matrix."""
    pivots, rows = _span_of_rows(_matrix_rows(matrix), matrix.cols).reduced_basis()
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
    den = lcm(a.den, b.den)
    joined = (
        ([*a_re, *b_re], [*a_im, *b_im])
        for (a_re, a_im), (b_re, b_im) in zip(
            _matrix_rows(a, den // a.den), _matrix_rows(b, den // b.den)
        )
    )
    pivots, rows = _span_of_rows(joined, m + b.cols).reduced_basis()
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
        rows = _vector_rows([gr(x) for x in v] for v in vectors)
        return cls(ambient_dim, tuple(_span_of_rows(rows, ambient_dim).reduced_basis()[1]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence) -> bool:
        """True iff adding the vector to the basis leaves the rank unchanged."""
        span = _span_of_rows(_vector_rows(self.basis), self.ambient_dim)
        return not span.add_int(*_vector_ints([gr(x) for x in vector])[1:])


# -- minimal polynomial and eigenspaces ------------------------------------


def _vector_minimal_polynomial(matrix: ExactMatrix, vec: Vector, low: int) -> Poly:
    """The monic least-degree p with p(matrix) vec = 0, for a nonzero vec
    whose p has degree at least low >= 1: one exact solve for M^low vec in
    vec, ..., M^(low-1) vec, and one more power after each inconsistent one."""
    n = matrix.rows
    krylov = [vec]
    for _ in range(low):
        krylov.append(matrix.apply(krylov[-1]))
    while True:
        basis = ExactMatrix.from_rows(list(zip(*krylov[:-1])))
        sol = solve_columns(basis, ExactMatrix(n, 1, krylov[-1]))
        if sol is not None:
            return Poly([*(-x for x in sol.entries), ONE])
        krylov.append(matrix.apply(krylov[-1]))


@lru_cache(maxsize=64)
def minimal_polynomial(matrix: ExactMatrix) -> Poly:
    """Monic least-degree annihilating polynomial.

    It is the lcm of the minimal polynomials of the basis vectors
    (Keller-Gehrig 1985).  With m that lcm over the vectors so far, the
    minimal polynomial of w = m(M)e is q / gcd(q, m), q that of e, so
    m * minpoly(w) = lcm(m, q) without a gcd; the search stops when the
    degree reaches n.  The rank that a vector spins to mod P is a lower
    bound on its degree (Krylov vectors independent mod P are independent
    exactly), and its exact solves start there.  e_0 and e_{n-1} come
    first, the one that spins further mod P (e_0 on a tie) before the other:
    one of them is cyclic for a bidiagonal generator.  Memoized on the
    (immutable) matrix, so ``rd.min_polys`` and the Leonard check of one
    module share each generator's computation.
    """
    if not matrix.is_square:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    n = matrix.rows
    images = [_mod_image(matrix)]

    def with_bound(vec):
        return vec, max(1, _spin_rank_mod_p(vec, images))

    def unit(j):
        return tuple(ONE if i == j else ZERO for i in range(n))

    start = with_bound(unit(0))
    if start[1] < n:
        start = max(start, with_bound(unit(n - 1)), key=lambda pair: pair[1])
    m = _vector_minimal_polynomial(matrix, *start)
    for j in dict.fromkeys((0, n - 1, *range(n))):
        if m.degree == n:
            break
        w = list(unit(j))
        for c in reversed(m.coeffs[:-1]):
            # Horner on the monic m: w = M w + c e_j
            w = list(matrix.apply(w))
            w[j] += c
        if any(w):
            m = _vector_minimal_polynomial(matrix, *with_bound(tuple(w))) * m
    return m


def _quotient(m: Poly, theta: GaussianRational) -> tuple[list[GaussianRational], GaussianRational]:
    """m / (x - theta), low degree first, and the remainder m(theta), by
    synthetic division."""
    acc, high_first = ZERO, []
    for c in reversed(m.coeffs):
        acc = acc * theta + c
        high_first.append(acc)
    remainder = high_first.pop()
    return high_first[::-1], remainder


def _leading_one(re_part: Sequence[int], im_part: Sequence[int] | None) -> Vector | None:
    """The Gaussian-integer vector re + i*im over its first nonzero entry; None if it is 0."""
    im_part = im_part or [0] * len(re_part)
    for x, y in zip(re_part, im_part):
        if x or y:
            norm = x * x + y * y
            # (a + b*i) / (x + y*i) = ((a*x + b*y) + (b*x - a*y)*i) / (x^2 + y^2)
            return tuple(_make(a * x + b * y, b * x - a * y, norm) for a, b in zip(re_part, im_part))
    return None


def _krylov(re_rows, im_rows, j: int):
    """K, whose column k is den^k M^k e_j for k < n, M = (re_rows + i*im_rows) / den,
    as Gaussian-integer rows: (real rows, imaginary rows or None)."""
    n = len(re_rows)
    vec = [int(i == j) for i in range(n)], None
    columns = [vec]
    for _ in range(n - 1):
        vec = _gauss_int_apply(re_rows, im_rows, *vec)
        columns.append(vec)
    re_part = list(zip(*(v_re for v_re, _ in columns)))
    if all(v_im is None for _, v_im in columns):
        return re_part, None
    return re_part, list(zip(*(v_im or [0] * n for _, v_im in columns)))


def _lines(re_rows, im_rows, den: int, quotients) -> list[Vector]:
    """For each quotient q = m / (x - theta) of the minimal polynomial m of
    M = (re_rows + i*im_rows) / den, a nonzero column of q(M), leading with 1.

    (M - theta) q(M) = m(M) = 0 and q(M) != 0 (deg q < deg m), so the column
    spans ker(M - theta) whenever that kernel is a line, whatever deg m is:
    for every theta when deg m = n, and for the theta of nullity 1 that
    Norton's test picks otherwise.  Column j is
    q(M) e_j = K q, K the Krylov columns M^k e_j, and one K serves every
    theta when e_j is cyclic.  The e_j are tried in the order e_0, e_{n-1},
    e_1, ...: one of the first two is cyclic for a bidiagonal M, and one
    that is not costs n - 1 products with M, no more than spinning it mod P
    to choose would.
    """
    n = len(re_rows)
    # column k of K is den^k M^k e_j, so den^(n-1-k) q_k weights it
    powers = [den ** (n - 1 - k) for k in range(n)]
    weights = [
        (list(map(mul, q_re, powers)), q_im and list(map(mul, q_im, powers)))
        for q_re, q_im in (_vector_ints(q)[1:] for q in quotients)
    ]
    found: dict[int, Vector] = {}
    for j in dict.fromkeys((0, n - 1, *range(n))):
        krylov = _krylov(re_rows, im_rows, j)
        for t, weight in enumerate(weights):
            if t not in found:
                # a positive multiple of q_t(M) e_j
                line = _leading_one(*_gauss_int_apply(*krylov, *weight))
                if line is not None:
                    found[t] = line
        if len(found) == len(quotients):
            return [found[t] for t in range(len(quotients))]
    raise ArithmeticError("q(M) vanishes on every basis vector; this cannot happen")


def _eigenlines(matrix: ExactMatrix, quotients) -> tuple[list[Vector], list[Vector]]:
    """Right and left eigenvectors, leading with 1, one pair per quotient
    m / (x - theta) of the matrix's minimal polynomial m: ``_lines`` on the
    matrix and on its transpose, which has the same m."""
    left_rows = [rows and list(zip(*rows)) for rows in (matrix.re, matrix.im)]
    return _lines(matrix.re, matrix.im, matrix.den, quotients), _lines(*left_rows, matrix.den, quotients)


@dataclass(frozen=True)
class EigenSplit:
    """The distinct eigenvalues and what the minimal polynomial m says of
    the eigenspaces.

    ``simple``: deg m = n, so every eigenspace over C is a line.
    ``diagonalizable``: m has deg m distinct roots among the values, so it
    splits with no repeated root.  ``basis`` is (U, W) when both hold: U's
    columns are the eigenlines in the order of the values, each leading with
    1, and W = U^-1, so W X U is X in the eigenbasis.  It is None otherwise.
    The values and the flags determine it, so it takes no part in equality.
    """

    values: tuple[GaussianRational, ...]
    diagonalizable: bool
    simple: bool
    basis: tuple[ExactMatrix, ExactMatrix] | None = field(default=None, compare=False, repr=False)


def _eigenbasis(matrix: ExactMatrix, quotients) -> tuple[ExactMatrix, ExactMatrix]:
    """(U, W = U^-1) from the eigenlines of a matrix with n distinct eigenvalues.

    Left and right eigenvectors of distinct eigenvalues are orthogonal, so
    W0 U is diagonal for the left ones W0; scaling W0's rows by that
    diagonal's inverse gives W with no solve.
    """
    right, left = _eigenlines(matrix, quotients)
    lines = ExactMatrix.from_rows(list(zip(*right)))
    dual = ExactMatrix.from_rows(left)
    pairing = dual * lines
    scales = [pairing.entry(k, k) for k in range(matrix.rows)]
    if not all(scales) or pairing != ExactMatrix.diagonal(scales):
        raise ArithmeticError("left and right eigenlines do not pair diagonally")
    return lines, ExactMatrix.diagonal([ONE / s for s in scales]) * dual


def eigen_split(matrix: ExactMatrix, roots: Sequence | None = None) -> EigenSplit:
    """The spectrum and eigenbasis of a matrix from its minimal polynomial m.

    Without ``roots`` the values are the roots of m's one root search in
    ``sort_key`` order, and NonSplitting is raised unless m splits over the
    Gaussian rationals.  Supplied ``roots`` only fix the order of the
    values: RootsMismatch is raised unless they are exactly the distinct
    Gaussian-rational roots of m.  Each one is checked by synthetic division
    of m, whose quotient serves the eigenbasis too; the root search runs
    only for the missing-roots check of fewer than deg m supplied roots.
    """
    if not matrix.is_square:
        raise DimensionMismatch("eigen split of a non-square matrix")
    m = minimal_polynomial(matrix)
    if roots is None:
        search = rational_roots(m)
        if not search.splits:
            raise NonSplitting(
                "minimal polynomial does not split over the Gaussian rationals; "
                "supply eigenvalue hints"
            )
        vals = list(search.roots)
    else:
        vals = [gr(r) for r in roots]
        if len(set(vals)) != len(vals):
            raise RootsMismatch("duplicate values in supplied root list")
    divided = [_quotient(m, v) for v in vals]
    for v, (_q, remainder) in zip(vals, divided):
        if remainder:
            raise RootsMismatch(f"{v.token()} is not a root of the minimal polynomial")
    if roots is not None and len(vals) < m.degree:
        missing = [r for r in rational_roots(m).roots if r not in vals]
        if missing:
            raise RootsMismatch("missing roots: " + ", ".join(r.token() for r in missing))
    simple, diagonalizable = m.degree == matrix.rows, len(vals) == m.degree
    basis = _eigenbasis(matrix, [q for q, _r in divided]) if simple and diagonalizable else None
    return EigenSplit(tuple(vals), diagonalizable, simple, basis)


# -- Gaussian-rational root finding ------------------------------------------


@dataclass(frozen=True)
class RootSearch:
    """All Gaussian-rational roots and whether the polynomial splits."""

    roots: tuple[GaussianRational, ...]
    splits: bool


def _squarefree_mod_p(p: Poly) -> bool:
    """True only if p is squarefree; False gives no verdict.

    The image of p in F_P[x] under i -> S keeps p's degree when P divides no
    denominator and not the leading coefficient.  If that image is coprime to
    its derivative its discriminant is nonzero mod P, so disc(p), which maps
    onto it, is nonzero and p is squarefree.  A common factor mod P proves
    nothing (x*(x - P) is squarefree, its image x^2 is not).
    """
    f = _mod_ints(*_vector_ints(p.coeffs))
    if not f or not f[-1]:
        return False
    g = [k * c % _P for k, c in enumerate(f)][1:]
    while g:
        # f mod g in F_P[x]; g is trimmed, so its leading coefficient is a unit
        inv = pow(g[-1], -1, _P)
        while len(f) >= len(g):
            c = f[-1] * inv % _P
            shift = len(f) - len(g)
            for j, y in enumerate(g[:-1]):
                f[shift + j] = (f[shift + j] - c * y) % _P
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


def _eval_mod(f: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _lift(f: Sequence[int], r: int, p: int, modulus: int) -> int:
    """Newton-lift a simple root r of f mod p to the root mod modulus = p^(2^j)."""
    df = [k * c for k, c in enumerate(f)][1:]
    m = p
    while m < modulus:
        m *= m
        r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
    return r


def _lifting_prime(coeffs: Sequence[tuple[int, int]], norm_lead: int):
    """The least prime P = 1 (mod 4) not dividing norm_lead at which both images
    of the squarefree coeffs under i -> +-s (s^2 = -1 mod P) have only simple
    roots mod P; only finitely many primes fail.  P does not divide
    norm_lead = lead(s) * lead(-s), so neither image drops degree.

    Returns (P, s, roots of the +s image, roots of the -s image), the roots
    found by trying every residue.
    """
    p = 1
    while True:
        p += 4
        if norm_lead % p == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
            continue
        s = next(x for x in range(2, p) if x * x % p == p - 1)
        images = [[(a + b * t) % p for a, b in coeffs] for t in (s, -s)]
        roots = [[r for r in range(p) if not _eval_mod(f, r, p)] for f in images]
        derivs = [[k * c for k, c in enumerate(f)][1:] for f in images]
        if all(_eval_mod(df, r, p) for df, rs in zip(derivs, roots) for r in rs):
            return p, s, roots[0], roots[1]


def _is_scaled_root(coeffs: Sequence[tuple[int, int]], x: int, y: int, scale: int) -> bool:
    """Whether (x + i*y) / scale is a root of the Gaussian-integer coefficients
    (re, im), low degree first: Horner on scale^m * f((x + i*y) / scale) in ints."""
    acc_re, acc_im = coeffs[-1]
    power = 1
    for c_re, c_im in reversed(coeffs[:-1]):
        power *= scale
        acc_re, acc_im = acc_re * x - acc_im * y + c_re * power, acc_re * y + acc_im * x + c_im * power
    return not (acc_re or acc_im)


@lru_cache(maxsize=64)
def rational_roots(p: Poly) -> RootSearch:
    """All roots of p in the Gaussian rationals, by Hensel lifting (Loos 1983).

    Completeness: a root z = u/v of the squarefree part q, in lowest terms in
    the UFD Z[i], has v | lead(q), so L*z is a Gaussian integer (L = N(lead));
    its parts are bounded by L*R (R a Cauchy bound) and read off mod P^k > 4*L*R.
    q is p itself when ``_squarefree_mod_p`` certifies p, and p // gcd(p, p')
    otherwise.  Each candidate is kept iff it is an exact root of q, tested in
    integers on q's Gaussian-integer coefficients; q and p have the same roots.
    Memoized on the (immutable) polynomial, so Norton's test and
    ``eigen_split`` share each search.
    """
    if p.is_zero:
        raise ValueError("root search requires a nonzero polynomial")
    if p.degree == 0:
        return RootSearch((), True)
    q = p if _squarefree_mod_p(p) else p // p.gcd(p.derivative())
    _den, re_part, im_part = _vector_ints(q.coeffs)
    coeffs = list(zip(re_part, im_part or [0] * len(re_part)))
    roots: list[GaussianRational] = []
    if coeffs[0] == (0, 0):
        roots.append(ZERO)
        coeffs = coeffs[1:]
    if len(coeffs) > 1:
        lead_re, lead_im = coeffs[-1]
        norm_lead = lead_re * lead_re + lead_im * lead_im
        top = max(x * x + y * y for x, y in coeffs[:-1])
        # |L*z| <= L*R with the Cauchy bound R = 1 + max|c_k| / |lead| rounded up
        bound = norm_lead * (2 + isqrt(-(-top // norm_lead)))
        prime, s, plus, minus = _lifting_prime(coeffs, norm_lead)
        modulus = prime
        while modulus <= 4 * bound:
            modulus *= modulus
        s = _lift((1, 0, 1), s, prime, modulus)
        images = [[(a + b * t) % modulus for a, b in coeffs] for t in (s, -s)]
        plus = [_lift(images[0], r, prime, modulus) for r in plus]
        minus = [_lift(images[1], r, prime, modulus) for r in minus]
        half, half_s = pow(2, -1, modulus), pow(2 * s, -1, modulus)
        for r1 in plus:
            for r2 in minus:
                # the image of L*z under i -> +-s is L*r1, L*r2
                x = norm_lead * (r1 + r2) * half % modulus
                y = norm_lead * (r1 - r2) * half_s % modulus
                x -= modulus if 2 * x > modulus else 0
                y -= modulus if 2 * y > modulus else 0
                if x * x + y * y <= bound * bound and _is_scaled_root(coeffs, x, y, norm_lead):
                    roots.append(_make(x, y, norm_lead))
    ordered = tuple(sorted(roots, key=lambda c: c.sort_key()))
    return RootSearch(ordered, len(ordered) == q.degree)

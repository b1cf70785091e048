"""Exact linear algebra: row reduction, kernels, minimal polynomials,
eigen splitting and Gaussian-rational root search."""

import operator
import random
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from racahlab.errors import DimensionMismatch, NonSplitting, RootsMismatch
from racahlab.gaussian import ONE, GaussianRational, I, _make, gr
from racahlab import matrix as matrix_module
from racahlab.matrix import (
    _P,
    _S,
    EigenSplit,
    ExactMatrix,
    RootSearch,
    Subspace,
    VectorSpan,
    _IntEchelon,
    _lifting_prime,
    _mod_image,
    _spin_rank_mod_p,
    _squarefree_mod_p,
    _vector_ints,
    eigen_split,
    kernel_basis,
    minimal_polynomial,
    rational_roots,
    rref,
    solve_columns,
)
from racahlab.polynomial import Poly
from racahlab.rd import RdParams, construct, is_irreducible


def test_rref_identity_and_zero():
    ident = ExactMatrix.identity(3)
    assert rref(ident) == (ident, 3)
    zero = ExactMatrix.zeros(2, 2)
    assert rref(zero) == (zero, 0)


def test_rref_dependent_complex_rows():
    # second row is i times the first, checked by hand: i*(1, i) = (i, -1)
    m = ExactMatrix.from_rows([[1, I], [I, -1]])
    reduced, rank = rref(m)
    assert rank == 1
    assert reduced.row_list(0) == [gr(1), I]


small_entries = st.integers(min_value=-4, max_value=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_rref_idempotent(rows, cols, data):
    entries = [
        [data.draw(small_entries) for _ in range(cols)] for _ in range(rows)
    ]
    m = ExactMatrix.from_rows(entries)
    reduced, rank = rref(m)
    again, rank2 = rref(reduced)
    assert again == reduced and rank2 == rank


def test_kernel_basis_annihilates():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert not any(m.apply(vec))


def test_solve_columns_consistency():
    a = ExactMatrix.from_rows([[1, 0], [1, 1], [0, 2]])
    x = ExactMatrix.from_rows([[3], [Fraction(1, 2)]])
    b = a * x
    assert solve_columns(a, b) == x
    bad = ExactMatrix.from_rows([[1], [0], [0]])
    assert solve_columns(a, bad) is None


# -- differential test against a Gauss-Jordan oracle ---------------------------


def _gauss_jordan(rows):
    """Reduced row echelon form by Gauss-Jordan over GaussianRational; (rows, pivots)."""
    rows = [list(row) for row in rows]
    pivots = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = gr(1) / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], lead)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _oracle_kernel(rows, pivots, cols):
    basis = []
    for f in (j for j in range(cols) if j not in pivots):
        vec = [gr(0)] * cols
        vec[f] = gr(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[f]
        basis.append(tuple(vec))
    return basis


def _oracle_solve(a, b):
    """The solution of a*X = b, None if inconsistent, ValueError if a is rank deficient."""
    m = a.cols
    rows, pivots = _gauss_jordan([a.row_list(i) + b.row_list(i) for i in range(a.rows)])
    if any(p >= m for p in pivots):
        return None
    if len(pivots) < m:
        return ValueError
    return ExactMatrix(m, b.cols, [x for row in rows[:m] for x in row[m:]])


real_scalars = st.builds(GaussianRational, st.fractions(-3, 3, max_denominator=3))
gaussian_scalars = st.builds(
    GaussianRational,
    st.fractions(-3, 3, max_denominator=3),
    st.one_of(st.just(0), st.fractions(-2, 2, max_denominator=2)),
)


def _matrices(rows, cols, scalars):
    zero_or = st.one_of(st.just(gr(0)), scalars)
    return st.lists(zero_or, min_size=rows * cols, max_size=rows * cols).map(
        lambda flat: ExactMatrix(rows, cols, flat)
    )


@st.composite
def linear_systems(draw):
    """(a, b): real or Gaussian a up to 5x6, often a low-rank product, and a
    right-hand side b that is either a*X (consistent) or drawn freely."""
    scalars = draw(st.sampled_from([real_scalars, gaussian_scalars]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        a = draw(_matrices(rows, inner, scalars)) * draw(_matrices(inner, cols, scalars))
    else:
        a = draw(_matrices(rows, cols, scalars))
    k = draw(st.integers(1, 2))
    if draw(st.booleans()):
        b = a * draw(_matrices(cols, k, scalars))
    else:
        b = draw(_matrices(rows, k, scalars))
    probe = draw(_matrices(1, cols, scalars)).row_list(0)
    return a, b, probe


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_kernels_match_gauss_jordan_oracle(system):
    a, b, probe = system
    rows, pivots = _gauss_jordan([a.row_list(i) for i in range(a.rows)])
    rank = len(pivots)
    assert rref(a) == (ExactMatrix(a.rows, a.cols, [x for row in rows for x in row]), rank)
    assert kernel_basis(a) == _oracle_kernel(rows, pivots, a.cols)
    expected = _oracle_solve(a, b)
    if expected is ValueError:
        with pytest.raises(ValueError):
            solve_columns(a, b)
    else:
        assert solve_columns(a, b) == expected
    sub = Subspace.from_vectors(a.cols, [a.row_list(i) for i in range(a.rows)])
    assert sub.basis == tuple(tuple(row) for row in rows[:rank])
    probe_in_span = len(_gauss_jordan(rows[:rank] + [probe])[1]) == rank
    assert sub.contains(probe) == probe_in_span
    assert sub.contains((b.transpose() * a).row_list(0))


class TestMinimalPolynomial:
    def test_diagonal(self):
        m = ExactMatrix.diagonal([Fraction(5, 16), Fraction(-3, 16)])
        assert minimal_polynomial(m) == Poly.from_roots(
            [Fraction(5, 16), Fraction(-3, 16)]
        )

    def test_nilpotent(self):
        m = ExactMatrix.from_rows([[0, 1], [0, 0]])
        assert minimal_polynomial(m) == Poly((0, 0, 1))

    def test_scalar(self):
        m = ExactMatrix.scalar_matrix(3, Fraction(7, 2))
        assert minimal_polynomial(m) == Poly((Fraction(-7, 2), 1))

    def test_annihilates_and_no_proper_divisor_does(self):
        rng = random.Random(11)
        for _ in range(5):
            m = ExactMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            )
            p = minimal_polynomial(m)
            assert p.eval_matrix(m).is_zero()
            assert p.is_monic
            if p.degree >= 1:
                # strike one random linear factor if it splits there
                roots = rational_roots(p).roots
                if roots:
                    r = roots[rng.randrange(len(roots))]
                    proper = p // Poly((-gr(r), 1))
                    assert not proper.eval_matrix(m).is_zero()


# -- the minimal polynomial against the step-by-step exact search --------------


def _flat_columns(mats):
    """The matrix whose k-th column is mats[k] flattened row by row."""
    return ExactMatrix.from_rows(list(zip(*(m.entries for m in mats))))


def _stepwise_minimal_polynomial(matrix):
    """The exact search over the flattened powers from degree 1 on: one solve per degree."""
    powers = [ExactMatrix.identity(matrix.rows)]
    for k in range(matrix.rows + 1):
        target = powers[-1] * matrix
        sol = solve_columns(_flat_columns(powers), _flat_columns([target]))
        if sol is not None:
            return Poly([*(-sol.entry(j, 0) for j in range(k + 1)), ONE])
        powers.append(target)
    raise AssertionError("no annihilating polynomial of degree <= n")


def _unit(n, j):
    return tuple(ONE if i == j else gr(0) for i in range(n))


# Entries that P reads as 0, or that put P in a denominator.
_PLANTED = [gr(_P), _S - I, gr(Fraction(1, _P))]


@st.composite
def _krylov_matrices(draw):
    """(m, planted) with n <= 5: m dense, a product of low rank, or a
    triangular matrix with repeated eigenvalues conjugated by a unit lower
    triangular one (derogatory where a repeated eigenvalue keeps more than one
    Jordan block); planted when some columns are then scaled by a _PLANTED
    entry, so that P may misread a Krylov rank."""
    n = draw(st.integers(1, 5))
    scalars = draw(st.sampled_from([real_scalars, gaussian_scalars]))
    kind = draw(st.sampled_from(["dense", "low rank", "repeated"]))
    if kind == "dense":
        m = draw(_matrices(n, n, scalars))
    elif kind == "low rank":
        r = draw(st.integers(1, n))
        m = draw(_matrices(n, r, scalars)) * draw(_matrices(r, n, scalars))
    else:
        values = draw(st.lists(scalars, min_size=1, max_size=2))
        diag = [draw(st.sampled_from(values)) for _ in range(n)]
        upper = draw(_matrices(n, n, st.just(gr(1))))
        lower = draw(_matrices(n, n, st.builds(gr, st.integers(-2, 2))))
        tri = [[diag[i] if i == j else upper.entry(i, j) if j > i else 0 for j in range(n)] for i in range(n)]
        unit = [[1 if i == j else lower.entry(i, j) if j < i else 0 for j in range(n)] for i in range(n)]
        t = ExactMatrix.from_rows(unit)
        m = t * ExactMatrix.from_rows(tri) * solve_columns(t, ExactMatrix.identity(n))
    scales = draw(st.lists(st.sampled_from([ONE, ONE, *_PLANTED]), min_size=n, max_size=n))
    planted = draw(st.booleans()) and scales.count(ONE) < n
    return (m * ExactMatrix.diagonal(scales) if planted else m), planted


def _count_solves(monkeypatch):
    """The shapes of the coefficient matrices solved, from here on."""
    calls = []

    def spy(a, b):
        calls.append((a.rows, a.cols))
        return solve_columns(a, b)

    monkeypatch.setattr(matrix_module, "solve_columns", spy)
    minimal_polynomial.cache_clear()  # a memo hit would count no solve at all
    return calls


@settings(max_examples=150, deadline=None)
@given(_krylov_matrices())
def test_minimal_polynomial_matches_stepwise_search(case):
    """Each vector's solves start at its spin rank mod P, so when P reads
    every degree right the solved column counts add up to the degree; a
    planted entry can only add solves."""
    m, planted = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_solves(mp)
        p = minimal_polynomial(m)
    assert p == _stepwise_minimal_polynomial(m)
    columns = sum(cols for _rows, cols in calls)
    assert columns >= p.degree if planted else columns == p.degree


def test_certificate_prime():
    assert _P % 4 == 1 and _P < 2**31
    assert all(_P % q for q in range(2, isqrt(_P) + 1))
    assert _S * _S % _P == _P - 1


# P reads the planted entry as 0, or P in a denominator leaves no image.  In
# diag(0, entry), w = M e_1 = (0, entry) spins to rank 0 mod P, below its
# degree 1, which is where every solve starts.  With the entry below the
# diagonal, e_0 spins to rank 1, short of its degree 2, so the solve at rank
# 1 is inconsistent and one more power is solved.
@pytest.mark.parametrize("entry", _PLANTED, ids=["P", "S-i", "1/P"])
def test_minimal_polynomial_past_a_low_bound_mod_p(entry, monkeypatch):
    diagonal = ExactMatrix.diagonal([0, entry])
    assert _spin_rank_mod_p((gr(0), entry), [_mod_image(diagonal)]) == 0
    calls = _count_solves(monkeypatch)
    assert minimal_polynomial(diagonal) == Poly.from_roots([0, entry])
    assert calls == [(2, 1), (2, 1)]
    below = ExactMatrix.from_rows([[1, 0], [entry, 1]])
    assert _spin_rank_mod_p(_unit(2, 0), [_mod_image(below)]) == 1
    calls = _count_solves(monkeypatch)
    assert minimal_polynomial(below) == Poly.from_roots([1, 1])
    assert calls == [(2, 1), (2, 2)]


def test_minimal_polynomial_solves_once_when_p_reads_the_degree(monkeypatch):
    """e_0 and e_2 are eigenvectors, and (M - i)(M - 1)e_1 is one more: one
    one-column solve each, three columns for the degree 3."""
    m = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, I]])
    calls = _count_solves(monkeypatch)
    assert minimal_polynomial(m) == Poly.from_roots([1, 1, I])
    assert calls == [(3, 1)] * 3


def test_minimal_polynomial_builds_one_image_mod_p(monkeypatch):
    """Each basis vector of diag(1, 2, i) spins under the one image of M mod P."""
    m = ExactMatrix.diagonal([1, 2, I])
    images = []
    mod_image = matrix_module._mod_image
    monkeypatch.setattr(matrix_module, "_mod_image", lambda x: images.append(x) or mod_image(x))
    assert minimal_polynomial.__wrapped__(m) == Poly.from_roots([1, 2, I])
    assert images == [m]


# -- cyclic and non-cyclic basis vectors ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(_krylov_matrices())
def test_cyclic_route_matches_stepwise_search(case):
    """Where e_0 or e_{n-1} spins to rank n mod P, one n-column solve gives
    the minimal polynomial."""
    m, _planted = case
    n = m.rows
    cyclic = n in (_spin_rank_mod_p(_unit(n, j), [_mod_image(m)]) for j in (0, n - 1))
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_solves(mp)
        p = minimal_polynomial(m)
    assert p == _stepwise_minimal_polynomial(m)
    assert calls == [(n, n)] or not cyclic


# Neither e_0 nor e_{n-1} spins to rank n mod P here: each is an
# eigenvector, P reads a nonzero entry as 0, or P in a denominator leaves no
# image.  The other basis vectors complete the lcm, and a spin rank short of
# a vector's degree costs one more solve.
@pytest.mark.parametrize(
    "m, expected, solves",
    [
        (ExactMatrix.scalar_matrix(3, Fraction(2, 3)), Poly.from_roots([Fraction(2, 3)]), [1]),
        (ExactMatrix.diagonal([1, 1, 2]), Poly.from_roots([1, 2]), [1, 1]),
        (ExactMatrix.diagonal([1, 2, I]), Poly.from_roots([1, 2, I]), [1, 1, 1]),
        (ExactMatrix.diagonal([0, _P]), Poly.from_roots([0, _P]), [1, 1]),
        (ExactMatrix.from_rows([[1, 0], [_P, 1]]), Poly.from_roots([1, 1]), [1, 2]),
        (ExactMatrix.from_rows([[0, Fraction(1, _P)], [1, 0]]), Poly((-Fraction(1, _P), 0, 1)), [1, 2]),
    ],
    ids=["scalar", "diag(1,1,2)", "distinct-diagonal", "diag(0,P)", "P-below-the-diagonal", "1/P"],
)
def test_non_cyclic_matrices_combine_basis_vectors(m, expected, solves, monkeypatch):
    calls = _count_solves(monkeypatch)
    assert minimal_polynomial(m) == expected
    assert calls == [(m.rows, cols) for cols in solves]
    assert expected == _stepwise_minimal_polynomial(m)


def test_rd_generators_take_the_cyclic_route(monkeypatch):
    """e_0 is cyclic for A and C of an irreducible R_6, and e_6 for the upper
    bidiagonal B, whose e_0 is an eigenvector: one 7-column solve each."""
    params = RdParams(GaussianRational(Fraction(2, 3), Fraction(1, 3)), GaussianRational(-2, 1),
                      GaussianRational(3, 1), 6)
    assert is_irreducible(params)
    rep = construct(params)
    assert _spin_rank_mod_p(_unit(7, 0), [_mod_image(rep.B)]) == 1
    for op in (rep.A, rep.B, rep.C):
        calls = _count_solves(monkeypatch)
        assert minimal_polynomial(op) == _stepwise_minimal_polynomial(op)
        assert calls == [(7, 7)]


class TestEigenSplit:
    def test_repeated_eigenvalue(self):
        m = ExactMatrix.diagonal([1, 1, 2])
        result = eigen_split(m, [1, 2])
        assert [space.dim for _v, space in result.pairs] == [2, 1]
        assert result.diagonalizable

    def test_defective(self):
        m = ExactMatrix.from_rows([[0, 1], [0, 0]])
        result = eigen_split(m, [0])
        assert [space.dim for _v, space in result.pairs] == [1]
        assert not result.diagonalizable

    def test_roots_mismatch(self):
        m = ExactMatrix.diagonal([1, 2])
        with pytest.raises(RootsMismatch):
            eigen_split(m, [1, 3])
        with pytest.raises(RootsMismatch):
            eigen_split(m, [1])  # 2 is missing

    def test_upper_bidiagonal_module_operator(self):
        # frozen from the d=1 symmetric-point module: diagonal 5/16, -3/16,
        # superdiagonal -3/16
        m = ExactMatrix.from_rows(
            [[Fraction(5, 16), Fraction(-3, 16)], [0, Fraction(-3, 16)]]
        )
        result = eigen_split(m, [Fraction(5, 16), Fraction(-3, 16)])
        assert [space.dim for _v, space in result.pairs] == [1, 1]
        assert result.diagonalizable

    def test_dims_sum_iff_squarefree(self):
        rng = random.Random(5)
        for _ in range(8):
            diag = [rng.randint(-2, 2) for _ in range(4)]
            upper = [[diag[i] if i == j else (rng.randint(0, 1) if j > i else 0) for j in range(4)] for i in range(4)]
            m = ExactMatrix.from_rows(upper)
            p = minimal_polynomial(m)
            roots = rational_roots(p)
            assert roots.splits
            result = eigen_split(m, roots.roots)
            total = sum(space.dim for _v, space in result.pairs)
            assert total <= 4
            assert (total == 4) == p.is_squarefree


class TestRationalRoots:
    def test_simple_split(self):
        assert rational_roots(Poly((-1, 0, 1))).roots == (gr(-1), gr(1))
        assert rational_roots(Poly((-1, 0, 1))).splits

    def test_gaussian_split(self):
        result = rational_roots(Poly((1, 0, 1)))
        assert set(result.roots) == {I, -I}
        assert result.splits

    def test_non_splitting(self):
        result = rational_roots(Poly((-2, 0, 1)))
        assert result.roots == ()
        assert not result.splits

    def test_rational_candidates_with_denominators(self):
        p = Poly.from_roots([Fraction(3, 7), Fraction(-5, 2), 0]) * 14
        result = rational_roots(p)
        assert set(result.roots) == {gr(Fraction(3, 7)), gr(Fraction(-5, 2)), gr(0)}
        assert result.splits

    def test_partial_split_reported(self):
        p = Poly.from_roots([2]) * Poly((-2, 0, 1))  # (x-2)(x^2-2)
        result = rational_roots(p)
        assert result.roots == (gr(2),)
        assert not result.splits

    def test_prime_search_passes_two_primes(self):
        # 5 | N(lead) = 25 rules out 5, and 1 = 14 (mod 13) is a double root mod 13
        p = Poly.from_roots([1, 14]) * 5
        coeffs = [(int(c.re), int(c.im)) for c in p.coeffs]
        assert _lifting_prime(coeffs, 25)[0] == 17
        assert rational_roots(p) == RootSearch((gr(1), gr(14)), True)


# -- differential test against the divisor-search oracle -----------------------


def _int_divisors(n):
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


def _gaussian_divides(d, z):
    a, b = d
    c, e = z
    n = a * a + b * b
    re = c * a + e * b
    im = e * a - c * b
    return n != 0 and re % n == 0 and im % n == 0


def _gaussian_int_divisors(z):
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


def _divisor_search(p):
    """Reference root search: test unit multiples of divisor quotients of the
    extreme coefficients; count multiplicities to decide whether p splits."""
    if p.degree == 0:
        return RootSearch((), True)
    den = lcm(*(c.re.denominator for c in p.coeffs), *(c.im.denominator for c in p.coeffs))
    ints = [(int(c.re * den), int(c.im * den)) for c in p.coeffs]
    roots = []
    low = 0
    while ints[low] == (0, 0):
        low += 1
    if low > 0:
        roots.append(gr(0))
    candidates = set()
    for nd in _gaussian_int_divisors(ints[low]):
        for dd in _gaussian_int_divisors(ints[-1]):
            base = GaussianRational(*nd) / GaussianRational(*dd)
            for unit in (gr(1), gr(-1), I, -I):
                candidates.add(base * unit)
    roots += [c for c in candidates if not p(c)]
    multiplicity = sum(p.root_multiplicity(r) for r in roots)
    ordered = tuple(sorted(set(roots), key=lambda c: c.sort_key()))
    return RootSearch(ordered, multiplicity == p.degree)


small_roots = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(1, 3),
)


@st.composite
def _root_search_polys(draw):
    roots = draw(st.lists(small_roots, min_size=1, max_size=4))
    if draw(st.booleans()):
        roots.append(draw(st.sampled_from(roots)))
    p = Poly.from_roots(roots)
    quadratic = draw(st.sampled_from([None, (-2, 0, 1), (1, 1, 1)]))  # x^2-2, x^2+x+1
    if quadratic is not None:
        p = p * Poly(quadratic)
    scalar = draw(small_roots.filter(bool))
    return p * scalar


@settings(max_examples=150, deadline=None)
@given(_root_search_polys())
def test_root_search_matches_divisor_oracle(p):
    assert rational_roots(p) == _divisor_search(p)


# -- the squarefree certificate mod P against Fraction Euclid ----------------------


def _euclid_squarefree(p):
    return p.gcd(p.derivative()).degree == 0


def _euclid_roots(p):
    """rational_roots with the certificate off, so that the squarefree part comes
    from Fraction Euclid, and each candidate tested by evaluating p at it."""

    def evaluated(_coeffs, x, y, scale):
        return not p(GaussianRational(Fraction(x, scale), Fraction(y, scale)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_module, "_squarefree_mod_p", lambda _p: False)
        patch.setattr(matrix_module, "_is_scaled_root", evaluated)
        return rational_roots(p)


@settings(max_examples=150, deadline=None)
@given(_root_search_polys())
def test_squarefree_certificate_matches_fraction_euclid(p):
    exact = _euclid_squarefree(p)
    assert exact or not _squarefree_mod_p(p)
    assert p.is_squarefree == exact
    assert rational_roots(p) == _euclid_roots(p)


def test_squarefree_certificate_fires_on_squarefree_polynomials():
    assert _squarefree_mod_p(Poly.from_roots([1, 2, I, Fraction(-1, 3)]) * Poly((1, 1, 1)))
    assert _squarefree_mod_p(Poly((5,)))
    assert not _squarefree_mod_p(Poly.from_roots([1, 2, 2]))
    assert not _squarefree_mod_p(Poly())


# Each image mod P below loses the certificate: x(x - P) maps to x^2, P times
# a polynomial to 0, and 1/P has no image.  The exact route must answer.
@pytest.mark.parametrize(
    "p, squarefree, roots",
    [
        (Poly((0, -_P, 1)), True, [0, _P]),
        (Poly.from_roots([1, 2]) * _P, True, [1, 2]),
        (Poly.from_roots([1, 1, 2]) * _P, False, [1, 2]),
        (Poly.from_roots([Fraction(1, _P), 2]), True, [Fraction(1, _P), 2]),
    ],
    ids=["x(x-P)", "lead-P", "lead-P-double-root", "P-in-a-denominator"],
)
def test_planted_polynomials_take_the_exact_route(p, squarefree, roots, monkeypatch):
    calls = []
    gcd_method = Poly.gcd

    def spy(self, other):
        calls.append(self)
        return gcd_method(self, other)

    monkeypatch.setattr(Poly, "gcd", spy)
    rational_roots.cache_clear()  # a memo hit would run no gcd
    assert not _squarefree_mod_p(p)
    assert p.is_squarefree == squarefree
    expected = tuple(sorted(map(gr, roots), key=lambda c: c.sort_key()))
    assert rational_roots(p) == RootSearch(expected, True)
    assert len(calls) == 2


# -- eigen_split against the division-based validation ----------------------------


def _division_eigen_split(matrix, roots=None):
    """Reference eigen split: the step-by-step minimal polynomial; supplied roots
    validated by p(v), division by x - v and a divisor search on what is left."""
    p = _stepwise_minimal_polynomial(matrix)
    if roots is None:
        search = _divisor_search(p)
        if not search.splits:
            raise NonSplitting(
                "minimal polynomial does not split over the Gaussian rationals; "
                "supply eigenvalue hints"
            )
        roots = search.roots
    vals = [gr(r) for r in roots]
    if len(set(vals)) != len(vals):
        raise RootsMismatch("duplicate values in supplied root list")
    q = p
    for v in vals:
        if p(v):
            raise RootsMismatch(f"{v.token()} is not a root of the minimal polynomial")
        while not q(v):
            q = q // Poly((-v, 1))
    leftover = _divisor_search(q)
    if leftover.roots:
        raise RootsMismatch("missing roots: " + ", ".join(r.token() for r in leftover.roots))
    n = matrix.rows
    pairs = [
        (v, Subspace.from_vectors(n, kernel_basis(matrix - ExactMatrix.scalar_matrix(n, v))))
        for v in vals
    ]
    return EigenSplit(tuple(pairs), sum(space.dim for _v, space in pairs) == n)


def _outcome(split, *args):
    try:
        return split(*args)
    except (RootsMismatch, NonSplitting) as exc:
        return type(exc), str(exc)


def _gaussian_int(rng):
    return GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1))


def _triangular(rng, n, upper):
    """An upper-triangular Gaussian-integer matrix (diagonal unless upper) and
    its distinct eigenvalues; repeated diagonal values make some defective."""
    diag = [_gaussian_int(rng) for _ in range(n)]
    rows = [
        [diag[i] if i == j else _gaussian_int(rng) if upper and j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return rows, list(dict.fromkeys(diag))


def _eigen_split_cases(seed):
    """(matrix, its distinct Gaussian-rational eigenvalues, whether its minimal
    polynomial splits) for one seed: diagonal and upper triangular with n <= 5,
    and [[0, 1], [2, 0]] (eigenvalues +-sqrt(2)) beside a triangular block."""
    rng = random.Random(seed)
    cases = []
    for upper in (False, True):
        rows, values = _triangular(rng, rng.randint(1, 5), upper)
        cases.append((ExactMatrix.from_rows(rows), values, True))
    k = rng.randint(0, 3)
    rows, values = _triangular(rng, k, True)
    block = [[0, 1] + [0] * k, [2, 0] + [0] * k] + [[0, 0] + row for row in rows]
    cases.append((ExactMatrix.from_rows(block), values, False))
    return cases


def _hint_lists(rng, values):
    """Exact, permuted, with a non-root added, with a root missing, duplicated;
    and two lists with two faults each, which pin the order of the checks."""
    permuted = rng.sample(values, len(values))
    stranger = GaussianRational(3, 2)  # no entry reaches 3, so never an eigenvalue
    lists = [values, permuted, permuted[:1] + [stranger] + permuted[1:]]
    if values:
        lists += [
            permuted[1:],
            permuted + permuted[-1:],
            [stranger] + permuted[1:],  # not a root, and one missing
            [stranger] + permuted + permuted[:1],  # not a root, and a duplicate
        ]
    return lists


@pytest.mark.parametrize("seed", range(12))
def test_eigen_split_matches_division_oracle(seed):
    rng = random.Random(1000 + seed)
    for m, values, splits in _eigen_split_cases(seed):
        hint_free = _outcome(eigen_split, m)
        assert hint_free == _outcome(_division_eigen_split, m)
        in_order = eigen_split(m, sorted(values, key=lambda v: v.sort_key()))
        if splits:
            assert hint_free == in_order
        else:
            assert hint_free[0] is NonSplitting and not in_order.diagonalizable
        for hints in _hint_lists(rng, values):
            assert _outcome(eigen_split, m, hints) == _outcome(_division_eigen_split, m, hints)


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.from_vectors(3, [[1, 1, 1], [0, 0, 2]])
    assert a == b
    assert a.dim == 2
    assert a.contains([2, 2, 5])
    assert not a.contains([1, 0, 0])


# -- differential test against per-entry Gaussian-rational arithmetic ----------


class _EntryMatrix:
    """Reference matrix: a tuple of GaussianRational entries, combined entry by entry."""

    def __init__(self, rows, cols, entries):
        self.rows, self.cols, self.entries = rows, cols, tuple(entries)

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def map(self, f):
        return _EntryMatrix(self.rows, self.cols, map(f, self.entries))

    def zip_with(self, other, f):
        return _EntryMatrix(self.rows, self.cols, map(f, self.entries, other.entries))

    def matmul(self, other):
        return _EntryMatrix(
            self.rows,
            other.cols,
            (
                sum((self.entry(i, k) * other.entry(k, j) for k in range(self.cols)), gr(0))
                for i in range(self.rows)
                for j in range(other.cols)
            ),
        )

    def apply(self, vec):
        return tuple(
            sum((self.entry(i, j) * vec[j] for j in range(self.cols)), gr(0))
            for i in range(self.rows)
        )

    def transpose(self):
        return self.submatrix(range(self.cols), range(self.rows), flip=True)

    def submatrix(self, row_idx, col_idx, flip=False):
        pick = (lambda i, j: self.entry(j, i)) if flip else self.entry
        return _EntryMatrix(len(row_idx), len(col_idx), (pick(i, j) for i in row_idx for j in col_idx))

    def trace(self):
        return sum((self.entry(i, i) for i in range(self.rows)), gr(0))

    def scalar_value(self):
        if self.rows != self.cols:
            return None
        c = self.entry(0, 0)
        ok = all(self.entry(i, j) == (c if i == j else 0) for i in range(self.rows) for j in range(self.cols))
        return c if ok else None


def _assert_canonical(m):
    """The stored form (re + i*im) / den is the unique one."""
    assert len(m.re) == m.rows and all(len(row) == m.cols for row in m.re)
    if m.im is not None:
        assert len(m.im) == m.rows and all(len(row) == m.cols for row in m.im)
        assert any(map(any, m.im))
    parts = [x for rows in (m.re, m.im or ()) for row in rows for x in row]
    assert m.den > 0 and gcd(m.den, *parts) == 1


def _assert_same(got, want):
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
    _assert_canonical(got)
    rebuilt = ExactMatrix(want.rows, want.cols, want.entries)
    assert got == rebuilt and hash(got) == hash(rebuilt)


# mixed denominators up to 4, and purely imaginary parts too
oracle_real = st.builds(GaussianRational, st.fractions(-3, 3, max_denominator=4))
oracle_complex = st.builds(
    GaussianRational,
    st.fractions(-3, 3, max_denominator=4),
    st.fractions(-2, 2, max_denominator=3),
)
oracle_scalars = st.one_of(
    st.integers(-3, 3), st.just(gr(0)), oracle_real, oracle_complex, oracle_complex.map(lambda x: x - gr(x.re))
)


@st.composite
def _oracle_operands(draw):
    scalar = draw(oracle_scalars)

    def matrix(rows, cols):
        kind = draw(st.sampled_from(["real", "complex", "zero", "scalar"]))
        if kind == "zero":
            flat = [gr(0)] * (rows * cols)
        elif kind == "scalar":
            flat = [gr(scalar) if i == j else gr(0) for i in range(rows) for j in range(cols)]
        else:
            values = st.one_of(st.just(gr(0)), oracle_real if kind == "real" else oracle_complex)
            flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
        return ExactMatrix(rows, cols, flat), _EntryMatrix(rows, cols, flat)

    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a, b = matrix(rows, cols), matrix(rows, cols)
    c = matrix(cols, draw(st.integers(1, 5)))
    vec = draw(st.lists(st.one_of(st.just(gr(0)), oracle_complex), min_size=cols, max_size=cols))
    row_idx = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows))
    col_idx = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=cols))
    return a, b, c, scalar, vec, row_idx, col_idx


@settings(max_examples=300, deadline=None)
@given(_oracle_operands())
def test_matrix_operations_match_entry_oracle(operands):
    (a, ref_a), (b, ref_b), (c, ref_c), scalar, vec, row_idx, col_idx = operands
    s = gr(scalar)
    for m, ref in ((a, ref_a), (b, ref_b), (c, ref_c)):
        _assert_same(m, ref)
    _assert_same(a + b, ref_a.zip_with(ref_b, operator.add))
    _assert_same(a - b, ref_a.zip_with(ref_b, operator.sub))
    _assert_same(-a, ref_a.map(operator.neg))
    _assert_same(a * scalar, ref_a.map(lambda x: x * s))
    _assert_same(scalar * a, ref_a.map(lambda x: s * x))
    _assert_same(a * c, ref_a.matmul(ref_c))
    assert a.apply(vec) == ref_a.apply(vec)
    _assert_same(a.transpose(), ref_a.transpose())
    _assert_same(a.submatrix(row_idx, col_idx), ref_a.submatrix(row_idx, col_idx))
    if a.is_square:
        assert a.trace() == ref_a.trace()
    else:
        with pytest.raises(DimensionMismatch):
            a.trace()
    assert a.is_zero() == (not any(ref_a.entries))
    assert a.nonzero_count() == sum(1 for x in ref_a.entries if x)
    assert a.scalar_value() == ref_a.scalar_value()
    assert [a.entry(i, j) for i in range(a.rows) for j in range(a.cols)] == list(ref_a.entries)
    assert (a == b) == (ref_a.entries == ref_b.entries)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda r: st.integers(1, 6).flatmap(lambda c: _matrices(r, c, oracle_complex))))
def test_matrix_text_roundtrip_property(m):
    text = m.to_text()
    assert ExactMatrix.from_text(text) == m
    # line breaks carry no meaning
    assert ExactMatrix.from_text(" ".join(text.split())).to_text() == text


def test_matrix_text_rejects_a_nonpositive_header():
    with pytest.raises(ValueError, match="positive dimensions"):
        ExactMatrix.from_text("2 -2 1/1 0/1 0/1 1/1")
    with pytest.raises(ValueError):
        ExactMatrix.from_text("2 x 1/1 0/1")


def test_matrix_text_roundtrip():
    m = ExactMatrix.from_rows(
        [[Fraction(1, 2), GaussianRational(0, Fraction(-2, 3))], [5, 0]]
    )
    text = m.to_text()
    assert text.splitlines()[0] == "2 2"
    assert ExactMatrix.from_text(text) == m
    with pytest.raises(ValueError):
        ExactMatrix.from_text("2 2\n1/1 2/1\n3/1")


def test_scalar_detection():
    assert ExactMatrix.scalar_matrix(3, Fraction(3, 16)).scalar_value() == gr(
        Fraction(3, 16)
    )
    assert ExactMatrix.from_rows([[1, 1], [0, 1]]).scalar_value() is None
    assert ExactMatrix.zeros(2, 2).scalar_value() == gr(0)


@st.composite
def _apply_operands(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["real", "complex", "zero"]))
    values = st.just(gr(0)) if kind == "zero" else oracle_real if kind == "real" else oracle_complex
    flat = draw(st.lists(st.one_of(st.just(gr(0)), values), min_size=rows * cols, max_size=rows * cols))
    vec_values = draw(st.sampled_from([st.just(gr(0)), oracle_real, oracle_complex]))
    vec = draw(st.lists(st.one_of(st.just(gr(0)), vec_values), min_size=cols, max_size=cols))
    return ExactMatrix(rows, cols, flat), vec


@settings(max_examples=200, deadline=None)
@given(_apply_operands())
def test_apply_matches_one_column_product(operands):
    m, vec = operands
    assert m.apply(vec) == (m * ExactMatrix(m.cols, 1, vec)).entries


# -- differential test against an always-realifying span -----------------------


class _RealifiedSpan:
    """Reference span: every vector realified in interleaved coordinates
    (re_0, im_0, re_1, im_1, ...) and stored next to its i-multiple."""

    def __init__(self, length):
        self.length = length
        self._echelon = _IntEchelon()

    @property
    def rank(self):
        assert self._echelon.rank % 2 == 0
        return self._echelon.rank // 2

    def _realify(self, vec):
        _den, re_part, im_part = _vector_ints(vec)
        flat = [0] * (2 * self.length)
        flat[::2] = re_part
        if im_part is not None:
            flat[1::2] = im_part
        return flat

    def add(self, vec):
        flat = self._realify(vec)
        grew = self._echelon.add(flat)
        if grew:
            turned = [0] * len(flat)
            turned[::2] = [-x for x in flat[1::2]]
            turned[1::2] = flat[::2]
            self._echelon.add(turned)
        return grew

    def contains(self, vec):
        return self._echelon.contains(self._realify(vec))

    def reduced_basis(self):
        found = []
        for piv, row in zip(self._echelon.pivots, self._echelon.reduced()):
            if piv % 2 == 0:
                found.append((piv // 2, tuple(map(_make, row[::2], row[1::2], repeat(row[piv])))))
        found.sort(key=lambda pair: pair[0])
        return [piv for piv, _row in found], [row for _piv, row in found]


@st.composite
def _span_feeds(draw):
    """A vector length, 0-5 real vectors, then 0-4 vectors with imaginary parts
    (or real ones), each paired with a probe; some vectors and probes are
    combinations of earlier vectors, so that not every add grows the span."""
    length = draw(st.integers(1, 6))
    small = st.sampled_from([gr(0), gr(1), gr(-1), gr(2), gr(Fraction(1, 2))])
    complex_coeffs = st.one_of(small, st.sampled_from([I, -I, gr(1) + I, gr(Fraction(1, 3)) - I]))

    def vector(entries, coeffs, earlier):
        if earlier and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(earlier), min_size=1, max_size=3))
            weights = [draw(coeffs) for _ in picks]
            return [sum((w * v[k] for w, v in zip(weights, picks)), gr(0)) for k in range(length)]
        return draw(st.lists(st.one_of(st.just(gr(0)), entries), min_size=length, max_size=length))

    feed = []
    for phase, count in (("real", draw(st.integers(0, 5))), ("complex", draw(st.integers(0, 4)))):
        entries, coeffs = (oracle_real, small) if phase == "real" else (oracle_complex, complex_coeffs)
        for _ in range(count):
            earlier = [v for v, _probe in feed]
            feed.append((vector(entries, coeffs, earlier), vector(oracle_complex, complex_coeffs, earlier)))
    return length, feed


def _assert_spans_agree(span, oracle, probe):
    assert span.rank == oracle.rank
    assert span.contains(probe) == oracle.contains(probe)
    assert span.reduced_basis() == oracle.reduced_basis()


@settings(max_examples=200, deadline=None)
@given(_span_feeds())
def test_span_matches_realified_oracle(case):
    length, feed = case
    span, oracle = VectorSpan(length), _RealifiedSpan(length)
    switched = False
    for vec, probe in feed:
        assert span.add(vec) == oracle.add(vec)
        _assert_spans_agree(span, oracle, probe)
        switched = switched or any(x.im for x in vec)
        if switched:
            mine, theirs = span._echelon, oracle._echelon
            assert mine.rows == theirs.rows
            assert mine.pivots == theirs.pivots
            assert mine.pivot_values == theirs.pivot_values


def test_span_realifies_once_on_the_first_complex_vector():
    span, oracle = VectorSpan(3), _RealifiedSpan(3)
    for vec in ([gr(1), gr(2), gr(0)], [gr(0), gr(3), gr(1)], [gr(1), I, gr(0)], [I, 2 * I, gr(0)]):
        span.add(vec)
        oracle.add(vec)
    assert span.rank == oracle.rank == 3
    assert span._echelon.rows == oracle._echelon.rows
    _assert_spans_agree(span, oracle, [gr(0), gr(0), I])

"""Exact linear algebra: row reduction, kernels, minimal polynomials,
eigen splitting and Gaussian-rational root search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from racahlab.errors import RootsMismatch
from racahlab.gaussian import GaussianRational, I, gr
from racahlab.matrix import (
    ExactMatrix,
    Subspace,
    eigen_split,
    kernel_basis,
    minimal_polynomial,
    rational_roots,
    rref,
    solve_columns,
)
from racahlab.polynomial import Poly


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


def test_subspace_canonical_equality():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.from_vectors(3, [[1, 1, 1], [0, 0, 2]])
    assert a == b
    assert a.dim == 2
    assert a.contains([2, 2, 5])
    assert not a.contains([1, 0, 0])


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

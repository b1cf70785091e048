"""Leonard-triple certification: orderings, verdicts, invariances."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from racahlab import leonard as leonard_module, matrix as matrix_module
from racahlab.errors import NonSplitting, RootsMismatch
from racahlab.leonard import check
from racahlab.matrix import ExactMatrix
from racahlab.rd import (
    RdParams,
    construct,
    is_irreducible,
    leonard_hints,
    min_polys,
    theta_eps_list,
    theta_list,
    theta_star_list,
)

Q = Fraction(-1, 4)


def _triple(params):
    rep = construct(params)
    return rep.A, rep.B, rep.C


def test_symmetric_point_passes():
    report = check(*_triple(RdParams(Q, Q, Q, 1)))
    assert report.passed
    for cond in report.conditions:
        assert cond.ordering is not None
        for m in cond.tridiagonals:
            assert m.entry(0, 1) and m.entry(1, 0)


def test_nondiagonalizable_fails_first_condition():
    report = check(*_triple(RdParams(Fraction(-1, 2), 1, 1, 2)))
    assert not report.passed
    assert report.conditions[0].reason == "not diagonalizable"
    assert report.conditions[1].passed and report.conditions[2].passed


def test_one_dimensional_vacuous():
    m = ExactMatrix.from_rows([[Fraction(5, 3)]])
    assert check(m, m, m).passed


def test_verdict_invariant_under_permutation():
    ops = _triple(RdParams(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), 2))
    verdicts = {check(*perm).passed for perm in permutations(ops)}
    assert verdicts == {True}
    bad = _triple(RdParams(Fraction(-1, 2), 1, 1, 2))
    verdicts = {check(*perm).passed for perm in permutations(bad)}
    assert verdicts == {False}


def _random_unimodular(rng: random.Random, n: int) -> ExactMatrix:
    m = ExactMatrix.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        shear = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        shear[i][j] = rng.randint(-2, 2)
        m = m * ExactMatrix.from_rows(shear)
    return m


def test_verdict_invariant_under_conjugation():
    from racahlab.matrix import solve_columns

    rng = random.Random(23)
    ops = _triple(RdParams(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), 2))
    for _ in range(3):
        g = _random_unimodular(rng, 3)
        conjugated = [solve_columns(g, m * g) for m in ops]
        assert all(c is not None for c in conjugated)
        assert check(*conjugated).passed


def test_eigenbasis_ordering_matches_diagonal_sequence():
    params = RdParams(Q, Q, Q, 1)
    a, b, c = _triple(params)
    report = check(a, b, c)
    cond_b = report.conditions[1]
    assert set(cond_b.eigenvalues) == set(theta_star_list(params))


def test_hints_are_validated():
    ops = _triple(RdParams(Q, Q, Q, 1))
    good = (
        [Fraction(5, 16), Fraction(-3, 16)],
        [Fraction(5, 16), Fraction(-3, 16)],
        [Fraction(5, 16), Fraction(-3, 16)],
    )
    assert check(*ops, hints=good).passed
    with pytest.raises(RootsMismatch, match="missing roots: -3/16"):
        check(*ops, hints=([Fraction(5, 16)], good[1], good[2]))
    with pytest.raises(RootsMismatch, match="1/1 is not a root"):
        check(*ops, hints=(good[0], good[1], [Fraction(5, 16), 1, Fraction(-3, 16)]))


def test_non_splitting_needs_hints():
    # eigenvalues of [[0,1],[2,0]] are +-sqrt(2), outside the field
    m = ExactMatrix.from_rows([[0, 1], [2, 0]])
    other = ExactMatrix.diagonal([1, 2])
    with pytest.raises(NonSplitting):
        check(m, other, other)


def test_hinted_check_agrees_with_generic():
    for params in (
        RdParams(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), 2),
        RdParams(1, 1, 1, 2),
    ):
        ops = _triple(params)
        hints = []
        for seq in (theta_list(params), theta_star_list(params), theta_eps_list(params)):
            distinct = []
            for v in seq:
                if v not in distinct:
                    distinct.append(v)
            hints.append(distinct)
        assert check(*ops).passed == check(*ops, hints=hints).passed


def test_hinted_simple_spectra_need_no_kernel_solve_or_root_search(monkeypatch):
    """On an irreducible R_6 whose three spectra are simple, a hinted check
    takes every eigenline from the minimal polynomials' quotients and every
    conjugate from products: no kernel, no solve and no root search."""
    params = RdParams(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), 6)
    assert is_irreducible(params)
    hints = leonard_hints(params)
    assert all(len(h) == 7 for h in hints)
    min_polys(params)  # the memoized minimal polynomials, as in a module check
    for name in ("kernel_basis", "solve_columns", "rational_roots"):
        for module in (matrix_module, leonard_module):
            spy = lambda *args, name=name: pytest.fail(f"{name} ran")  # noqa: E731
            monkeypatch.setattr(module, name, spy, raising=False)
    report = check(*_triple(params), hints=hints)
    assert report.passed
    assert [c.eigenvalues for c in report.conditions] == [
        tuple(h[k] for k in c.ordering) for h, c in zip(hints, report.conditions)
    ]

"""The bidiagonal module family: construction, classification, windows."""

import random
from fractions import Fraction

import pytest

from racahlab import leonard, matrix as matrix_module, span as span_module
from racahlab.cli import sample_params
from racahlab.errors import NotIrreducible
from racahlab.gaussian import GaussianRational, gr
from racahlab.matrix import ExactMatrix, minimal_polynomial, rational_roots, solve_columns
from racahlab.polynomial import Poly
from racahlab.racah import verify_presentation, tau_twist
from racahlab.rd import (
    IsoClass,
    RdParams,
    burnside_irreducible,
    central_scalars,
    construct,
    is_irreducible,
    iso_class,
    iso_class_of,
    leonard_criterion,
    min_polys,
    parameter_diagonalizable,
    recover_parameter,
    theta_list,
)

Q = Fraction(-1, 4)


def _random_params(rng: random.Random, d: int) -> RdParams:
    def scalar():
        return GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-1, 1), 1),
        )

    return RdParams(scalar(), scalar(), scalar(), d)


def test_construct_symmetric_point_matrices():
    rep = construct(RdParams(Q, Q, Q, 1))
    assert rep.A == ExactMatrix.from_rows([[Fraction(5, 16), 0], [1, Fraction(-3, 16)]])
    assert rep.B == ExactMatrix.from_rows(
        [[Fraction(5, 16), Fraction(-3, 16)], [0, Fraction(-3, 16)]]
    )
    assert rep.C == ExactMatrix.from_rows(
        [[Fraction(-7, 16), Fraction(3, 16)], [-1, Fraction(9, 16)]]
    )
    assert central_scalars(RdParams(Q, Q, Q, 1))["delta"] == gr(Fraction(3, 16))


def test_construct_one_dimensional():
    rep = construct(RdParams(2, 3, 5, 0))
    assert rep.A.entry(0, 0) == gr(6)
    assert rep.B.entry(0, 0) == gr(12)
    assert rep.Delta.entry(0, 0) == gr(0)


def test_trace_closed_form():
    # direct summation oracle: theta values for a=1, d=2 are 6, 2, 0.
    rep = construct(RdParams(1, 1, 1, 2))
    assert [t.token() for t in theta_list(RdParams(1, 1, 1, 2))] == ["6/1", "2/1", "0/1"]
    assert rep.A.trace() == gr(8)
    d = 2
    assert rep.A.trace() == gr((1 * 2 + Fraction(d * (d + 2), 12)) * (d + 1))


def test_construct_passes_presentation_randomized():
    rng = random.Random(42)
    for _ in range(12):
        d = rng.randint(0, 5)
        rep = construct(_random_params(rng, d))
        assert verify_presentation(rep).ok


def test_central_scalars_randomized():
    from racahlab.racah import central_values

    rng = random.Random(7)
    for _ in range(8):
        params = _random_params(rng, rng.randint(0, 4))
        scalars = central_values(construct(params)).scalars()
        closed = central_scalars(params)
        for name in ("alpha", "beta", "gamma", "delta"):
            assert scalars[name] == closed[name]


def test_symmetric_parameters_kill_central_values():
    params = RdParams(Fraction(2, 5), Fraction(2, 5), Fraction(2, 5), 3)
    closed = central_scalars(params)
    assert closed["alpha"] == gr(0)
    assert closed["beta"] == gr(0)
    assert closed["gamma"] == gr(0)


class TestIrreducibility:
    def test_symmetric_point(self):
        witness = is_irreducible(RdParams(Q, Q, Q, 1))
        assert witness
        assert witness.forbidden == (gr(Fraction(-1, 2)),)

    def test_reducible_example(self):
        witness = is_irreducible(RdParams(0, 0, Fraction(1, 2), 1))
        assert not witness
        assert "a+b-c" in witness.hits

    def test_d_zero_always_irreducible(self):
        assert is_irreducible(RdParams(9, -7, Fraction(1, 3), 0))

    def test_agrees_with_burnside(self):
        rng = random.Random(3)
        for _ in range(15):
            params = _random_params(rng, rng.randint(0, 4))
            assert bool(is_irreducible(params)) == burnside_irreducible(
                construct(params)
            )


class TestIsoClass:
    def test_symmetric_point_values(self):
        rep = construct(RdParams(Q, Q, Q, 1))
        ic = iso_class(rep, 1)
        assert ic == IsoClass(1, gr(Fraction(-3, 16)), gr(Fraction(-3, 16)), gr(Fraction(-3, 16)))
        assert rep.A.trace() == gr(Fraction(1, 8))

    def test_parameter_flip_invariance(self):
        a, b, c = Fraction(1, 3), Fraction(-2, 7), 2
        base = iso_class_of(RdParams(a, b, c, 2))
        flipped = iso_class_of(RdParams(Fraction(-1) - a, b, c, 2))
        assert base == flipped

    def test_tau_twist_preserves_class(self):
        a, b, c = Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5)
        twisted = tau_twist(construct(RdParams(c, a, b, 2)))
        assert iso_class(twisted, 2) == iso_class_of(RdParams(a, b, c, 2))

    def test_not_irreducible_raises(self):
        rep = construct(RdParams(0, 0, Fraction(1, 2), 1))
        with pytest.raises(NotIrreducible):
            iso_class(rep, 1)

    def test_recover_parameter_picks_larger_root(self):
        assert recover_parameter(gr(Fraction(-3, 16))) == gr(Q)
        assert recover_parameter(gr(0)) == gr(0)
        assert recover_parameter(gr(2)) == gr(1)


class TestMinPolys:
    def test_symmetric_point(self):
        pa, pb, pc = min_polys(RdParams(Q, Q, Q, 1))
        expected = Poly.from_roots([Fraction(5, 16), Fraction(-3, 16)])
        assert pa == expected and pb == expected and pc == expected

    def test_d_zero_linear(self):
        for p in min_polys(RdParams(2, 3, 5, 0)):
            assert p.degree == 1

    def test_repeated_eigenvalue_keeps_multiplicity(self):
        # theta values 3/4, -1/4, 3/4: the matrix is nonderogatory, so the
        # minimal polynomial keeps the square factor (degree 3), which the
        # matrix oracle inside min_polys confirms.
        params = RdParams(Fraction(-1, 2), 1, 1, 2)
        pa, _pb, _pc = min_polys(params)
        assert pa.degree == 3
        assert pa == Poly.from_roots([Fraction(3, 4), Fraction(-1, 4), Fraction(3, 4)])
        rep = construct(params)
        assert minimal_polynomial(rep.A) == pa

    def test_reducible_raises(self):
        with pytest.raises(NotIrreducible):
            min_polys(RdParams(0, 0, Fraction(1, 2), 1))


class TestLeonardWindow:
    def test_symmetric_point_inside(self):
        assert leonard_criterion(RdParams(Q, Q, Q, 1)) is True

    def test_half_integer_outside(self):
        assert leonard_criterion(RdParams(Fraction(-1, 2), 1, 1, 2)) is False

    def test_d_zero_vacuous(self):
        assert leonard_criterion(RdParams(7, -3, Fraction(1, 9), 0)) is True

    def test_window_matches_squarefree_minimal_polynomial(self):
        rng = random.Random(19)
        hits = 0
        for _ in range(20):
            params = _random_params(rng, rng.randint(1, 4))
            if not is_irreducible(params):
                continue
            hits += 1
            polys = min_polys(params)
            for poly, value in zip(polys, (params.a, params.b, params.c)):
                assert poly.is_squarefree == parameter_diagonalizable(value, params.d)
        assert hits > 5


def test_sampled_irreducible_r6_is_certified_mod_p(monkeypatch):
    """Irreducible draws from the suite's sampling box at d = 6 are certified
    without the exact closure, and each generator's minimal polynomial takes
    one exact solve, from the end of the basis that is cyclic."""

    def exact_closure(gens):
        raise AssertionError("the exact closure ran")

    solves = []

    def spy(a, b):
        solves.append(a.cols)
        return solve_columns(a, b)

    monkeypatch.setattr(span_module, "algebra_closure", exact_closure)
    monkeypatch.setattr(matrix_module, "solve_columns", spy)
    rng = random.Random(5)
    draws = [p for p in (sample_params(rng, 6) for _ in range(12)) if is_irreducible(p)]
    assert len(draws) >= 8
    for params in draws:
        rep = construct(params)
        assert burnside_irreducible(rep)
        for op in (rep.A, rep.B, rep.C):
            # a memo hit would count no solve at all
            minimal_polynomial.cache_clear()
            solves.clear()
            minimal_polynomial(op)
            assert len(solves) == 1


def test_irreducible_r16_takes_the_certificates(monkeypatch):
    """On an irreducible R_16 draw Norton's test certifies Burnside with two
    spins of n vectors mod P, after one more for A's minimal polynomial, no
    walk of the matrix algebra and no exact closure, and no root search of
    the three minimal polynomials runs the exact gcd."""
    params = RdParams(GaussianRational(Fraction(2, 3), Fraction(1, 3)), GaussianRational(-2, 1),
                      GaussianRational(3, 1), 16)
    assert is_irreducible(params)
    rep = construct(params)
    walks, gcds = [], []
    walk, gcd = matrix_module._walk, Poly.gcd

    def walk_spy(seeds, gens, product, add, full):
        walks.append(full)
        return walk(seeds, gens, product, add, full)

    def gcd_spy(self, other):
        gcds.append(self)
        return gcd(self, other)

    def exact_closure(gens):
        raise AssertionError("the exact closure ran")

    monkeypatch.setattr(matrix_module, "_walk", walk_spy)
    monkeypatch.setattr(span_module, "algebra_closure", exact_closure)
    monkeypatch.setattr(Poly, "gcd", gcd_spy)
    # so that no earlier test decides what runs here
    minimal_polynomial.cache_clear()
    rational_roots.cache_clear()
    assert burnside_irreducible(rep)
    # A's cyclic vector, then the two spins of Norton's test
    assert walks == [rep.dim, rep.dim, rep.dim]
    for op in (rep.A, rep.B, rep.C):
        assert rational_roots(minimal_polynomial(op)).splits
    assert gcds == []


def test_root_search_runs_once_per_polynomial(monkeypatch):
    """Norton's test and the Leonard check of one R_6 draw share each root
    search of a minimal polynomial."""
    params = RdParams(GaussianRational(Fraction(2, 3), Fraction(1, 3)), GaussianRational(-2, 1),
                      GaussianRational(3, 1), 6)
    rep = construct(params)
    searched = []
    certify = matrix_module._squarefree_mod_p

    def spy(p):
        searched.append(p)
        return certify(p)

    monkeypatch.setattr(matrix_module, "_squarefree_mod_p", spy)
    minimal_polynomial.cache_clear()
    rational_roots.cache_clear()
    assert burnside_irreducible(rep)
    assert leonard.check(rep.A, rep.B, rep.C).passed
    polys = [minimal_polynomial(op) for op in (rep.A, rep.B, rep.C)]
    assert sorted(map(polys.index, searched)) == [0, 1, 2]


def test_min_polys_reuses_the_built_module():
    params = RdParams(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), 3)
    construct.cache_clear()
    construct(params)
    min_polys(params)
    assert construct.cache_info().misses == 1

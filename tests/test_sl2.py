"""Concrete modules: irreducibles, halves, the cube and its operators."""

from fractions import Fraction

import pytest

from racahlab import sl2
from racahlab.gaussian import gr
from racahlab.pbw import CheckResult
from racahlab.matrix import ExactMatrix, commutator
from racahlab.racah import central_values, verify_presentation
from racahlab.sl2 import (
    Sl2Rep,
    build_Ln,
    build_hypercube,
    casimir_matrix,
    even_halves,
    even_pullback,
    half_pullback,
    halved_cube,
    hypercube_space,
    johnson_adjacency,
    relation_checks,
    sharp_pullback,
    verify_hypercube,
)


def test_build_Ln_smallest():
    rep = build_Ln(0)
    assert rep.E.is_zero() and rep.F.is_zero() and rep.H.is_zero()


def test_build_Ln_weights_and_relations():
    rep = build_Ln(2)
    assert rep.H == ExactMatrix.diagonal([2, 0, -2])
    assert all(c.passed for c in relation_checks(rep))


def test_casimir_scalar_on_Ln():
    for n in range(6):
        value = casimir_matrix(build_Ln(n)).scalar_value()
        assert value == gr(Fraction(n * (n + 2), 2))


def test_even_halves_dimensions():
    assert [h.dim for h in even_halves(build_Ln(3)) if h] == [2, 2]
    assert [h.dim for h in even_halves(build_Ln(4)) if h] == [3, 2]
    h0, h1 = even_halves(build_Ln(0))
    assert h0.dim == 1 and h1 is None


def test_even_halves_reject_nonstandard_basis():
    rep = build_Ln(2)
    scrambled = Sl2Rep(3, rep.E, rep.F, ExactMatrix.diagonal([0, 2, -2]), rep.labels)
    with pytest.raises(ValueError):
        even_halves(scrambled)


def test_half_pullback_matches_full_pullback_on_L3():
    rep = build_Ln(3)
    pull = sharp_pullback(rep)
    h0, _h1 = even_halves(rep)
    half_pull = half_pullback(h0)
    idx = h0.indices
    assert half_pull.A == pull.A.submatrix(idx, idx)
    assert half_pull.B == pull.B.submatrix(idx, idx)


def test_pullback_central_values():
    pull = sharp_pullback(build_Ln(3))
    scalars = central_values(pull).scalars()
    assert scalars["alpha"] == gr(0)
    assert scalars["beta"] == gr(0)
    assert scalars["gamma"] == gr(0)
    assert scalars["delta"] == gr(Fraction(3, 16))


def test_pullback_delta_is_shifted_casimir():
    # on any pullback the central sum acts as (casimir - 6)/8
    rep, _ops = build_hypercube(3)
    pull = sharp_pullback(rep)
    values = central_values(pull)
    assert values.alpha.is_zero() and values.beta.is_zero() and values.gamma.is_zero()
    expected = (casimir_matrix(rep) - ExactMatrix.scalar_matrix(rep.dim, 6)) * gr(
        Fraction(1, 8)
    )
    assert values.delta == expected


class TestHypercube:
    def test_space_counts(self):
        space = hypercube_space(3)
        assert len(space.vertices) == 8
        assert len(space.r1) == 12  # edges of the 3-cube
        assert len(space.r2) == 12
        assert space.labels[0] == "{}"
        assert space.labels[5] == "{1,3}"

    def test_d2_matrices(self):
        rep, ops = build_hypercube(2)
        assert rep.H == ExactMatrix.diagonal([2, 0, 0, -2])
        assert ops.A2star == ExactMatrix.diagonal([1, -1, -1, 1])
        # level-1 swap is the only level-preserving distance-2 pair
        expected = ExactMatrix.from_rows(
            [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
        )
        assert ops.A2J == expected

    def test_d2_pullback_diagonal(self):
        rep, _ops = build_hypercube(2)
        pull = sharp_pullback(rep)
        assert pull.B == ExactMatrix.diagonal(
            [0, Fraction(-1, 4), Fraction(-1, 4), 0]
        )
        assert verify_presentation(pull).ok

    def test_relations_hold(self):
        rep, _ops = build_hypercube(3)
        assert commutator(rep.E, rep.F) == rep.H

    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_full_check_suite(self, D):
        checks = verify_hypercube(D)
        assert checks and all(c.passed for c in checks)

    def test_johnson_blocks(self):
        _rep, ops = build_hypercube(4)
        space = hypercube_space(4)
        for k in range(5):
            idx = [v for v in space.vertices if v.bit_count() == k]
            assert ops.A2J.submatrix(idx, idx) == johnson_adjacency(4, k)

    def test_cap(self):
        with pytest.raises(ValueError):
            build_hypercube(13)


@pytest.fixture
def counted_checks(monkeypatch):
    """An empty cube cache and a hypercube_checks that records each D it checks.

    Appending to ``planted`` adds those results to every later pass.
    """
    seen, planted = [], []
    original = sl2.hypercube_checks

    def counted(rep, ops, space):
        seen.append(space.D)
        return original(rep, ops, space) + planted

    monkeypatch.setattr(sl2, "hypercube_checks", counted)
    sl2._checked_hypercube.cache_clear()
    yield seen, planted
    sl2._checked_hypercube.cache_clear()


def test_build_and_verify_share_one_checked_build(counted_checks):
    seen, _planted = counted_checks
    built = build_hypercube(3)
    checks = verify_hypercube(3)
    assert build_hypercube(3) == built
    assert seen == [3]
    assert checks and all(c.passed for c in checks)


def test_failed_build_check_raises_but_is_reported(counted_checks):
    _seen, planted = counted_checks
    planted.append(CheckResult("planted failure", False, 1))
    assert [c.identity for c in verify_hypercube(2) if not c.passed] == ["planted failure"]
    with pytest.raises(ArithmeticError, match="planted failure"):
        build_hypercube(2)


def test_halved_cube_dimensions():
    assert halved_cube(2).dim == 2
    assert halved_cube(4).dim == 8


def test_halved_cube_operators_preserve_even_levels():
    hc = halved_cube(3)
    assert hc.dim == 4
    assert set(hc.te_ops) == {"E2", "F2", "H", "Casimir"}
    assert set(hc.re_ops) == {"A", "B", "C", "Delta"}
    for m in list(hc.te_ops.values()) + list(hc.re_ops.values()):
        assert m.rows == 4


def test_even_pullback_is_verified():
    h0, _h1 = even_halves(build_Ln(5))
    rep = even_pullback(h0.E2, h0.F2, h0.H, h0.Lam)
    assert rep.verified

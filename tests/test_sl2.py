"""Concrete modules: irreducibles, halves, the cube and its operators."""

import json
from dataclasses import replace
from fractions import Fraction
import pytest
from dense_cube import build as dense_build, forbid_dense_cube, johnson_adjacency, r2, r2_split_operators

from racahlab import decompose, orbit
from racahlab.cli import main
from racahlab.errors import RelationFailure
from racahlab.gaussian import GaussianRational, gr
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
    hypercube_checks,
    hypercube_space,
    relation_checks,
    sharp_pullback,
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
    scrambled = Sl2Rep(3, rep.E, rep.F, ExactMatrix.diagonal([0, 2, -2]))
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
        assert len(r2(3)) == 12

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
        checks = list(orbit.cube_build(D)[1])
        assert checks and all(c.passed for c in checks)
        rep, ops = build_hypercube(D)
        assert hypercube_checks(rep, ops, hypercube_space(D)) == checks

    def test_johnson_blocks(self):
        _rep, ops = build_hypercube(4)
        space = hypercube_space(4)
        for k in range(5):
            idx = [v for v in space.vertices if v.bit_count() == k]
            assert ops.A2J.submatrix(idx, idx) == johnson_adjacency(4, k)

    def test_cap(self):
        with pytest.raises(ValueError):
            build_hypercube(13)
        with pytest.raises(ValueError, match="capped at D = 8"):
            hypercube_space(9)

    @pytest.mark.parametrize("D", range(2, 9))
    def test_build_matches_dense_oracle(self, D):
        assert build_hypercube(D) == dense_build(D)

    def test_dense_cube_guard_raises(self, monkeypatch):
        build_hypercube(2)
        forbid_dense_cube(monkeypatch)
        with pytest.raises(AssertionError, match="dense cube build at D=2"):
            build_hypercube(2)


# -- the dense oracle of the cube's check list -----------------------------


def dense_hypercube_checks(rep, ops, space):
    """The cube's check list on dense 2^D matrices: each residual's count is
    its number of nonzero entries."""
    D = space.D
    n = rep.dim
    checks = list(relation_checks(rep))
    below, equal, above = r2_split_operators(D)
    lam_diag = ExactMatrix.diagonal(
        [D + Fraction((D - 2 * x.bit_count()) ** 2, 2) for x in space.vertices]
    )
    pull = sharp_pullback(rep)
    shift = ExactMatrix.scalar_matrix(n, GaussianRational(Fraction(D, 16) - Fraction(1, 4)))
    eighth = gr(Fraction(1, 8))
    half_d = ExactMatrix.scalar_matrix(n, GaussianRational(2 - Fraction(D, 2)))
    b_closed = ExactMatrix.diagonal(
        [Fraction((D - 2 * x.bit_count()) ** 2, 16) - Fraction(1, 4) for x in space.vertices]
    )
    for label, residual in (
        ("E^2 = 2 * (distance-2 sum below)", rep.E * rep.E - below * 2),
        ("F^2 = 2 * (distance-2 sum above)", rep.F * rep.F - above * 2),
        ("Casimir = (D + (D-2|x|)^2/2) + 2 * (distance-2 sum on level)",
         casimir_matrix(rep) - lam_diag - equal * 2),
        ("A2J + A2Jbar = full distance-2 operator", ops.A2J + ops.A2Jbar - below - equal - above),
        ("A2J = level-preserving distance-2 sum", ops.A2J - equal),
        ("pullback A = D/16 - 1/4 + (A2J + A2Jbar)/8", pull.A - shift - (ops.A2J + ops.A2Jbar) * eighth),
        ("pullback B = D/16 - 1/4 + A2star/8", pull.B - shift - ops.A2star * eighth),
        ("pullback C = D/16 - 1/4 + (A2J - A2Jbar)/8", pull.C - shift - (ops.A2J - ops.A2Jbar) * eighth),
        ("A2J = 2 - D/2 + 4(A + C)", ops.A2J - half_d - (pull.A + pull.C) * 4),
        ("A2Jbar = 4(A - C)", ops.A2Jbar - (pull.A - pull.C) * 4),
        ("A2star = 2 - D/2 + 8B", ops.A2star - half_d - pull.B * 8),
        ("pullback B is the dual-distance diagonal closed form", pull.B - b_closed),
    ):
        checks.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    blocks_ok = all(
        ops.A2J.submatrix(idx, idx) == johnson_adjacency(D, k)
        for k in range(D + 1)
        for idx in [[v for v in space.vertices if v.bit_count() == k]]
    )
    checks.append(CheckResult("A2J level blocks are subset-graph adjacencies", blocks_ok, 0 if blocks_ok else 1))
    return checks


@pytest.mark.parametrize("D", range(2, 8))
def test_check_list_matches_dense_oracle(D):
    rep, ops = dense_build(D)
    space = hypercube_space(D)
    perturbed = replace(ops, A2J=ops.A2J + ExactMatrix.identity(rep.dim))
    for graph in (ops, perturbed):
        assert hypercube_checks(rep, graph, space) == dense_hypercube_checks(rep, graph, space)
    failed = [c for c in hypercube_checks(rep, perturbed, space) if not c.passed]
    assert len(failed) == 6 and all(c.residual_term_count for c in failed)


def test_check_list_rejects_non_invariant_or_fractional_operators():
    rep, ops = build_hypercube(3)
    space = hypercube_space(3)
    unit = ExactMatrix.from_rows([[int((i, j) == (0, 1)) for j in range(8)] for i in range(8)])
    for graph in (replace(ops, A2J=unit), replace(ops, A2Jbar=ops.A2Jbar * gr(Fraction(1, 2)))):
        with pytest.raises(RelationFailure):
            hypercube_checks(rep, graph, space)


@pytest.fixture
def counted_checks(monkeypatch):
    """Empty cube caches and an ``orbit.check_list`` that records each D it checks.

    Appending to ``planted`` adds those results to every later pass.
    """
    seen, planted = [], []
    original = orbit.check_list

    def counted(D, *base):
        seen.append(D)
        ops, checks = original(D, *base)
        return ops, checks + tuple(planted)

    caches = (orbit.cube_build, decompose.cube_operator_closure, decompose.cube_pullback_closure,
              decompose.compare_te_re, decompose.cube_decompose, decompose.halved_decompose)
    monkeypatch.setattr(orbit, "check_list", counted)
    for cache in caches:
        cache.cache_clear()
    yield seen, planted
    for cache in caches:
        cache.cache_clear()


def test_build_and_verify_share_one_checked_build(counted_checks, capsys):
    seen, _planted = counted_checks
    assert main(["hypercube", "verify", "--D", "4"]) == 0
    checks = json.loads(capsys.readouterr().out)
    decompose.cube_operator_closure(4)
    decompose.cube_pullback_closure(4)
    decompose.compare_te_re(4)
    decompose.cube_decompose(4)
    decompose.halved_decompose(4)
    assert orbit.cube_operators(4)["E"] == orbit.cube_build(4)[0][0]
    assert seen == [4]
    assert checks and all(c["pass"] for c in checks)


def test_failed_build_check_raises_but_is_reported(counted_checks, capsys):
    _seen, planted = counted_checks
    planted.append(CheckResult("planted failure", False, 1))
    assert main(["hypercube", "verify", "--D", "2"]) == 1
    checks = json.loads(capsys.readouterr().out)
    assert [c["identity"] for c in checks if not c["pass"]] == ["planted failure"]
    with pytest.raises(ArithmeticError, match="planted failure"):
        orbit.cube_operators(2)


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

"""Operator quadruples: presentation checks, central values, the symmetric
central elements, and the auxiliary relations."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from racahlab.cli import sample_params
from racahlab.errors import DimensionMismatch, RelationFailure
from racahlab.gaussian import GaussianRational, gr
from racahlab.matrix import ExactMatrix
from racahlab.pbw import CheckResult
from racahlab.racah import (
    CentralValues,
    PresentationReport,
    RacahRep,
    casimirs,
    central_values,
    ensure_verified,
    rep_from_text,
    rep_to_text,
    sigma_twist,
    tau_twist,
    verify_presentation,
    verify_section6_relations,
)
from racahlab.rd import RdParams, construct
from racahlab.sl2 import build_Ln, sharp_pullback

Q = Fraction(-1, 4)


@pytest.fixture(scope="module")
def symmetric_rep():
    return construct(RdParams(Q, Q, Q, 1))


def test_constructed_rep_passes(symmetric_rep):
    report = verify_presentation(symmetric_rep)
    assert report.ok
    assert all(c.residual_term_count == 0 for c in report.checks)


def test_counterexample_fails():
    rep = RacahRep(
        2,
        ExactMatrix.diagonal([1, 2]),
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
        ExactMatrix.zeros(2, 2),
        ExactMatrix.zeros(2, 2),
    )
    report = verify_presentation(rep)
    assert not report.ok
    failed = [c.identity for c in report.checks if not c.passed]
    assert "[A,B] = 2*Delta" in failed
    with pytest.raises(RelationFailure) as failure:
        ensure_verified(rep)
    assert isinstance(failure.value, ValueError)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        RacahRep(
            2,
            ExactMatrix.identity(2),
            ExactMatrix.identity(3),
            ExactMatrix.identity(2),
            ExactMatrix.identity(2),
        )


def test_central_values_symmetric_point(symmetric_rep):
    scalars = central_values(symmetric_rep).scalars()
    assert scalars["alpha"] == gr(0)
    assert scalars["beta"] == gr(0)
    assert scalars["gamma"] == gr(0)
    assert scalars["delta"] == gr(Fraction(3, 16))


def test_casimir_scalar_matches_central_substitution(symmetric_rep):
    # cross-check: with the central element acting as 15/2, the image value
    # is -3/1024 (15/2 - 4)(15/2 - 12) = 189/4096.
    omega_a, omega_b, omega_c = casimirs(symmetric_rep)
    expected = gr(Fraction(189, 4096))
    assert omega_a.scalar_value() == expected
    assert omega_b.scalar_value() == expected
    assert omega_c.scalar_value() == expected


def test_casimirs_commute_on_nonsymmetric_rep():
    rep = construct(RdParams(1, Fraction(1, 2), Fraction(-2, 3), 2))
    for omega in casimirs(rep):
        for op in rep.operators().values():
            assert (omega * op - op * omega).is_zero()


def test_section6_relations():
    for params in (
        RdParams(1, 1, 1, 2),
        RdParams(Q, Q, Q, 1),
        RdParams(Fraction(2, 3), Fraction(-1, 5), 2, 3),
    ):
        assert verify_section6_relations(construct(params)).ok


def test_section6_on_scalar_rep():
    s = gr(Fraction(7, 3))
    rep = RacahRep(
        1,
        ExactMatrix.from_rows([[s]]),
        ExactMatrix.from_rows([[s]]),
        ExactMatrix.from_rows([[s]]),
        ExactMatrix.zeros(1, 1),
    )
    assert verify_presentation(rep).ok
    assert verify_section6_relations(rep).ok


def test_twists_stay_verified(symmetric_rep):
    for params in (RdParams(Q, Q, Q, 1), RdParams(2, -1, Fraction(1, 2), 2)):
        rep = construct(params)
        assert verify_presentation(sigma_twist(rep)).ok
        assert verify_presentation(tau_twist(rep)).ok


def test_rep_text_roundtrip(symmetric_rep):
    text = rep_to_text(symmetric_rep)
    assert text.splitlines()[0] == "A"
    restored = rep_from_text(text)
    assert restored == RacahRep(
        symmetric_rep.dim,
        symmetric_rep.A,
        symmetric_rep.B,
        symmetric_rep.C,
        symmetric_rep.Delta,
    )


def test_rep_text_blocks_with_entries_on_one_line(symmetric_rep):
    # Line breaks carry no meaning: all of a block's entries may share a line.
    text = "".join(
        f"{name}\n{m.rows} {m.cols}\n{' '.join(x.token() for x in m.entries)}\n"
        for name, m in symmetric_rep.operators().items()
    )
    assert text.startswith("A\n2 2\n5/16 0/1 1/1 -3/16\nB\n")
    assert rep_from_text(text) == symmetric_rep


def test_rep_text_rejects_bad_labels():
    with pytest.raises(ValueError):
        rep_from_text("X\n1 1\n1/1\n")


@pytest.mark.parametrize(
    "block, message",
    [
        ("A \u0661 \u0661 3", "header '\u0661 \u0661' is not two integers"),
        ("A 1_0 1 3", "header '1_0 1' is not two integers"),
        ("A 1 1 \u0663", "not a Gaussian-rational token"),
        ("A 1 1 1_0", "not a Gaussian-rational token"),
    ],
    ids=["header-digit", "header-underscore", "entry-digit", "entry-underscore"],
)
def test_rep_text_rejects_non_ascii_digits(block, message):
    """'\u0661' and '\u0663' are ARABIC-INDIC ONE and THREE."""
    with pytest.raises(ValueError, match=message):
        rep_from_text(f"{block}\nB 1 1 0\nC 1 1 0\nDelta 1 1 0\n")


def test_rep_text_rejects_repeated_labels():
    with pytest.raises(ValueError, match="repeated block label 'A'"):
        rep_from_text("A 1 1 5\nA 1 1 7\nB 1 1 0\nC 1 1 0\nDelta 1 1 0\n")


_text_scalars = st.one_of(
    st.just(gr(0)),
    st.builds(
        GaussianRational,
        st.fractions(-5, 5, max_denominator=7),
        st.one_of(st.just(0), st.fractions(-5, 5, max_denominator=7)),
    ),
)


@st.composite
def _quadruples(draw):
    n = draw(st.integers(1, 4))
    blocks = [
        ExactMatrix(n, n, draw(st.lists(_text_scalars, min_size=n * n, max_size=n * n)))
        for _ in range(4)
    ]
    return RacahRep(n, *blocks)


@settings(max_examples=60, deadline=None)
@given(_quadruples())
def test_rep_text_roundtrip_property(rep):
    text = rep_to_text(rep)
    assert rep_from_text(text) == rep
    # tokens may be laid out on lines in any way
    assert rep_to_text(rep_from_text(" ".join(text.split()))) == text


# -- the relation layer against a verbatim oracle ------------------------------


def _oracle_presentation(rep):
    """Report and central values with every product multiplied out: no
    scalar shortcut, nothing carried."""
    ops = {"A": rep.A, "B": rep.B, "C": rep.C, "D": rep.Delta}
    prod = {x + y: ops[x] * ops[y] for x in ops for y in ops if x != y}
    central = CentralValues(
        prod["AD"] - prod["DA"] + prod["AC"] - prod["BA"],
        prod["BD"] - prod["DB"] + prod["BA"] - prod["CB"],
        prod["CD"] - prod["DC"] + prod["CB"] - prod["AC"],
        rep.A + rep.B + rep.C,
    )
    residuals = [
        (f"[{x},{y}] = 2*Delta", prod[x + y] - prod[y + x] - rep.Delta * 2)
        for x, y in (("A", "B"), ("B", "C"), ("C", "A"))
    ]
    for name in ("alpha", "beta", "gamma", "delta"):
        m = getattr(central, name)
        for op_name, op in rep.operators().items():
            residuals.append((f"{name} commutes with {op_name}", m * op - op * m))
    checks = [CheckResult(label, r.is_zero(), r.nonzero_count()) for label, r in residuals]
    return PresentationReport(tuple(checks), all(c.passed for c in checks)), central


def _oracle_section6(rep, central):
    """The six auxiliary relations evaluated verbatim, one identity at a time."""
    a, b, c = rep.A, rep.B, rep.C
    al, be, ga, de = central.alpha, central.beta, central.gamma, central.delta
    checks = []
    for label, x, y, cent, sign in (
        ("A^2B - 2ABA + BA^2 - 2AB - 2BA = 2A^2 - 2A*delta + 2alpha", a, b, al, 1),
        ("B^2C - 2BCB + CB^2 - 2BC - 2CB = 2B^2 - 2B*delta + 2beta", b, c, be, 1),
        ("C^2A - 2CAC + AC^2 - 2CA - 2AC = 2C^2 - 2C*delta + 2gamma", c, a, ga, 1),
        ("A^2C - 2ACA + CA^2 - 2AC - 2CA = 2A^2 - 2A*delta - 2alpha", a, c, al, -1),
        ("B^2A - 2BAB + AB^2 - 2BA - 2AB = 2B^2 - 2B*delta - 2beta", b, a, be, -1),
        ("C^2B - 2CBC + BC^2 - 2CB - 2BC = 2C^2 - 2C*delta - 2gamma", c, b, ga, -1),
    ):
        xy = x * y
        yx = y * x
        lhs = x * xy - (x * y * x) * 2 + yx * x - xy * 2 - yx * 2
        rhs = x * x * 2 - (x * de) * 2 + cent * (2 * sign)
        residual = lhs - rhs
        checks.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    return PresentationReport(tuple(checks), all(ch.passed for ch in checks))


def _assert_matches_oracle(rep):
    report, central = _oracle_presentation(rep)
    assert verify_presentation(rep) == report
    if not report.ok:
        return report
    assert central_values(rep) == central
    assert verify_section6_relations(rep) == _oracle_section6(rep, central)
    assert ensure_verified(rep).carried == (report, central)
    return report


def _direct_sum(x, y):
    blocks = []
    for name in ("A", "B", "C", "Delta"):
        p, q = getattr(x, name), getattr(y, name)
        rows = [list(p.row_list(i)) + [0] * q.cols for i in range(p.rows)]
        rows += [[0] * p.cols + list(q.row_list(i)) for i in range(q.rows)]
        blocks.append(ExactMatrix.from_rows(rows))
    return RacahRep(x.dim + y.dim, *blocks)


def test_seeded_draws_match_the_oracle():
    rng = random.Random(17)
    for d in range(7):
        for _ in range(2):
            rep = construct(sample_params(rng, d))
            assert rep.verified
            assert _assert_matches_oracle(rep).ok


def test_pullback_text_and_twists_match_the_oracle():
    pulled = sharp_pullback(build_Ln(4))
    assert pulled.verified and _assert_matches_oracle(pulled).ok
    rep = construct(RdParams(Fraction(2, 3), GaussianRational(-1, 1), Fraction(1, 2), 3))
    for other in (rep_from_text(rep_to_text(rep)), sigma_twist(rep), tau_twist(rep)):
        assert not other.verified  # carries nothing, so it is checked afresh
        assert _assert_matches_oracle(other).ok


def test_replace_drops_the_carried_report():
    rep = construct(RdParams(1, Fraction(1, 2), Fraction(-2, 3), 2))
    assert dataclasses.replace(rep).carried is None
    changed = dataclasses.replace(rep, Delta=rep.Delta * 2)
    assert not changed.verified
    assert not _assert_matches_oracle(changed).ok
    with pytest.raises(RelationFailure):
        ensure_verified(changed)


def test_nonscalar_alpha_is_multiplied_out():
    # a failing quadruple: its alpha commutes with nothing
    planted = RacahRep(
        2,
        ExactMatrix.diagonal([1, 2]),
        ExactMatrix.from_rows([[0, 1], [0, 0]]),
        ExactMatrix.from_rows([[1, 0], [1, 0]]),
        ExactMatrix.from_rows([[0, 1], [2, 3]]),
    )
    report = _assert_matches_oracle(planted)
    assert _oracle_presentation(planted)[1].alpha.scalar_value() is None
    assert any(c.residual_term_count for c in report.checks if c.identity.startswith("alpha"))
    # a passing one: a sum of two modules with different central values, so
    # alpha and delta are central but not scalar
    summed = _direct_sum(
        construct(RdParams(1, Fraction(1, 2), Fraction(-2, 3), 1)),
        construct(RdParams(0, Fraction(1, 3), 2, 1)),
    )
    central = _oracle_presentation(summed)[1]
    assert central.alpha.scalar_value() is None and central.delta.scalar_value() is None
    assert _assert_matches_oracle(summed).ok

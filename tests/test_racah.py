"""Operator quadruples: presentation checks, central values, the symmetric
central elements, and the auxiliary relations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from racahlab.errors import DimensionMismatch, RelationFailure
from racahlab.gaussian import GaussianRational, gr
from racahlab.matrix import ExactMatrix
from racahlab.racah import (
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

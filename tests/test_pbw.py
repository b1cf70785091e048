"""Normal-ordered symbolic algebra: straightening, grading, the
homomorphism images, and the dihedral action."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import pbw_oracle
from racahlab import pbw
from racahlab.gaussian import GaussianRational, I, gr
from racahlab.pbw import E, F, H, PBWElement, casimir, commutator, d3_apply, sharp

HALF = GaussianRational(Fraction(1, 2))


def test_straightening_fe():
    assert F * E == E * F - H


def test_straightening_he():
    # H*E = E*H + 2E
    assert H * E == E * H + E * 2


def test_casimir_normal_form():
    assert casimir() == PBWElement(
        {
            (1, 1, 0): gr(2),
            (0, 0, 1): gr(-1),
            (0, 0, 2): HALF,
        }
    )


def test_casimir_is_central():
    lam = casimir()
    assert commutator(lam, E).is_zero()
    assert commutator(lam, F).is_zero()
    assert commutator(lam, H).is_zero()


monomials = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


@settings(max_examples=60, deadline=None)
@given(monomials, monomials, monomials)
def test_multiplication_associative(m1, m2, m3):
    x = PBWElement.monomial(*m1)
    y = PBWElement.monomial(*m2)
    z = PBWElement.monomial(*m3)
    assert (x * y) * z == x * (y * z)


# coefficients from the box of cli.sample_params: (re + im*i) / den
scalars = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-3, 3),
    st.integers(-1, 1),
    st.integers(1, 3),
)
elements = st.dictionaries(monomials, scalars, max_size=3)


@settings(max_examples=60, deadline=None)
@given(elements, elements, scalars.filter(bool))
def test_product_matches_letter_by_letter_oracle(xs, ys, c):
    x, y = PBWElement(xs), PBWElement(ys)
    assert x * y == PBWElement(pbw_oracle.product(xs, ys))
    assert (x * c) / c == x
    assert x * c == c * x
    assert (x - x).is_zero() and (x - x).term_count == 0


def _assert_canonical(x: PBWElement):
    assert x.den > 0 and all(re or im for re, im in x.nums.values())
    assert gcd(x.den, *(n for pair in x.nums.values() for n in pair)) == 1
    for key, c in x.terms.items():
        assert c == x.coefficient(*key) and c.den > 0
        assert gcd(c.num_re, c.num_im, c.den) == 1


@settings(max_examples=40, deadline=None)
@given(elements, elements)
def test_equal_elements_are_stored_alike(xs, ys):
    x, y = PBWElement(xs), PBWElement(ys)
    for other in ((x + y) - y, x * 6 / 6, -(-x), x * I / I, x + PBWElement.zero()):
        _assert_canonical(other)
        assert (other.den, other.nums) == (x.den, x.nums)
        assert hash(other) == hash(x)
    _assert_canonical(x * y + x)
    assert (x - x).den == 1


def test_scalar_elements_hash_as_their_scalars():
    for value in (0, 2, Fraction(-1, 2), GaussianRational(1, 1)):
        element = PBWElement.scalar(value)
        assert element == value and hash(element) == hash(value)
    assert 2 in {PBWElement.scalar(2)}
    assert PBWElement.zero() in {0}


@settings(max_examples=40, deadline=None)
@given(monomials, monomials)
def test_grading_multiplicative(m1, m2):
    x = PBWElement.monomial(*m1)
    y = PBWElement.monomial(*m2)
    d1 = m1[0] - m1[1]
    d2 = m2[0] - m2[1]
    for comp in (x * y).graded_components():
        assert comp.degree == d1 + d2


def test_graded_components_reassemble():
    element = sharp("Delta") + sharp("B")
    total = PBWElement.zero()
    for comp in element.graded_components():
        for (e, f, _h) in comp.element.terms:
            assert e - f == comp.degree
        total = total + comp.element
    assert total == element


def test_sharp_b_and_delta_components():
    assert sharp("B") == PBWElement(
        {(0, 0, 2): gr(Fraction(1, 16)), (0, 0, 0): gr(Fraction(-1, 4))}
    )
    components = {c.degree: c.element for c in sharp("Delta").graded_components()}
    assert set(components) == {-2, 2}
    assert components[-2] == PBWElement(
        {(0, 2, 1): gr(Fraction(1, 64)), (0, 2, 0): gr(Fraction(-1, 32))}
    )


def test_sharp_central_images():
    assert sharp("alpha").is_zero()
    assert sharp("beta").is_zero()
    assert sharp("gamma").is_zero()
    assert sharp("delta") == (casimir() - PBWElement.scalar(6)) / 8


def test_kernel_rows_evaluate_the_central_elements(monkeypatch):
    """alpha#, beta# and gamma# are evaluated on the generator images, so a
    wrong Delta# makes their kernel rows fail."""
    real = pbw.sharp
    monkeypatch.setattr(pbw, "sharp", lambda name: -real("Delta") if name == "Delta" else real(name))
    real.cache_clear()
    try:
        rows = {r.identity: r.passed for r in pbw.verify_kernel_generators()}
    finally:
        real.cache_clear()
    assert rows["alpha# = 0"] is False and rows["beta# = 0"] is False


def test_sharp_images_are_even():
    for name in pbw.SHARP_NAMES:
        assert sharp(name).is_even()
    assert not E.is_even()
    assert (casimir() * H).is_even()


def test_d3_words_exhaust_the_group():
    # the six canonical words act pairwise differently on the weight generator
    images = [d3_apply(word, H) for word in pbw.D3_WORDS]
    assert len({hash(img) for img in images}) == 6


def test_omega_images_coincide():
    assert sharp("Omega_A") == sharp("Omega_B") == sharp("Omega_C")


def test_identity_suites_all_pass():
    for suite in (
        pbw.verify_sharp_relations,
        pbw.verify_casimir_images,
        pbw.verify_kernel_generators,
        pbw.verify_d3_presentation,
        pbw.verify_equivariance,
        pbw.verify_even_identities,
    ):
        results = suite()
        assert results and all(c.passed for c in results)
        assert all(c.residual_term_count == 0 for c in results if c.passed)


def test_kernel_numeric_cross_check():
    # substitute the scalar 15/2 for the central element:
    # omega = -3/1024 (15/2-4)(15/2-12) = 189/4096, delta = 3/16, f = 0.
    lam = Fraction(15, 2)
    omega = Fraction(-3, 1024) * (lam - 4) * (lam - 12)
    delta = (lam - 6) / 8
    assert omega == Fraction(189, 4096)
    assert delta == Fraction(3, 16)
    assert 256 * omega + 3 * (4 * delta - 3) * (4 * delta + 1) == 0


def test_d3_action_orders():
    assert d3_apply("ss", E) == E
    assert d3_apply("ttt", H) == H
    assert d3_apply("stst", F) == F


def test_d3_fixes_casimir():
    lam = casimir()
    assert d3_apply("s", lam) == lam
    assert d3_apply("t", lam) == lam


@settings(max_examples=30, deadline=None)
@given(monomials, monomials, st.sampled_from(["s", "t"]))
def test_d3_is_algebra_morphism(m1, m2, letter):
    x = PBWElement.monomial(*m1)
    y = PBWElement.monomial(*m2)
    assert d3_apply(letter, x * y) == d3_apply(letter, x) * d3_apply(letter, y)


def test_equivariance_table():
    assert d3_apply("t", sharp("A")) == sharp("B")
    assert d3_apply("s", sharp("B")) == sharp("B")
    assert d3_apply("s", sharp("Delta")) == -sharp("Delta")


def test_even_lambda_span_membership():
    coords = pbw.even_lambda_span_coordinates(sharp("A"))
    assert coords is not None
    reconstructed = PBWElement.zero()
    lam = casimir()
    for (half_degree, i, k), coeff in coords.items():
        prefix = E ** (2 * half_degree) if half_degree >= 0 else F ** (-2 * half_degree)
        reconstructed = reconstructed + prefix * lam**i * H**k * coeff
    assert reconstructed == sharp("A")
    assert pbw.even_lambda_span_coordinates(E) is None

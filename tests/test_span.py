"""Incremental spans and algebra closure by span saturation."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import random

from racahlab import matrix as matrix_module, rd, span as span_module
from racahlab.gaussian import GaussianRational, I, gr
from racahlab.matrix import _P, _S, ExactMatrix, _mod_image, minimal_polynomial
from racahlab.sl2 import build_Ln
from racahlab.span import VectorSpan, _norton, algebra_closure, is_full_matrix_algebra


def test_vector_span_rational():
    span = VectorSpan(3)
    assert span.add([gr(1), gr(2), gr(0)])
    assert not span.add([gr(2), gr(4), gr(0)])
    assert span.add([gr(0), gr(0), gr(Fraction(1, 7))])
    assert span.rank == 2
    assert span.contains([gr(3), gr(6), gr(5)])
    assert not span.contains([gr(0), gr(1), gr(0)])


def test_vector_span_gaussian():
    i = GaussianRational(0, 1)
    span = VectorSpan(2)
    assert span.add([gr(1), i])
    # i * (1, i) = (i, -1) is already in the span over the field
    assert not span.add([i, gr(-1)])
    assert span.contains([i, gr(-1)])
    assert span.rank == 1
    assert span.add([gr(1), gr(0)])
    assert span.rank == 2


def test_closure_unit_only():
    result = algebra_closure([ExactMatrix.identity(2)])
    assert result.dim == 1


def test_closure_diagonal():
    result = algebra_closure([ExactMatrix.diagonal([1, 2])])
    assert result.dim == 2


def test_closure_full_matrix_algebra():
    rep = build_Ln(2)
    result = algebra_closure([rep.E, rep.F, rep.H])
    assert result.dim == 9
    assert len(result.basis) == 9


def test_closure_is_multiplicatively_closed():
    rep = build_Ln(2)
    result = algebra_closure([rep.E, rep.F, rep.H])
    for x, y in product(result.basis, repeat=2):
        assert result.contains(x * y)


def test_closure_scaling_invariance():
    rep = build_Ln(1)
    scaled = [rep.E * Fraction(1, 3), rep.F * 5, rep.H]
    assert algebra_closure(scaled).dim == algebra_closure([rep.E, rep.F, rep.H]).dim


def test_closure_with_gaussian_entries():
    i = GaussianRational(0, 1)
    m = ExactMatrix.from_rows([[0, i], [0, 0]])
    result = algebra_closure([m])
    # span of I and the nilpotent part
    assert result.dim == 2
    assert result.contains(ExactMatrix.from_rows([[0, 1], [0, 0]]))


def _irreducible_rd_generators(d):
    params = rd.RdParams(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), d)
    assert rd.is_irreducible(params)
    rep = rd.construct(params)
    return [rep.A, rep.B, rep.C]


def test_closure_offers_no_product_at_full_rank(monkeypatch):
    ranks = []
    add_int = VectorSpan.add_int

    def spy(self, re_part, im_part):
        ranks.append(self.rank)
        return add_int(self, re_part, im_part)

    monkeypatch.setattr(VectorSpan, "add_int", spy)
    rep = build_Ln(2)
    for gens in ([rep.E, rep.F, rep.H], _irreducible_rd_generators(3)):
        ranks.clear()
        n = gens[0].rows
        assert algebra_closure(gens).dim == n * n
        # the offer that filled the span was the last one
        assert max(ranks) == ranks[-1] == n * n - 1


# -- differential check against a closure built from ExactMatrix products ------

_scalars = st.one_of(
    st.just(gr(0)),
    st.builds(
        lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
        st.integers(-3, 3),
        st.integers(-2, 2),
        st.integers(1, 4),
    ),
)


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(1, 4))
    matrix = st.lists(_scalars, min_size=n * n, max_size=n * n).map(
        lambda entries: ExactMatrix(n, n, entries)
    )
    return draw(st.lists(matrix, min_size=1, max_size=3)), draw(st.lists(matrix, max_size=3))


def _reference_closure(gens):
    """The unital algebra's span, grown through ExactMatrix products and VectorSpan.add."""
    n = gens[0].rows
    span = VectorSpan(n * n)
    frontier = [m for m in [ExactMatrix.identity(n), *gens] if span.add(m.entries)]
    while frontier:
        words = [g * w for w in frontier for g in gens]
        frontier = [m for m in words if span.add(m.entries)]
    return span


@settings(max_examples=60, deadline=None)
@given(_generator_sets())
def test_closure_agrees_with_reference(case):
    gens, probes = case
    result = algebra_closure(gens)
    reference = _reference_closure(gens)
    assert result.dim == reference.rank
    for m in result.basis:
        assert reference.contains(m.entries)
    for m in probes + [x * y for x, y in product(gens, repeat=2)]:
        assert result.contains(m) == reference.contains(m.entries)


# -- the mod-P certificate of the full matrix algebra --------------------------


@st.composite
def _maybe_reducible_sets(draw):
    """Generator sets with n <= 4; half of them block upper triangular, so
    that they keep the span of the first k basis vectors."""
    gens, _probes = draw(_generator_sets())
    n = gens[0].rows
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        gens = [_block_triangular(g, k) for g in gens]
    return gens


def _block_triangular(g, k):
    """g with the block below the first k rows and left of column k cleared, so
    that it keeps the span of the first k basis vectors."""
    return ExactMatrix.from_rows(
        [[x if i < k or j >= k else 0 for j, x in enumerate(g.row_list(i))] for i in range(g.rows)]
    )


@settings(max_examples=80, deadline=None)
@given(_maybe_reducible_sets())
def test_full_matrix_algebra_matches_closure(gens):
    n = gens[0].rows
    assert is_full_matrix_algebra(gens) == (algebra_closure(gens).dim == n * n)


def _count_exact_closures(monkeypatch):
    calls = []

    def spy(gens):
        calls.append(gens)
        return algebra_closure(gens)

    monkeypatch.setattr(span_module, "algebra_closure", spy)
    return calls


def _count_short_mod_p_spins(monkeypatch):
    """The spins mod P that fell short of rank n, so that the exact spin ran."""
    short = []
    spin_rank_mod_p = span_module._spin_rank_mod_p

    def spy(vec, images):
        rank = spin_rank_mod_p(vec, images)
        if rank < len(vec):
            short.append(vec)
        return rank

    monkeypatch.setattr(span_module, "_spin_rank_mod_p", spy)
    return short


# Each planted entry vanishes mod P, so the images generate only I and F
# (dimension 2) while the exact algebra is all of M_2 (dimension 4): the
# spins mod P fall short, and the exact spins decide.
@pytest.mark.parametrize("entry", [_P, _S - I], ids=["P", "S-i"])
def test_entry_vanishing_mod_p_falls_back_to_exact(entry, monkeypatch):
    e = ExactMatrix.from_rows([[0, entry], [0, 0]])
    f = ExactMatrix.from_rows([[0, 0], [1, 0]])
    assert _mod_image(e) == [[0, 0], [0, 0]]
    calls = _count_exact_closures(monkeypatch)
    short = _count_short_mod_p_spins(monkeypatch)
    assert is_full_matrix_algebra([e, f])
    assert len(short) == 2 and calls == [] and algebra_closure([e, f]).dim == 4


def test_p_in_a_denominator_falls_back_to_exact(monkeypatch):
    e = ExactMatrix.from_rows([[0, Fraction(1, _P)], [0, 0]])
    f = ExactMatrix.from_rows([[0, 0], [1, 0]])
    assert _mod_image(e) is None
    calls = _count_exact_closures(monkeypatch)
    short = _count_short_mod_p_spins(monkeypatch)
    assert is_full_matrix_algebra([e, f])
    assert len(short) == 2 and calls == []


def test_full_rank_mod_p_needs_no_exact_closure(monkeypatch):
    """H alone has one-line eigenspaces, so the exact spin of one proves the
    set reducible without the closure."""
    calls = _count_exact_closures(monkeypatch)
    rep = build_Ln(3)
    assert is_full_matrix_algebra([rep.E, rep.F, rep.H])
    assert not is_full_matrix_algebra([rep.H])
    assert calls == []


# -- Norton's test against the closure ---------------------------------------------


def _random_gaussian(rng, n, triangular=False):
    return ExactMatrix.from_rows(
        [
            [0 if triangular and j < i else GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)) for j in range(n)]
            for i in range(n)
        ]
    )


def _seeded_modules(rng):
    """Generator sets with n <= 5: the first generator upper triangular, so that
    it has eigenvalues, and each set also cut down to a block triangular one."""
    for _ in range(40):
        n = rng.randint(1, 5)
        gens = [_random_gaussian(rng, n, triangular=True)]
        gens += [_random_gaussian(rng, n) for _ in range(rng.randint(0, 2))]
        yield gens
        if n > 1:
            k = rng.randint(1, n - 1)
            yield [_block_triangular(g, k) for g in gens]


def _rd_draws(rng):
    """R_d with d <= 7 at the forbidden half-integers: a at one (A is then not
    diagonalizable) or a linear form of (a, b, c) at one (a reducible module)."""
    for _ in range(40):
        d = rng.randint(1, 7)
        b, c = (GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1)) for _ in "bc")
        if rng.random() < 0.5:
            a = rng.choice(rd._forbidden_half_integers(d))
        else:
            a = GaussianRational(Fraction(d, 2) - rng.randint(1, d)) - b + c  # a + b - c forbidden
        rep = rd.construct(rd.RdParams(a, b, c, d))
        yield [rep.A, rep.B, rep.C]


def _norton_verdict(gens):
    return _norton(gens, gens[0].rows)


def test_norton_agrees_with_closure():
    rng = random.Random(11)
    verdicts = {True: 0, False: 0, None: 0}
    for gens in [*_seeded_modules(rng), *_rd_draws(rng)]:
        n = gens[0].rows
        full = algebra_closure(gens).dim == n * n
        verdict = _norton_verdict(gens)
        assert verdict is None or verdict == full
        verdicts[verdict] += 1
        assert is_full_matrix_algebra(gens) == full
    # both verdicts are reached often, and no R_d draw needs the closure
    assert verdicts[True] >= 40 and verdicts[False] >= 40


def test_no_one_dimensional_eigenspace_reaches_the_fallback(monkeypatch):
    """Without a one-line eigenspace Norton's test gives no verdict, so the
    exact closure decides both the irreducible and the reducible set."""
    calls = _count_exact_closures(monkeypatch)
    doubled = ExactMatrix.diagonal([1, 1, 2, 2])
    # the companion matrix of x^4 - 2, which has no Gaussian-rational eigenvalue
    companion = ExactMatrix.from_rows([[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    # x^2 - 2 twice on the diagonal: it keeps the eigenspaces of `doubled`
    halves = ExactMatrix.from_rows([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]])
    assert _norton_verdict([doubled, companion]) is None
    assert is_full_matrix_algebra([doubled, companion])
    assert _norton_verdict([doubled, halves]) is None
    assert not is_full_matrix_algebra([doubled, halves])
    assert len(calls) == 2


# -- Norton's verdicts against the closure, by hypothesis -----------------------

_box = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-3, 3),
    st.integers(-1, 1),
    st.integers(1, 3),
)


@st.composite
def _rd_at_a_forbidden_form(draw):
    """R_d (d <= 5) with one of the four linear forms at a forbidden
    half-integer d/2 - k, solved for a: a reducible module."""
    d = draw(st.integers(1, 5))
    b, c = draw(_box), draw(_box)
    h = GaussianRational(Fraction(d, 2) - draw(st.integers(1, d)))
    a = draw(st.sampled_from([h - b - c - 1, b + c - h, h + b - c, h - b + c]))
    rep = rd.construct(rd.RdParams(a, b, c, d))
    return [rep.A, rep.B, rep.C]


@st.composite
def _scalar_generators(draw):
    """Scalar generators: no element of nullity 1 when n > 1."""
    n = draw(st.integers(2, 4))
    return [ExactMatrix.scalar_matrix(n, draw(_scalars)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        _maybe_reducible_sets().map(lambda gens: ("module", gens)),
        _rd_at_a_forbidden_form().map(lambda gens: ("rd", gens)),
        _scalar_generators().map(lambda gens: ("scalar", gens)),
    )
)
def test_norton_verdicts_match_closure(case):
    kind, gens = case
    n = gens[0].rows
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(span_module, "algebra_closure", lambda g: calls.append(g) or algebra_closure(g))
        full = is_full_matrix_algebra(gens)
    assert full == (algebra_closure(gens).dim == n * n)
    if kind == "rd":
        assert not full and calls == []
    if kind == "scalar":
        assert not full and len(calls) == 1


def test_reducible_r6_never_runs_the_closure(monkeypatch):
    params = rd.RdParams(GaussianRational(Fraction(-1, 3), -1), GaussianRational(Fraction(1, 3), 1),
                         GaussianRational(-2), 6)
    assert "a+b-c" in rd.is_irreducible(params).hits
    rep = rd.construct(params)

    def exact_closure(gens):
        raise AssertionError("the exact closure ran")

    monkeypatch.setattr(span_module, "algebra_closure", exact_closure)
    assert not rd.burnside_irreducible(rep)


def test_norton_builds_each_image_mod_p_once(monkeypatch):
    """One image per generator, read by both spins; none of x = g - theta*I
    or of a transpose."""
    params = rd.RdParams(GaussianRational(Fraction(2, 3), Fraction(1, 3)), GaussianRational(-2, 1),
                         GaussianRational(3, 1), 6)
    rep = rd.construct(params)
    gens = [rep.A, rep.B, rep.C]
    for g in gens:
        minimal_polynomial(g)  # memoized, as in a module check
    images = []
    mod_image = matrix_module._mod_image

    def spy(x):
        images.append(x)
        return mod_image(x)

    monkeypatch.setattr(matrix_module, "_mod_image", spy)
    monkeypatch.setattr(span_module, "_mod_image", spy)
    assert _norton(gens, 7) is True
    assert len(images) == 3 and all(x is g for x, g in zip(images, gens))

"""Orbit coordinates against dense matrices: the orbit product, the cube
operators, and the orbit closures against the dense ``algebra_closure``
(the oracle the cube closures and the even-level comparison ran on before)."""

from functools import lru_cache

import pytest
from dense_cube import build as dense_build
from hypothesis import given, settings, strategies as st

from racahlab import orbit
from racahlab.decompose import compare_te_re, cube_operator_closure, cube_pullback_closure
from racahlab.errors import ConfigError, DimensionMismatch
from racahlab.matrix import ExactMatrix, _from_ints
from racahlab.sl2 import build_hypercube, halved_cube, sharp_pullback
from racahlab.span import algebra_closure


def _vertices(D, even=False):
    return [v for v in range(1 << D) if not even or v.bit_count() % 2 == 0]


def expand(vec, D, even=False) -> ExactMatrix:
    """The dense matrix whose (x, y) entry is vec at the orbit of (x, y)."""
    index = {o: k for k, o in enumerate(orbit.orbits(D, even))}
    verts = _vertices(D, even)

    def entry(x, y):
        a, b, c = (x & ~y).bit_count(), (y & ~x).bit_count(), (x & y).bit_count()
        return vec[index[(a, b, c, D - a - b - c)]]

    return _from_ints(1, [[entry(x, y) for y in verts] for x in verts], None)


def _even_part(m: ExactMatrix, D) -> ExactMatrix:
    idx = _vertices(D, even=True)
    return m.submatrix(idx, idx)


@st.composite
def _orbit_pairs(draw):
    D = draw(st.integers(2, 6))
    n = len(orbit.orbits(D))
    entries = st.integers(-3, 3)
    left = draw(st.lists(entries, min_size=n, max_size=n))
    right = draw(st.lists(entries, min_size=n, max_size=n))
    return D, left, right


@settings(max_examples=40, deadline=None)
@given(_orbit_pairs())
def test_orbit_product_matches_dense_product(pair):
    D, left, right = pair
    dense_left, dense_right = expand(left, D), expand(right, D)
    assert expand(orbit.product(left, right, D), D) == dense_left * dense_right
    # only even z count on the even levels
    right_even = orbit.restrict(right, D)
    assert expand(right_even, D, even=True) == _even_part(dense_right, D)
    assert expand(orbit.product(left, right_even, D, even=True), D, even=True) == (
        _even_part(dense_left, D) * _even_part(dense_right, D)
    )


@settings(max_examples=20, deadline=None)
@given(_orbit_pairs())
def test_orbit_vector_inverts_expand(pair):
    D, vec, _ = pair
    assert orbit.dense(vec, D) == expand(vec, D)
    assert orbit.orbit_vector(expand(vec, D), D) == [vec, None]
    even = orbit.restrict(vec, D)
    assert orbit.orbit_vector(expand(even, D, even=True), D, even=True) == [even, None]


@pytest.mark.parametrize("D", range(2, 7))
def test_cube_operators_match_dense_build(D):
    rep, ops = dense_build(D)
    pull = sharp_pullback(rep)
    op = orbit.cube_operators(D)
    expected = {
        "E": rep.E, "F": rep.F, "H": rep.H,
        "A2J": ops.A2J, "A2Jbar": ops.A2Jbar, "2A2star": ops.A2star * 2,
        "E2": rep.E * rep.E, "F2": rep.F * rep.F,
        "16A": pull.A * 16, "16B": pull.B * 16, "16C": pull.C * 16, "64Delta": pull.Delta * 64,
    }
    for name, matrix in expected.items():
        assert expand(op[name], D) == matrix, name


@lru_cache(maxsize=1)
def _dense_closures(D):
    rep, ops = build_hypercube(D)
    pull = sharp_pullback(rep)
    hc = halved_cube(D)
    return (
        algebra_closure([ops.A2J, ops.A2Jbar, ops.A2star]),
        algebra_closure([pull.A, pull.B, pull.C]),
        algebra_closure(list(hc.te_ops.values())),
        algebra_closure(list(hc.re_ops.values())),
    )


@pytest.mark.parametrize("D", range(2, 8))
def test_orbit_closures_match_dense_oracle(D):
    rep, ops = build_hypercube(D)
    pull = sharp_pullback(rep)
    dense_graph, dense_pull, dense_te, dense_re = _dense_closures(D)
    graph, pulled = cube_operator_closure(D), cube_pullback_closure(D)
    assert (graph.dim, pulled.dim) == (dense_graph.dim, dense_pull.dim)
    for orbit_cl, dense_cl in ((graph, dense_graph), (pulled, dense_pull)):
        for m in (pull.A, pull.B, pull.C, ops.A2J, ops.A2Jbar, ops.A2star):
            assert orbit_cl.contains(m) == dense_cl.contains(m)
    cmp = compare_te_re(D)
    hc = halved_cube(D)
    assert (cmp.dim_te, cmp.dim_re) == (dense_te.dim, dense_re.dim)
    assert cmp.contained == all(dense_te.contains(m) for m in hc.re_ops.values())
    assert cmp.equal == (dense_te.dim == dense_re.dim)


@pytest.mark.parametrize("D", [3, 4])
def test_contains_agrees_with_dense_on_other_matrices(D):
    n = 1 << D
    dense_graph = _dense_closures(D)[0]
    unit = _from_ints(1, [[int((i, j) == (0, 1)) for j in range(n)] for i in range(n)], None)
    candidates = [unit, unit * 3 + ExactMatrix.identity(n)]
    for k in range(D + 1):
        candidates.append(ExactMatrix.diagonal([int(v.bit_count() == k) for v in range(n)]))
    candidates.append(ExactMatrix.diagonal([int(v.bit_count() in (1, D - 1)) for v in range(n)]))
    graph = cube_operator_closure(D)
    answers = [graph.contains(m) for m in candidates]
    assert answers == [dense_graph.contains(m) for m in candidates]
    assert not answers[0] and answers[-1]
    dense_te = _dense_closures(D)[2]
    te = orbit.closure([orbit.cube_operators(D)[k] for k in ("E2", "F2", "H", "2Casimir")], D, even=True)
    for m in candidates[2:]:
        assert te.contains(_even_part(m, D)) == dense_te.contains(_even_part(m, D))


def test_contains_rejects_wrong_size(monkeypatch):
    with pytest.raises(DimensionMismatch):
        cube_operator_closure(3).contains(ExactMatrix.identity(4))
    with pytest.raises(DimensionMismatch):
        cube_operator_closure(3).contains(ExactMatrix.from_rows([[0] * 8] * 4))
    # the size is checked before the 4^D-entry orbit table is built
    def table(D, even=False):
        raise AssertionError(f"orbit table built at D={D}")

    monkeypatch.setattr(orbit, "_pair_orbits", table)
    with pytest.raises(DimensionMismatch, match="65536x65536"):
        orbit.OrbitClosure(16, False, 0, None).contains(ExactMatrix.identity(4))


@pytest.mark.parametrize("D", [0, 1, orbit.MAX_ORBIT_D + 1, 500])
def test_orbit_entry_points_bound_D(D):
    for call in (orbit.cube_operators, cube_operator_closure, cube_pullback_closure, compare_te_re):
        with pytest.raises(ConfigError):
            call(D)

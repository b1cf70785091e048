"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every equality here is exact (the ground field is the Gaussian rationals);
the only numeric bounds are the stated runtime budgets.  Run with -s to see
the per-criterion lines as they complete.
"""

import random
import time
from fractions import Fraction

from dense_cube import build as dense_build, forbid_dense_cube
from racahlab import pbw
from racahlab.decompose import (
    block_dimension_formula,
    compare_te_re,
    cube_decompose,
    cube_operator_closure,
    cube_pullback_closure,
    cube_semisimple_profile,
    expected_block_profile,
    expected_half_split,
    halved_decompose,
    prop_7_6_classes,
    re_decompose,
    split_even_half,
)
from racahlab.gaussian import GaussianRational
from racahlab.leonard import check as leonard_check
from racahlab.orbit import cube_build, cube_operators
from racahlab.racah import central_values, verify_presentation, verify_section6_relations
from racahlab.rd import (
    RdParams,
    burnside_irreducible,
    central_scalars,
    construct,
    is_irreducible,
    iso_class_of,
    leonard_criterion,
    leonard_hints,
    min_polys,
    parameter_diagonalizable,
)
from racahlab.sl2 import build_Ln, even_halves, hypercube_checks, hypercube_space, sharp_pullback

CUBE_RANGE = range(2, 9)
# past the dense cap: orbit coordinates and the copies of L_n only
BEYOND_DENSE = range(9, 17)


def _report(criterion: str, ok: bool, elapsed: float, budget: float | None = None):
    verdict = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"criterion {criterion}: {verdict} ({elapsed:.2f}s{budget_note})")
    assert ok, f"criterion {criterion} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def test_criterion_01_homomorphism_identities():
    start = time.monotonic()
    results = pbw.verify_sharp_relations()
    ok = len(results) == 7 and all(
        r.passed and r.residual_term_count == 0 for r in results
    )
    _report("1 (defining identities of the homomorphism)", ok, time.monotonic() - start, 1.0)


def test_criterion_02_casimir_images():
    start = time.monotonic()
    results = pbw.verify_casimir_images()
    ok = len(results) == 3 and all(
        r.passed and r.residual_term_count == 0 for r in results
    )
    _report("2 (central-element images)", ok, time.monotonic() - start, 1.0)


def test_criterion_03_kernel_membership():
    start = time.monotonic()
    results = pbw.verify_kernel_generators()
    ok = len(results) == 5 and all(r.passed for r in results)
    _report("3 (kernel generator membership)", ok, time.monotonic() - start)


def test_criterion_04_dihedral_compatibility():
    start = time.monotonic()
    presentation = pbw.verify_d3_presentation()
    equivariance = pbw.verify_equivariance()
    ok = all(r.passed for r in presentation) and all(r.passed for r in equivariance)
    _report("4 (dihedral actions and equivariance)", ok, time.monotonic() - start)


def _draw_params(rng: random.Random, d: int) -> RdParams:
    def scalar():
        return GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-1, 1), rng.randint(1, 2)),
        )

    return RdParams(scalar(), scalar(), scalar(), d)


def test_criterion_05_module_family_suite():
    start = time.monotonic()
    rng = random.Random(20250807)
    ok = True
    for k in range(200):
        d = k % 7
        params = _draw_params(rng, d)
        rep = construct(params)
        ok &= verify_presentation(rep).ok
        scalars = central_values(rep).scalars()
        closed = central_scalars(params)
        ok &= all(scalars[name] == closed[name] for name in closed)
        shift = Fraction(d * (d + 2), 12)
        n = d + 1
        for op, value in ((rep.A, params.a), (rep.B, params.b), (rep.C, params.c)):
            ok &= op.trace() == (value * (value + 1) + shift) * n
        witness = is_irreducible(params)
        ok &= bool(witness) == burnside_irreducible(rep)
        ok &= verify_section6_relations(rep).ok
        if witness:
            polys = min_polys(params)
            for poly, value in zip(polys, (params.a, params.b, params.c)):
                ok &= poly.is_squarefree == parameter_diagonalizable(value, d)
            checker = leonard_check(rep.A, rep.B, rep.C, hints=leonard_hints(params)).passed
            ok &= leonard_criterion(params) == checker
        if not ok:
            break
    _report("5 (module family: 200 seeded draws, d <= 6)", ok, time.monotonic() - start, 120.0)


def test_criterion_06_half_split_tables():
    start = time.monotonic()
    ok = True
    for n in range(13):
        halves = even_halves(build_Ln(n))
        for parity in (0, 1):
            half = halves[parity]
            if half is None:
                continue
            report = split_even_half(half)
            expected = {iso_class_of(p) for p in expected_half_split(n, parity)}
            ok &= report.classes() == expected
            ok &= report.complete
    labeled = prop_7_6_classes(12)
    keys = [c.sort_key() for _label, c in labeled]
    ok &= len(keys) == len(set(keys))
    _report("6 (parity-half splitting tables, n <= 12)", ok, time.monotonic() - start, 60.0)


def test_criterion_07_complete_reducibility_and_leonard(monkeypatch):
    start = time.monotonic()
    ok = True
    for n in range(13):
        report = re_decompose(build_Ln(n))
        ok &= report.complete
        ok &= all(g.leonard_passed for g in report.summands)
    forbid_dense_cube(monkeypatch)
    for D in (*CUBE_RANGE, *BEYOND_DENSE):
        for report, dim in ((cube_decompose(D), 2**D), (halved_decompose(D), 2 ** (D - 1))):
            ok &= report.complete
            ok &= all(g.leonard_passed for g in report.summands)
            ok &= report.total_dim() == dim
    _report(
        "7 (complete reducibility + Leonard on every summand, D <= 16, n <= 12)",
        ok,
        time.monotonic() - start,
        300.0,
    )


def test_criterion_08_cube_operator_identities_and_surjectivity(monkeypatch):
    start = time.monotonic()
    ok = True
    # the cube built from its definitions, independent of orbit.cube_build
    for D in CUBE_RANGE:
        rep, ops = dense_build(D)
        checks = hypercube_checks(rep, ops, hypercube_space(D))
        ok &= all(c.passed for c in checks)
        graph_closure = cube_operator_closure(D)
        pull_closure = cube_pullback_closure(D)
        pull = sharp_pullback(rep)
        ok &= graph_closure.dim == pull_closure.dim
        ok &= all(graph_closure.contains(m) for m in (pull.A, pull.B, pull.C))
        ok &= all(
            pull_closure.contains(m) for m in (ops.A2J, ops.A2Jbar, ops.A2star)
        )
    forbid_dense_cube(monkeypatch)
    for D in BEYOND_DENSE:
        ok &= all(c.passed for c in cube_build(D)[1])
        graph_closure = cube_operator_closure(D)
        pull_closure = cube_pullback_closure(D)
        op = cube_operators(D)
        ok &= graph_closure.dim == pull_closure.dim
        ok &= all(graph_closure.contains_vector(op[k]) for k in ("16A", "16B", "16C"))
        ok &= all(pull_closure.contains_vector(op[k]) for k in ("A2J", "A2Jbar", "2A2star"))
    _report("8 (operator identities and surjectivity, D in 2..16)", ok, time.monotonic() - start)


def test_criterion_09_algebra_dimension_and_blocks(monkeypatch):
    start = time.monotonic()
    ok = True
    forbid_dense_cube(monkeypatch)
    for D in (*CUBE_RANGE, *BEYOND_DENSE):
        profile = cube_semisimple_profile(D)
        ok &= profile.dim == block_dimension_formula(D)
        ok &= profile.blocks == expected_block_profile(D)
    _report(
        "9 (algebra dimension formula and block profiles, D in 2..16)",
        ok,
        time.monotonic() - start,
        600.0,
    )


def test_criterion_10_even_restriction_comparison():
    start = time.monotonic()
    ok = True
    for D in CUBE_RANGE:
        cmp = compare_te_re(D)
        ok &= cmp.contained
        ok &= cmp.dim_re <= cmp.dim_te
        ok &= cmp.equal == (D % 2 == 1)
        if cmp.te_classes_ok is not None:
            ok &= cmp.te_classes_ok
    # odd D past the dense cap: orbit coordinates only, no dense build
    for D in BEYOND_DENSE[::2]:
        cmp = compare_te_re(D)
        ok &= cmp.contained
        ok &= cmp.dim_te == cmp.dim_re == block_dimension_formula(D)
    _report("10 (even-restriction algebras equal iff D odd, D in 2..8 and odd 9..15)", ok, time.monotonic() - start)

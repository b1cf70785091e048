"""The decomposition engine: isotypic splitting, half splitting, catalogs,
block profiles and the even-restriction comparison."""

from fractions import Fraction

import pytest

from racahlab.decompose import (
    _even_level_halves,
    _parts_to_report,
    block_dimension_formula,
    compare_te_re,
    cube_decompose,
    cube_semisimple_profile,
    even_copies,
    even_isotypic,
    expected_block_profile,
    expected_cube_classes,
    expected_cube_even_classes,
    expected_half_split,
    halved_decompose,
    prop_7_6_classes,
    re_decompose,
    sl2_isotypic,
    split_even_half,
    split_half_chain,
)
from racahlab.errors import NonDiagonalizableH
from racahlab.gaussian import gr
from racahlab.matrix import ExactMatrix
from racahlab.rd import RdParams, iso_class_of
from racahlab.sl2 import (
    Sl2Rep,
    build_Ln,
    build_hypercube,
    casimir_matrix,
    even_halves,
    halved_cube,
    sharp_pullback,
)

Q = Fraction(-1, 4)
H = Fraction(-1, 2)


def _classes(report):
    return {(g.label, g.multiplicity) for g in report.summands}


class TestSl2Isotypic:
    def test_irreducible_is_single_summand(self):
        report = sl2_isotypic(build_Ln(5))
        assert _classes(report) == {("L_5", 1)}

    def test_cube_d2(self):
        rep, _ops = build_hypercube(2)
        report = sl2_isotypic(rep)
        assert _classes(report) == {("L_2", 1), ("L_0", 1)}

    def test_cube_d3(self):
        rep, _ops = build_hypercube(3)
        report = sl2_isotypic(rep)
        assert _classes(report) == {("L_3", 1), ("L_1", 2)}
        assert report.complete

    def test_witnesses_are_invariant(self):
        rep, _ops = build_hypercube(2)
        report = sl2_isotypic(rep)
        for group in report.summands:
            for witness in group.witnesses:
                for op in (rep.E, rep.F, rep.H):
                    for vec in witness.basis:
                        assert witness.contains(op.apply(vec))

    def test_multiplicities_by_weight_counting(self):
        # binomial(4,2) - binomial(4,1) = 2 copies of L_0 at D=4
        rep, _ops = build_hypercube(4)
        report = sl2_isotypic(rep)
        mults = {g.label: g.multiplicity for g in report.summands}
        assert mults == {"L_4": 1, "L_2": 3, "L_0": 2}


class TestSplitEvenHalf:
    def test_odd_half_is_irreducible(self):
        h0, _ = even_halves(build_Ln(3))
        report = split_even_half(h0)
        assert {g.label for g in report.summands} == {"R_1(-1/4,-1/4,-1/4)"}
        assert all(g.leonard_passed for g in report.summands)

    def test_small_special_cases(self):
        _, h1 = even_halves(build_Ln(2))
        report = split_even_half(h1)
        assert report.classes() == {iso_class_of(RdParams(0, H, 0, 0))}

    def test_n4_splits_into_two(self):
        h0, _ = even_halves(build_Ln(4))
        report = split_even_half(h0)
        assert report.classes() == {
            iso_class_of(RdParams(0, Fraction(1, 2), 0, 0)),
            iso_class_of(RdParams(0, 0, 0, 1)),
        }
        assert report.complete

    @pytest.mark.parametrize("n,parity", [(n, p) for n in range(13) for p in (0, 1) if n >= p])
    def test_matches_expected_catalog(self, n, parity):
        halves = even_halves(build_Ln(n))
        half = halves[parity]
        if half is None:
            pytest.skip("no such half")
        report = split_even_half(half)
        assert report.classes() == {
            iso_class_of(p) for p in expected_half_split(n, parity)
        }
        assert report.complete
        assert all(g.leonard_passed for g in report.summands)


class TestReDecompose:
    def test_cube_d2_catalog(self):
        report = cube_decompose(2)
        expected = {
            iso_class_of(RdParams(H, H, H, 0)),
            iso_class_of(RdParams(H, 0, 0, 0)),
            iso_class_of(RdParams(0, 0, H, 0)),
            iso_class_of(RdParams(0, H, 0, 0)),
        }
        assert report.classes() == expected
        assert report.complete
        assert all(g.multiplicity == 1 for g in report.summands)

    def test_cube_d3_catalog(self):
        report = cube_decompose(3)
        assert _classes(report) == {
            ("R_0(-1/4,-1/4,-1/4)", 4),
            ("R_1(-1/4,-1/4,-1/4)", 2),
        }

    def test_ln_pullback_matches_half_tables(self):
        for n in (3, 4, 6):
            report = re_decompose(build_Ln(n))
            expected = {iso_class_of(p) for p in expected_half_split(n, 0)}
            expected |= {iso_class_of(p) for p in expected_half_split(n, 1)}
            assert report.classes() == expected

    def test_all_summands_pass_leonard(self):
        for n in range(0, 9):
            report = re_decompose(build_Ln(n))
            assert all(g.leonard_passed for g in report.summands)

    def test_witness_invariance_under_pullback(self):
        rep, _ops = build_hypercube(3)
        pull = sharp_pullback(rep)
        report = re_decompose(rep)
        for group in report.summands:
            assert len(group.witnesses) == group.multiplicity
            for witness in group.witnesses:
                for op in (pull.A, pull.B, pull.C, pull.Delta):
                    for vec in witness.basis:
                        assert witness.contains(op.apply(vec))


class TestWeightSpaces:
    @pytest.mark.parametrize("decompose", [sl2_isotypic, re_decompose])
    def test_non_diagonal_h_raises(self, decompose):
        rep = build_Ln(2)
        unipotent = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        inverse = ExactMatrix.from_rows([[1, -1, 1], [0, 1, -1], [0, 0, 1]])
        assert unipotent * inverse == ExactMatrix.identity(3)
        conj = lambda m: unipotent * m * inverse
        conjugated = Sl2Rep(3, conj(rep.E), conj(rep.F), conj(rep.H))
        with pytest.raises(NonDiagonalizableH):
            decompose(conjugated)


def _summary(report):
    return [(g.label, g.dim, g.multiplicity, g.leonard_passed) for g in report.summands]


class TestCubeOracle:
    """The cube reports, summed over copies of L_n, against the dense engine."""

    @pytest.mark.parametrize("D", range(2, 8))
    def test_cube_decompose_matches_dense(self, D):
        rep, _ops = build_hypercube(D)
        dense = re_decompose(rep)
        report = cube_decompose(D)
        assert _summary(report) == _summary(dense)
        assert report.ambient_dim == dense.ambient_dim == 2**D
        assert all(g.witnesses == () for g in report.summands)

    @pytest.mark.parametrize("D", range(2, 8))
    def test_halved_decompose_matches_dense(self, D):
        hc = halved_cube(D)
        ops = (hc.re_ops["A"], hc.re_ops["B"], hc.re_ops["C"])
        te = (hc.te_ops[k] for k in ("E2", "F2", "H", "Casimir"))
        parts = [
            part
            for copy in even_copies(*te)
            for part in split_half_chain(ops, copy.chain, copy.n, copy.parity)
        ]
        dense = _parts_to_report(hc.dim, parts)
        report = halved_decompose(D)
        assert _summary(report) == _summary(dense)
        assert report.ambient_dim == dense.ambient_dim == 2 ** (D - 1)
        assert report.complete and dense.complete

    @pytest.mark.parametrize("D", [2, 4, 6, 8])
    def test_te_catalog_matches_dense(self, D):
        hc = halved_cube(D)
        dense = even_isotypic(*(hc.te_ops[k] for k in ("E2", "F2", "H", "Casimir")))
        found = {(half.n, half.parity): copies for half, copies in _even_level_halves(D)}
        assert found == {(g.n, g.parity): g.multiplicity for g in dense.summands}
        assert compare_te_re(D).te_classes_ok


class TestEvenIsotypic:
    def test_central_value_off_both_candidates_raises(self):
        # a top of weight w starts L_w^(0) or L_{w+2}^(1); Lambda + 1 is neither
        hc = halved_cube(3)
        e2, f2, h, lam = (hc.te_ops[k] for k in ("E2", "F2", "H", "Casimir"))
        assert even_copies(e2, f2, h, lam)
        with pytest.raises(ArithmeticError, match="neither"):
            even_copies(e2, f2, h, lam + ExactMatrix.scalar_matrix(hc.dim, 1))

    @pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
    def test_cube_catalog(self, D):
        rep, _ops = build_hypercube(D)
        e2 = rep.E * rep.E
        f2 = rep.F * rep.F
        report = even_isotypic(e2, f2, rep.H, casimir_matrix(rep))
        found = {(g.n, g.parity) for g in report.summands}
        assert found == expected_cube_even_classes(D)
        assert report.complete


class TestProfilesAndCatalogs:
    @pytest.mark.parametrize("D,dim", [(2, 4), (3, 5), (4, 11), (5, 14), (6, 24)])
    def test_dimension_formula(self, D, dim):
        assert block_dimension_formula(D) == dim

    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_profile_matches(self, D):
        profile = cube_semisimple_profile(D)
        assert profile.dim == block_dimension_formula(D)
        assert profile.blocks == expected_block_profile(D)

    def test_catalog_sizes(self):
        assert len(expected_cube_classes(2)) == 4
        assert len(expected_cube_classes(4)) == 8
        # squared dims sum to the algebra dimension
        for D in range(2, 7):
            classes = expected_cube_classes(D)
            assert sum((c.d + 1) ** 2 for c in classes) == block_dimension_formula(D)

    def test_prop_7_6_distinct(self):
        labeled = prop_7_6_classes(12)
        keys = [c.sort_key() for _label, c in labeled]
        assert len(keys) == len(set(keys))


class TestTeRe:
    @pytest.mark.parametrize("D,expected_te,expected_re", [(2, 4, 2), (3, 5, 5), (4, 11, 7), (5, 14, 14), (8, 45, 25)])
    def test_dims(self, D, expected_te, expected_re):
        cmp = compare_te_re(D)
        assert (cmp.dim_te, cmp.dim_re) == (expected_te, expected_re)
        assert cmp.contained
        assert cmp.equal == (D % 2 == 1)
        if D % 2 == 0:
            assert cmp.te_classes_ok

    def test_halved_decompose_dims(self):
        report = halved_decompose(4)
        assert report.complete
        assert report.ambient_dim == 8
        assert sum((g.dim**2) * 1 for g in report.summands) == 7

"""Command-line interface: subcommands, JSON shapes, determinism."""

import ast
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from dense_cube import forbid_dense_cube
from hypothesis import HealthCheck, given, settings, strategies as st

from racahlab import cli, leonard, orbit, rd
from racahlab import decompose as dec
from racahlab.cli import build_parser, main, run_suite, SuiteConfig, SUITE_TARGETS
from racahlab.gaussian import GaussianRational
from racahlab.racah import rep_to_text


def _run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out


def test_verify_sharp_json(capsys):
    status, out = _run(capsys, "verify", "sharp")
    assert status == 0
    payload = json.loads(out)
    assert len(payload) == 7
    assert all(entry["pass"] for entry in payload)
    assert all(entry["residual_term_count"] == 0 for entry in payload)


def test_verify_kernel_and_d3(capsys):
    for suite in ("kernel", "d3", "even-identities"):
        status, out = _run(capsys, "verify", suite)
        assert status == 0
        assert all(entry["pass"] for entry in json.loads(out))


def test_rd_build_and_roundtrip(tmp_path, capsys):
    rep_file = tmp_path / "rep.txt"
    status, _ = _run(
        capsys,
        "rd", "build", "--a=-1/4", "--b=-1/4", "--c=-1/4", "--d", "1",
        "--out", str(rep_file),
    )
    assert status == 0
    assert rep_file.read_text().startswith("A\n2 2\n")

    status, out = _run(capsys, "racah", "verify", "--rep", str(rep_file))
    assert status == 0
    assert all(entry["pass"] for entry in json.loads(out))

    status, out = _run(capsys, "leonard", "check", "--rep", str(rep_file))
    assert status == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("d", [3, 6])
def test_hint_free_leonard_check_matches_hinted(d, tmp_path, capsys):
    # this draw's eigenvalues have large Gaussian divisors; a divisor search ran for minutes
    rep_file = tmp_path / "rep.txt"
    abc = ["--a=2/3+1/3*i", "--b=-2+1*i", "--c=3+1*i"]
    status, _ = _run(capsys, "rd", "build", *abc, "--d", str(d), "--out", str(rep_file))
    assert status == 0
    params = rd.RdParams(*(GaussianRational.parse(arg.split("=")[1]) for arg in abc), d)
    rep = rd.construct(params)
    hinted = leonard.check(rep.A, rep.B, rep.C, hints=rd.leonard_hints(params)).passed

    status, out = _run(capsys, "leonard", "check", "--rep", str(rep_file))
    assert json.loads(out)["pass"] is hinted
    assert status == (0 if hinted else 1)


def test_leonard_check_non_split_exits_1_with_one_line(tmp_path, capsys):
    # A^2 = 2, so the minimal polynomial of A is x^2 - 2
    rep_file = tmp_path / "rep.txt"
    rep_file.write_text("A 2 2 0 2 1 0\nB 2 2 1 0 0 0\nC 2 2 0 0 0 1\nDelta 2 2 0 0 0 0\n")
    status = main(["leonard", "check", "--rep", str(rep_file)])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.startswith("error: minimal polynomial does not split")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_rd_analyze_fields(capsys):
    status, out = _run(
        capsys, "rd", "analyze", "--a=-1/4", "--b=-1/4", "--c=-1/4", "--d", "1"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["irreducible"] is True
    assert payload["iso_class"]["label"] == "R_1(-1/4,-1/4,-1/4)"
    assert payload["min_poly_degrees"] == [2, 2, 2]
    assert payload["leonard"] is True


def test_rd_analyze_reducible(capsys):
    status, out = _run(
        capsys, "rd", "analyze", "--a", "0/1", "--b", "0/1", "--c", "1/2", "--d", "1"
    )
    assert status == 0
    payload = json.loads(out)
    assert payload["irreducible"] is False
    assert payload["leonard"] is None


def test_hypercube_verify(capsys):
    status, out = _run(capsys, "hypercube", "verify", "--D", "2")
    assert status == 0
    assert all(entry["pass"] for entry in json.loads(out))


def test_verify_and_thm1_8_build_no_dense_cube(monkeypatch, capsys):
    forbid_dense_cube(monkeypatch)
    status, out = _run(capsys, "hypercube", "verify", "--D", "9")
    assert status == 0 and len(json.loads(out)) == 16
    status, out = _run(capsys, "suite", "--targets", "thm1_8", "--D", "9..9")
    assert status == 0 and json.loads(out)["ok"]


def test_hypercube_export(tmp_path, capsys):
    status, _ = _run(
        capsys, "hypercube", "build", "--D", "2", "--export", str(tmp_path)
    )
    assert status == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "cube_D2_E.txt",
        "cube_D2_F.txt",
        "cube_D2_H.txt",
        "cube_D2_A2J.txt",
        "cube_D2_A2Jbar.txt",
        "cube_D2_A2star.txt",
    }
    assert (tmp_path / "cube_D2_H.txt").read_text().splitlines()[0] == "4 4"


def test_decompose_targets(capsys):
    status, out = _run(capsys, "decompose", "--target", "hypercube", "--D", "2")
    assert status == 0
    payload = json.loads(out)
    assert payload["ambient_dim"] == 4 and payload["complete"]

    status, out = _run(capsys, "decompose", "--target", "Ln", "--n", "4")
    assert status == 0
    assert json.loads(out)["complete"]

    status, out = _run(capsys, "decompose", "--target", "halved", "--D", "3")
    assert status == 0
    assert json.loads(out)["ambient_dim"] == 4


def test_compare_te_re(capsys):
    status, out = _run(capsys, "compare-te-re", "--D", "4")
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "D_parity": "even",
        "dim_Re": 7,
        "dim_Te": 11,
        "equal": False,
        "schema": "racahlab-report/1",
    }


def test_missing_required_argument(capsys):
    status = main(["decompose", "--target", "hypercube"])
    assert status == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rd", "analyze", "--a", "1/0", "--b", "0", "--c", "0", "--d", "1"],
        ["rd", "build", "--a", "1/2+i", "--b", "0", "--c", "0", "--d", "1"],
        ["rd", "build", "--a", "1", "--b", "0", "--c", "0", "--d", "1", "--out", "{no_dir}"],
        ["suite", "--targets", "thm1_4", "--D", "2..x"],
        ["hypercube", "build", "--D", "2", "--export", "{short}/sub"],
        ["racah", "verify", "--rep", "{missing}"],
        ["leonard", "check", "--rep", "{missing}"],
        ["racah", "verify", "--rep", "{short}"],
        ["racah", "verify", "--rep", "{zero_den}"],
        ["racah", "verify", "--rep", "{ragged}"],
        ["hypercube", "build", "--D", "40"],
        ["hypercube", "verify", "--D", "17"],
        ["hypercube", "build", "--D", "1"],
        ["decompose", "--target", "Ln", "--n", "-1"],
        ["rd", "analyze", "--a", "1", "--b", "1", "--c", "1", "--d", "-1"],
        ["racah", "verify", "--rep", "{repeated}"],
        ["racah", "verify", "--rep", "{negative_header}"],
        ["compare-te-re", "--D", "17"],
        ["suite", "--targets", "thm8_7", "--D", "17..17"],
        ["hypercube", "build", "--D", "9"],
        ["suite", "--targets", "thm1_4", "--D", "2..17"],
        ["suite", "--targets", "thm8_4", "--D", "2..9", "--export-matrices", "{no_dir}"],
        ["rd", "analyze", "--a", "1", "--b", "0", "--c", "0", "--d", "33"],
        ["rd", "build", "--a", "1", "--b", "0", "--c", "0", "--d", "33"],
        ["suite", "--targets", "lemma6_suite", "--d", "0..33"],
        ["decompose", "--target", "Ln", "--n", "33"],
        ["leonard", "check", "--rep", "{oversized}"],
        ["suite", "--targets", ","],
        ["racah", "verify", "--rep", "{arabic_digits}"],
    ],
    ids=["zero-denominator-flag", "bad-token-flag", "unwritable-out", "bad-range",
         "export-under-a-file", "missing-rep", "missing-rep-leonard", "short-block", "zero-denominator-file",
         "mismatched-blocks", "cube-above-dense-cap", "verify-above-orbit-cap", "cube-below-2",
         "negative-highest-weight", "negative-rd-size", "repeated-block-label", "negative-header",
         "compare-above-orbit-cap", "suite-thm8_7-above-orbit-cap", "build-D9-above-dense-cap",
         "suite-above-orbit-cap", "suite-export-above-dense-cap", "analyze-above-size-cap",
         "build-above-size-cap", "suite-d-above-size-cap", "Ln-above-size-cap",
         "rep-above-size-cap", "empty-target-list", "non-ascii-digits"],
)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    files = {
        "missing": tmp_path / "missing.txt",
        "no_dir": tmp_path / "no_dir" / "rep.txt",
        "short": tmp_path / "short.txt",
        "zero_den": tmp_path / "zero_den.txt",
        "ragged": tmp_path / "ragged.txt",
        "repeated": tmp_path / "repeated.txt",
        "negative_header": tmp_path / "negative_header.txt",
        "oversized": tmp_path / "oversized.txt",
        "arabic_digits": tmp_path / "arabic_digits.txt",
    }
    files["short"].write_text("A\n2 2\n1/1 0/1 0/1\n")
    files["zero_den"].write_text("A\n1 1\n1/0\n")
    files["ragged"].write_text("A 1 1 0 B 1 1 0 C 1 1 0 Delta 2 2 0 0 0 0\n")
    # a later A block must not silently replace the first one
    files["repeated"].write_text("A 1 1 5\nA 1 1 7\nB 1 1 0\nC 1 1 0\nDelta 1 1 0\n")
    # ARABIC-INDIC ONE, ONE, THREE: int() would read the block as 'A 1 1 3'
    files["arabic_digits"].write_text("A \u0661 \u0661 \u0663 B 1 1 0 C 1 1 0 Delta 1 1 0\n")
    files["negative_header"].write_text("A\n2 -2\n1/1 0/1 0/1 1/1\nB 1 1 0 C 1 1 0 Delta 1 1 0\n")
    # R_d one past the --d cap, built by the library, which has no cap
    oversized = rd.construct(rd.RdParams(1, 0, 0, cli.MAX_MODULE_SIZE + 1))
    files["oversized"].write_text(rep_to_text(oversized))
    status = main([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_rep_size_cap_admits_r_d_at_the_d_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "MAX_MODULE_SIZE", 2)
    for d, status in ((2, 0), (3, 2)):
        path = tmp_path / f"r{d}.txt"
        path.write_text(rep_to_text(rd.construct(rd.RdParams(Fraction(-1, 4), 0, 1, d))))
        assert main(["racah", "verify", "--rep", str(path)]) == status
    assert capsys.readouterr().err == f"configuration error: {path} has dimension 4, above the cap of 3\n"


@pytest.mark.parametrize("text", ["A\n300 300\n1/1 0/1\n", "A 1 1 0\nB 300 300 1/1\n"], ids=["A", "B"])
def test_rep_size_cap_is_read_from_the_headers(text, tmp_path, capsys):
    """A header above the cap is rejected before any entry is parsed: the short
    body after it would be a parse error."""
    path = tmp_path / "claims_300.txt"
    path.write_text(text)
    assert main(["leonard", "check", "--rep", str(path)]) == 2
    cap = cli.MAX_MODULE_SIZE + 1
    assert capsys.readouterr().err == f"configuration error: {path} has dimension 300, above the cap of {cap}\n"


def test_default_targets_order():
    """The default --targets, in the order that config.targets prints."""
    assert SUITE_TARGETS == (
        "thm1_4", "thm1_5", "thm1_6_membership", "thm3_3", "sec3_identities",
        "prop2_4", "lemma6_suite", "thm6_9", "thm7_2", "thm7_5", "thm1_8", "thm8_4", "thm8_7",
    )
    assert build_parser().parse_args(["suite"]).targets == ",".join(SUITE_TARGETS)


@pytest.mark.parametrize(
    "suite, target",
    [("sharp", "thm1_4"), ("kernel", "thm1_6_membership"), ("d3", "thm3_3"),
     ("even-identities", "sec3_identities")],
)
def test_verify_prints_the_rows_of_its_suite_target(suite, target, capsys):
    status, out = _run(capsys, "verify", suite)
    assert status == 0
    status, report = _run(capsys, "suite", "--targets", target)
    assert status == 0
    rows = json.loads(report)["checks"]
    assert all(row.pop("target") == target for row in rows)
    assert json.loads(out) == rows


def test_cube_suite_builds_each_closure_once(monkeypatch, capsys):
    """Nine D values, more than a cache of 8 holds: thm8_4 reads every graph
    closure that thm1_8 built, and no pullback closure is built."""
    for cached in (dec.cube_operator_closure, dec.cube_decompose):
        cached.cache_clear()
    built = Counter()
    closure = orbit.closure

    def spy(gens, D, even=False):
        built[D, even, tuple(map(tuple, gens))] += 1
        return closure(gens, D, even)

    def pullback_closure(D):
        raise AssertionError(f"pullback closure at D={D}")

    monkeypatch.setattr(orbit, "closure", spy)
    monkeypatch.setattr(dec, "cube_pullback_closure", pullback_closure)
    status, _ = _run(capsys, "suite", "--targets", "thm1_8,thm8_4", "--D", "2..10")
    assert status == 0
    assert len(built) == 9 and set(built.values()) == {1}


@pytest.mark.parametrize("label", orbit.SPAN_IDENTITIES)
def test_failed_span_identity_fails_the_coincidence_row(label, monkeypatch, capsys):
    """The thm1_8 coincidence row is decided by the six span identities, so
    one failed identity fails it although both closures are equal."""
    real = orbit.cube_build

    def planted(D):
        ops, checks = real(D)
        return ops, tuple(replace(c, passed=False) if c.identity == label else c for c in checks)

    monkeypatch.setattr(cli, "cube_build", planted)
    status, out = _run(capsys, "suite", "--targets", "thm1_8", "--D", "3..4")
    failed = [row["identity"] for row in json.loads(out)["checks"] if not row["pass"]]
    assert status == 1
    assert failed == [
        f"D=3: {label}", "D=3: generated algebras coincide by the pullback identities (dim 5)",
        f"D=4: {label}", "D=4: generated algebras coincide by the pullback identities (dim 11)",
    ]


def test_suite_deterministic_and_exit_status(tmp_path):
    cfg = SuiteConfig(
        targets=("thm1_4", "prop2_4", "thm6_9"),
        d_range=(0, 2),
        big_d_range=(2, 2),
        samples=4,
        seed=7,
        out=None,
        export_matrices=None,
    )
    status1, report1 = run_suite(cfg)
    status2, report2 = run_suite(cfg)
    assert status1 == status2 == 0
    assert json.dumps(report1, sort_keys=True) == json.dumps(report2, sort_keys=True)
    assert report1["config"]["seed"] == 7


def test_suite_symbolic_and_half_targets_pass(capsys):
    targets = ["thm1_6_membership", "thm3_3", "sec3_identities", "thm7_2", "thm7_5"]
    status, out = _run(capsys, "suite", "--targets", ",".join(targets))
    assert status == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert all(check["pass"] for check in report["checks"])
    assert {check["target"] for check in report["checks"]} == set(targets)


def test_lemma6_suite_at_the_d_cap_with_a_reducible_draw(capsys):
    """Seed 2 draws a reducible R_32 that Norton's exact spin decides; the
    exact closure of its 33 x 33 generators would not finish in minutes."""
    status, out = _run(
        capsys, "suite", "--targets", "lemma6_suite", "--samples", "2", "--d", "32..32", "--seed", "2"
    )
    assert status == 0
    report = json.loads(out)
    assert report["ok"] is True and report["checks"]
    assert all(check["pass"] for check in report["checks"])


def test_suite_unknown_target(capsys):
    status = main(["suite", "--targets", "not_a_target"])
    assert status == 2
    assert "configuration error" in capsys.readouterr().err


def test_suite_rejects_negative_samples(capsys):
    status = main(["suite", "--targets", "prop2_4", "--samples", "-1"])
    assert status == 2
    assert capsys.readouterr().err == "configuration error: --samples must be at least 0\n"
    status, out = _run(capsys, "suite", "--targets", "prop2_4", "--samples", "0")
    report = json.loads(out)
    assert status == 0 and report["ok"] is True and report["checks"] == []


@pytest.mark.parametrize(
    "extra", [["--D", "2..17"], ["--D", "8..9", "--export-matrices", "{tmp}/cube"], ["--d=-3..-1"]]
)
def test_suite_checks_D_before_any_target_runs(extra, tmp_path, monkeypatch, capsys):
    def ran(cfg):
        raise AssertionError("a target ran")

    monkeypatch.setitem(cli._TARGET_RUNNERS, "thm8_4", ran)
    status = main(["suite", "--targets", "thm8_4", *[arg.format(tmp=tmp_path) for arg in extra]])
    assert status == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "cube").exists()


def test_suite_cli_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    status = main(
        [
            "suite",
            "--targets", "thm1_4,thm1_5",
            "--out", str(out_file),
        ]
    )
    assert status == 0
    payload = json.loads(out_file.read_text())
    assert payload["ok"] is True
    assert payload["schema"] == "racahlab-report/1"
    # every numeric in the checks is exact: no floats anywhere
    def no_floats(node):
        if isinstance(node, float):
            return False
        if isinstance(node, dict):
            return all(no_floats(v) for v in node.values())
        if isinstance(node, list):
            return all(no_floats(v) for v in node)
        return True

    assert no_floats(payload)


# -- bounded fuzz of the command line ---------------------------------------------

_BIG_D = st.sampled_from(["-1", "0", "1", "2", "3", "4", "x", "", "2.5"])
_SMALL_D = st.sampled_from(["-1", "0", "1", "2", "3", "x", ""])
_SCALARS = st.sampled_from(["0", "1", "-1/4", "1/2", "2/3+1/3*i", "-2+1*i", "i", "1/0", "1/2+i", "abc", ""])
_RANGES = st.sampled_from(["2..3", "2", "4", "0..1", "-1..2", "3..2", "2..x", "..", ""])
_D_RANGES = st.sampled_from(["0..3", "1", "-1..1", "2..1", "0..x", ".."])
_REP_TOKENS = st.sampled_from(["A", "B", "C", "Delta", "E", "1", "2", "0", "-1", "1/2", "1/0", "x", "3+i", "0/1"])
_REP_ENTRIES = st.sampled_from(["0/1", "1/1", "-1/1", "2/1", "1/2", "-3/4", "1/2+1/3*i", "0/1-1/1*i"])
_VALID_REPS = [
    rep_to_text(rd.construct(rd.RdParams(Fraction(-1, 4), Fraction(1, 3), Fraction(2, 7), d))).split()
    for d in (1, 2)
]


@st.composite
def _rep_texts(draw):
    """A valid R_1 or R_2 quadruple file with a few token edits, or a short token soup."""
    if draw(st.integers(0, 3)) == 0:
        return " ".join(draw(st.lists(_REP_TOKENS, max_size=24)))
    tokens = list(draw(st.sampled_from(_VALID_REPS)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.integers(0, 7))
        if edit == 0:
            del tokens[k]
        elif edit == 1:
            tokens.insert(k, draw(_REP_TOKENS))
        elif "/" in tokens[k]:  # an entry, not a label or a header
            tokens[k] = draw(_REP_ENTRIES)
    return "\n".join(tokens)


def _flags(draw, *pairs):
    """The flag/value pairs, each dropped one time in eight."""
    return [x for flag, values in pairs if draw(st.integers(0, 7)) for x in (flag, draw(values))]


@st.composite
def _cli_argvs(draw):
    paths = st.sampled_from(["{tmp}/out.txt", "{tmp}/rep.txt", "{tmp}/rep.txt/sub", "{tmp}/missing/x.txt"])
    command = draw(st.sampled_from(
        ["verify", "racah", "leonard", "rd", "hypercube", "decompose", "compare-te-re", "suite"]
    ))
    if command == "verify":
        argv = ["verify", draw(st.sampled_from(["sharp", "kernel", "d3", "even-identities", "odd"]))]
    elif command in ("racah", "leonard"):
        argv = [command, "verify" if command == "racah" else "check", "--rep",
                draw(st.sampled_from(["{tmp}/rep.txt", "{tmp}/missing.txt", "{tmp}"]))]
    elif command == "rd":
        action = draw(st.sampled_from(["build", "analyze"]))
        argv = ["rd", action, *_flags(draw, ("--a", _SCALARS), ("--b", _SCALARS), ("--c", _SCALARS), ("--d", _SMALL_D))]
        if action == "build" and draw(st.booleans()):
            argv += ["--out", draw(paths)]
    elif command == "hypercube":
        action = draw(st.sampled_from(["build", "verify"]))
        argv = ["hypercube", action, *_flags(draw, ("--D", _BIG_D))]
        if action == "build" and draw(st.booleans()):
            argv += ["--export", draw(st.sampled_from(["{tmp}/cube", "{tmp}/rep.txt/cube"]))]
    elif command == "decompose":
        target = st.sampled_from(["hypercube", "Ln", "halved", "other"])
        argv = ["decompose", *_flags(draw, ("--target", target), ("--D", _BIG_D), ("--n", _SMALL_D))]
    elif command == "compare-te-re":
        argv = ["compare-te-re", *_flags(draw, ("--D", _BIG_D))]
    else:
        names = st.sampled_from([*SUITE_TARGETS, "bogus", ""])
        targets = st.lists(names, min_size=1, max_size=3).map(",".join)
        argv = ["suite", *_flags(
            draw, ("--targets", targets), ("--D", _RANGES), ("--d", _D_RANGES),
            ("--samples", st.sampled_from(["-1", "0", "2", "x"])), ("--seed", st.sampled_from(["0", "7", "-3", "y"])),
        )]
        if draw(st.booleans()):
            argv += [draw(st.sampled_from(["--out", "--export-matrices"])), draw(paths)]
    if draw(st.integers(0, 9)) == 0:
        # one stray token somewhere
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--D", "2", "--bogus", "-"])))
    return argv, draw(_rep_texts())


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=_cli_argvs())
def test_cli_fuzz_exits_0_1_or_2_without_a_traceback(case, tmp_path, capsys):
    argv, rep_text = case
    (tmp_path / "rep.txt").write_text(rep_text)
    try:
        status = main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:  # argparse rejects the argv
        status = exc.code
    err = capsys.readouterr().err
    assert status in (0, 1, 2)
    assert "Traceback" not in err


# -- defs that the CLI does not reach ----------------------------------------------

# Each top-level def in src/racahlab that no name reference from cli.main
# reaches, with the reason it stays.
UNREACHED = {
    "decompose.even_isotypic": "dense oracle of the even-half split; benchmarks/tracer.py times it",
    "decompose.even_copies": "the chains behind even_isotypic, which tests compare",
    "decompose.sl2_isotypic": "highest-weight oracle of the L_n split, used by tests",
    "decompose._isotypic_report": "the report that sl2_isotypic and even_isotypic assemble",
    "sl2.halved_cube": "dense even-level cube oracle; benchmarks/tracer.py times it",
    "sl2.HalvedCube": "the record halved_cube returns",
    "sl2._restrict": "halved_cube's restriction to the even levels",
    "sl2.hypercube_checks": "check_list on dense matrices; the benchmark's cube workload calls it",
    "matrix.rref": "echelon oracle of the tests; benchmarks/tracer.py times it",
    "decompose.prop_7_6_classes": "Proposition 7.6, checked by tests: a suite target candidate",
    "decompose.expected_cube_even_classes": "Proposition 7.6's cube catalog: a suite target candidate",
    "racah.casimirs": "Theorem 1.5 on matrices, checked by tests: a suite target candidate",
    "racah.sigma_twist": "Theorem 3.3's order-2 twist, checked by tests: a suite target candidate",
    "racah.tau_twist": "Theorem 3.3's order-3 twist, checked by tests: a suite target candidate",
    "pbw.even_lambda_span_coordinates": "Section 3's even span, checked by tests: a suite target candidate",
    "rd.iso_class": "a quadruple's class from its traces, used by tests",
    "racah.load_rep": "the library's rep-file reader, kept on purpose",
    "decompose.cube_pullback_closure": "the benchmark's cube workload and acceptance criterion 8 build it",
}


def _unreached_defs() -> set[str]:
    """Walk name references from cli.main; every statement at module level
    (tables, constants) counts as reached, and a name reaches every def so
    named in any module."""
    defs, todo = {}, []
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node))
            else:
                todo.append(node)
    reached = {"cli.main"}
    todo += [node for key, node in defs["main"] if key == "cli.main"]
    while todo:
        for ref in ast.walk(todo.pop()):
            name = ref.id if isinstance(ref, ast.Name) else getattr(ref, "attr", None)
            for key, node in defs.get(name, ()):
                if key not in reached:
                    reached.add(key)
                    todo.append(node)
    return {key for named in defs.values() for key, _ in named} - reached


def test_unreached_defs_are_the_allowlist():
    assert _unreached_defs() == set(UNREACHED)

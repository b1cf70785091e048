"""Command-line interface: subcommands, JSON shapes, determinism."""

import json

import pytest

from racahlab.cli import build_parser, main, run_suite, SuiteConfig, SUITE_TARGETS


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
        ["hypercube", "verify", "--D", "13"],
        ["hypercube", "build", "--D", "1"],
        ["decompose", "--target", "Ln", "--n", "-1"],
        ["rd", "analyze", "--a", "1", "--b", "1", "--c", "1", "--d", "-1"],
    ],
    ids=["zero-denominator-flag", "bad-token-flag", "unwritable-out", "bad-range",
         "export-under-a-file", "missing-rep", "missing-rep-leonard", "short-block", "zero-denominator-file",
         "mismatched-blocks", "cube-above-dense-cap", "verify-above-dense-cap", "cube-below-2",
         "negative-highest-weight", "negative-rd-size"],
)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, capsys):
    files = {
        "missing": tmp_path / "missing.txt",
        "no_dir": tmp_path / "no_dir" / "rep.txt",
        "short": tmp_path / "short.txt",
        "zero_den": tmp_path / "zero_den.txt",
        "ragged": tmp_path / "ragged.txt",
    }
    files["short"].write_text("A\n2 2\n1/1 0/1 0/1\n")
    files["zero_den"].write_text("A\n1 1\n1/0\n")
    files["ragged"].write_text("A 1 1 0 B 1 1 0 C 1 1 0 Delta 2 2 0 0 0 0\n")
    status = main([arg.format(**files) for arg in argv])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_all_targets_registered():
    parser = build_parser()
    args = parser.parse_args(["suite", "--targets", ",".join(SUITE_TARGETS)])
    assert args.targets == ",".join(SUITE_TARGETS)


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


def test_suite_unknown_target(capsys):
    status = main(["suite", "--targets", "not_a_target"])
    assert status == 2
    assert "configuration error" in capsys.readouterr().err


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

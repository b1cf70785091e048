"""Golden outputs: CLI reports and exported matrices, compared byte for byte,
and each report's exit code.

The files under ``tests/golden/`` are the output of the commands below.
Regenerate them only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from racahlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file -> CLI arguments whose stdout it holds
STDOUT_CASES = {
    "suite_D2-5_d0-4_seed7.json": [
        "suite",
        "--targets", "thm1_8,thm8_4,thm8_7,prop2_4,lemma6_suite,thm6_9",
        "--D", "2..5", "--d", "0..4", "--seed", "7",
    ],
    "hypercube_verify_D4.json": ["hypercube", "verify", "--D", "4"],
    "decompose_hypercube_D4.json": ["decompose", "--target", "hypercube", "--D", "4"],
    "decompose_halved_D4.json": ["decompose", "--target", "halved", "--D", "4"],
    "compare_te_re_D5.json": ["compare-te-re", "--D", "5"],
    "rd_build_d2.txt": ["rd", "build", "--a=1/2+1*i", "--b=1/3", "--c=-1+1/2*i", "--d", "2"],
    # reads the quadruple of the case above
    "leonard_check_d2.json": ["leonard", "check", "--rep", str(GOLDEN / "rd_build_d2.txt")],
    # a = -1/2 makes A non-diagonalizable on R_3: the report fails (exit 1)
    "rd_build_nondiag_d3.txt": [
        "rd", "build", "--a=-1/2", "--b=1/3+1*i", "--c=-2+1/2*i", "--d", "3",
    ],
    "leonard_check_nondiag_d3.json": [
        "leonard", "check", "--rep", str(GOLDEN / "rd_build_nondiag_d3.txt"),
    ],
    # a passing draw whose three spectra are six Gaussian rationals each
    "rd_build_d5.txt": ["rd", "build", "--a=1/2+1*i", "--b=1/3", "--c=-1+1/2*i", "--d", "5"],
    "leonard_check_d5.json": ["leonard", "check", "--rep", str(GOLDEN / "rd_build_d5.txt")],
    # the module-family targets on 20 draws per d: Burnside, squarefree and root verdicts
    "suite_d0-6_samples20_seed3.json": [
        "suite", "--targets", "lemma6_suite,thm6_9,prop2_4",
        "--d", "0..6", "--samples", "20", "--seed", "3",
    ],
    # a hint-free check of a complex-parameter draw with thirteen-point spectra
    "rd_build_d12.txt": [
        "rd", "build", "--a=2/3+1/3*i", "--b=-2+1*i", "--c=3+1*i", "--d", "12",
    ],
    "leonard_check_d12.json": ["leonard", "check", "--rep", str(GOLDEN / "rd_build_d12.txt")],
    # the relation layer and minimal polynomials on 33 x 33 quadruples
    "suite_d32_samples2_seed1.json": [
        "suite", "--targets", "lemma6_suite,prop2_4",
        "--d", "32..32", "--samples", "2", "--seed", "1",
    ],
    # hint-free checks of 33 x 33 quadruples: a passing draw, and a = -1/2,
    # which makes A non-diagonalizable (exit 1)
    "rd_build_d32.txt": [
        "rd", "build", "--a=2/3+1/3*i", "--b=-2+1*i", "--c=3+1*i", "--d", "32",
    ],
    "leonard_check_d32.json": ["leonard", "check", "--rep", str(GOLDEN / "rd_build_d32.txt")],
    "rd_build_nondiag_d32.txt": [
        "rd", "build", "--a=-1/2", "--b=-2+1*i", "--c=3+1*i", "--d", "32",
    ],
    "leonard_check_nondiag_d32.json": [
        "leonard", "check", "--rep", str(GOLDEN / "rd_build_nondiag_d32.txt"),
    ],
    # the symbolic pbw suites and the L_n parity halves for n = 0..12
    "suite_symbolic_thm7_samples0.json": [
        "suite",
        "--targets", "thm1_4,thm1_5,thm1_6_membership,thm3_3,sec3_identities,thm7_2,thm7_5",
        "--samples", "0",
    ],
    "decompose_Ln_n12.json": ["decompose", "--target", "Ln", "--n", "12"],
}

# each case's exit code, where it is pinned; any other case exits 0
EXIT_CODES = {
    "leonard_check_nondiag_d3.json": 1,
    "leonard_check_nondiag_d32.json": 1,
    "suite_symbolic_thm7_samples0.json": 0,
    "decompose_Ln_n12.json": 0,
}

EXPORT_D = 4
EXPORT_CASES = [f"cube_D{EXPORT_D}_{name}.txt" for name in ("E", "F", "H", "A2J", "A2Jbar", "A2star")]


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and the standard output of one CLI call."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _stdout_of(argv: list[str]) -> str:
    return _run(argv)[1]


# the two commands that export the cube's matrices; each exits 0
EXPORT_COMMANDS = {
    "hypercube": ["hypercube", "build", "--D", str(EXPORT_D), "--export"],
    "suite": ["suite", "--targets", "thm1_8", "--D", f"{EXPORT_D}..{EXPORT_D}", "--export-matrices"],
}


def _export(directory: Path, command: str) -> None:
    code, _out = _run([*EXPORT_COMMANDS[command], str(directory)])
    assert code == 0


@pytest.fixture(scope="module")
def exported(tmp_path_factory) -> dict[str, Path]:
    """Each export command run once: command -> the directory it wrote."""
    directories = {command: tmp_path_factory.mktemp(command) for command in EXPORT_COMMANDS}
    for command, directory in directories.items():
        _export(directory, command)
    return directories


@pytest.mark.parametrize("name", sorted(STDOUT_CASES) + EXPORT_CASES)
def test_output_matches_golden(name, request):
    if name in STDOUT_CASES:
        code, got = _run(STDOUT_CASES[name])
        assert code == EXIT_CODES.get(name, 0)
        assert got == (GOLDEN / name).read_text()
    else:
        # requested here, so that the stdout cases do not run the exports
        for command, directory in request.getfixturevalue("exported").items():
            assert (directory / name).read_text() == (GOLDEN / name).read_text(), command


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    # the rd builds first: the Leonard cases read them
    for name, argv in sorted(STDOUT_CASES.items(), key=lambda kv: not kv[0].startswith("rd_build")):
        (GOLDEN / name).write_text(_stdout_of(argv))
    with tempfile.TemporaryDirectory() as tmp:
        _export(Path(tmp), "hypercube")
        for name in EXPORT_CASES:
            (GOLDEN / name).write_text((Path(tmp) / name).read_text())

"""Command-line front end: verification subcommands and reproducible suites.

Reports are JSON with every numeric quantity rendered as an exact-rational
token, never a float.  Suite runs are deterministic: the same configuration
(including the recorded seed) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import decompose as dec
from . import leonard, pbw, rd
from .errors import ConfigError, DimensionMismatch, RacahLabError
from .gaussian import GaussianRational
from .orbit import MAX_ORBIT_D, MODULE_CHECKS, SPAN_IDENTITIES, cube_build
from .racah import (
    central_values,
    rep_blocks,
    rep_from_text,
    rep_to_text,
    verify_presentation,
    verify_section6_relations,
)
from .sl2 import MAX_DENSE_D, build_hypercube, build_Ln, even_halves

REPORT_SCHEMA = "racahlab-report/1"

# The largest --d (R_d) or --n (L_n) the CLI accepts.  Timed as whole
# processes on a 2-vCPU x86-64 guest: at 32 `rd analyze` takes 0.6 to 1 s,
# `decompose --target Ln` 0.3 s and a `lemma6_suite` sample about 1 s;
# `rd analyze` takes 7 s at 64 and 37 s (480 MB) at 96.
MAX_MODULE_SIZE = 32

@dataclass(frozen=True)
class SuiteConfig:
    targets: tuple[str, ...]
    d_range: tuple[int, int]
    big_d_range: tuple[int, int]
    samples: int
    seed: int
    out: str | None
    export_matrices: str | None

    def as_dict(self) -> dict:
        return {
            "targets": list(self.targets),
            "d": f"{self.d_range[0]}..{self.d_range[1]}",
            "D": f"{self.big_d_range[0]}..{self.big_d_range[1]}",
            "samples": self.samples,
            "seed": self.seed,
        }


def _check_json(result: pbw.CheckResult) -> dict:
    return {
        "identity": result.identity,
        "pass": result.passed,
        "residual_term_count": result.residual_term_count,
    }


def _ok(name: str, passed: bool, **extra) -> dict:
    return {"identity": name, "pass": bool(passed), **extra}


# -- seeded parameter sampling --------------------------------------------------


def sample_params(rng: random.Random, d: int) -> rd.RdParams:
    """Draw a parameter triple from a bounded Gaussian-integer box."""

    def scalar() -> GaussianRational:
        num_re = rng.randint(-3, 3)
        num_im = rng.randint(-1, 1)
        den = rng.randint(1, 3)
        return GaussianRational(Fraction(num_re, den), Fraction(num_im, den))

    return rd.RdParams(scalar(), scalar(), scalar(), d)


def _samples(cfg: SuiteConfig, offset: int):
    """The (k, params) draws of a sampled target: --samples draws seeded by
    --seed + offset, with d cycling through the --d range."""
    rng = random.Random(cfg.seed + offset)
    lo, hi = cfg.d_range
    for k in range(cfg.samples):
        yield k, sample_params(rng, lo + k % (hi - lo + 1))


# -- suite targets ------------------------------------------------------------


# The symbolic targets: the `verify` suite that prints the same checks (None
# if there is none) and the pbw functions that make them.
_SYMBOLIC_TARGETS = {
    "thm1_4": ("sharp", [pbw.verify_sharp_relations]),
    "thm1_5": (None, [pbw.verify_casimir_images]),
    "thm1_6_membership": ("kernel", [pbw.verify_kernel_generators]),
    "thm3_3": ("d3", [pbw.verify_d3_presentation, pbw.verify_equivariance]),
    "sec3_identities": ("even-identities", [pbw.verify_even_identities]),
}
_VERIFY_SUITES = {name: target for target, (name, _) in _SYMBOLIC_TARGETS.items() if name}


def _symbolic_checks(target: str) -> list[pbw.CheckResult]:
    return [r for verify in _SYMBOLIC_TARGETS[target][1] for r in verify()]


def _run_prop2_4(cfg: SuiteConfig) -> list[dict]:
    out = []
    for k, params in _samples(cfg, 0):
        rep = rd.construct(params)
        report = verify_presentation(rep)
        out.append(
            _ok(
                f"sample {k}: presentation holds for {params.label()}",
                report.ok,
            )
        )
        values = central_values(rep)
        closed = rd.central_scalars(params)
        scalars = values.scalars()
        match = all(scalars[name] == closed[name] for name in closed)
        out.append(
            _ok(
                f"sample {k}: central values are the four closed scalars",
                match,
            )
        )
    return out


def _run_lemma6(cfg: SuiteConfig) -> list[dict]:
    out = []
    for k, params in _samples(cfg, 1):
        rep = rd.construct(params)
        traces = (rep.A.trace(), rep.B.trace(), rep.C.trace())
        traces_ok = rd.iso_class_from_traces(params.d, *traces) == rd.iso_class_of(params)
        out.append(_ok(f"sample {k}: trace closed forms", traces_ok))
        witness = rd.is_irreducible(params)
        burnside = rd.burnside_irreducible(rep)
        out.append(
            _ok(
                f"sample {k}: irreducibility criterion agrees with closure oracle",
                bool(witness) == burnside,
            )
        )
        sec6 = verify_section6_relations(rep)
        out.append(_ok(f"sample {k}: six auxiliary relations", sec6.ok))
        if witness:
            polys = rd.min_polys(params)
            gcd_flags = [p.is_squarefree for p in polys]
            window_flags = [
                rd.parameter_diagonalizable(v, params.d)
                for v in (params.a, params.b, params.c)
            ]
            out.append(
                _ok(
                    f"sample {k}: diagonalizability window matches squarefree test",
                    gcd_flags == window_flags,
                )
            )
    return out


def _run_thm6_9(cfg: SuiteConfig) -> list[dict]:
    out = []
    for k, params in _samples(cfg, 2):
        witness = rd.is_irreducible(params)
        if not witness:
            out.append(
                _ok(
                    f"sample {k}: {params.label()} reducible; criterion skipped",
                    True,
                )
            )
            continue
        rep = rd.construct(params)
        criterion = rd.leonard_criterion(params)
        checker = leonard.check(rep.A, rep.B, rep.C, hints=rd.leonard_hints(params)).passed
        out.append(
            _ok(
                f"sample {k}: window criterion agrees with generic checker on {params.label()}",
                criterion == checker,
            )
        )
    return out


def _run_thm7(cfg: SuiteConfig, parity: int) -> list[dict]:
    out = []
    for n in range(parity, 13):
        rep = build_Ln(n)
        halves = even_halves(rep)
        half = halves[parity]
        if half is None:
            continue
        report = dec.split_even_half(half)
        expected = {
            rd.iso_class_of(p) for p in dec.expected_half_split(n, parity)
        }
        found = report.classes()
        out.append(
            _ok(
                f"n={n}: parity-{parity} half splits into the stated classes",
                found == expected and report.complete,
                classes=sorted(g.label for g in report.summands),
            )
        )
        out.append(
            _ok(
                f"n={n}: all parity-{parity} summands pass the Leonard check",
                all(g.leonard_passed for g in report.summands),
            )
        )
    return out


def _run_thm1_8(cfg: SuiteConfig) -> list[dict]:
    out = []
    lo, hi = cfg.big_d_range
    for D in range(lo, hi + 1):
        checks = cube_build(D)[1][MODULE_CHECKS:]
        out.extend(_check_json(replace(c, identity=f"D={D}: {c.identity}")) for c in checks)
        out.append(
            _ok(
                f"D={D}: generated algebras coincide by the pullback identities "
                f"(dim {dec.cube_operator_closure(D).dim})",
                all(c.passed for c in checks if c.identity in SPAN_IDENTITIES),
            )
        )
    return out


def _run_thm8_4(cfg: SuiteConfig) -> list[dict]:
    out = []
    lo, hi = cfg.big_d_range
    for D in range(lo, hi + 1):
        profile = dec.cube_semisimple_profile(D)
        formula = dec.block_dimension_formula(D)
        out.append(
            _ok(
                f"D={D}: closure dimension {profile.dim} equals the binomial formula {formula}",
                profile.dim == formula,
            )
        )
        out.append(
            _ok(
                f"D={D}: block profile matches the case expression",
                profile.blocks == dec.expected_block_profile(D),
                blocks=[list(b) for b in profile.blocks],
            )
        )
    return out


def _run_thm8_7(cfg: SuiteConfig) -> list[dict]:
    out = []
    lo, hi = cfg.big_d_range
    for D in range(lo, hi + 1):
        cmp = dec.compare_te_re(D)
        expected_equal = D % 2 == 1
        out.append(
            _ok(
                f"D={D}: restricted algebra dims ({cmp.dim_te}, {cmp.dim_re}), equal iff D odd",
                cmp.contained
                and cmp.equal == expected_equal
                and (cmp.dim_re <= cmp.dim_te),
                dim_Te=cmp.dim_te,
                dim_Re=cmp.dim_re,
            )
        )
        if cmp.te_classes_ok is not None:
            out.append(
                _ok(
                    f"D={D}: even-restriction class catalog",
                    cmp.te_classes_ok,
                )
            )
    return out


_TARGET_RUNNERS = {
    **{
        target: lambda cfg, target=target: [_check_json(r) for r in _symbolic_checks(target)]
        for target in _SYMBOLIC_TARGETS
    },
    "prop2_4": _run_prop2_4,
    "lemma6_suite": _run_lemma6,
    "thm6_9": _run_thm6_9,
    "thm7_2": lambda cfg: _run_thm7(cfg, 0),
    "thm7_5": lambda cfg: _run_thm7(cfg, 1),
    "thm1_8": _run_thm1_8,
    "thm8_4": _run_thm8_4,
    "thm8_7": _run_thm8_7,
}
# the default --targets, in the order that config.targets prints
SUITE_TARGETS = tuple(_TARGET_RUNNERS)


def run_suite(cfg: SuiteConfig) -> tuple[int, dict]:
    """Execute the selected targets; exit status 0 iff every check passes."""
    if not cfg.targets:
        raise ConfigError("--targets names no target")
    for target in cfg.targets:
        if target not in _TARGET_RUNNERS:
            raise ConfigError(f"unknown target {target!r}")
    lo, hi = cfg.big_d_range
    cap = MAX_DENSE_D if cfg.export_matrices else MAX_ORBIT_D
    if not 2 <= lo <= hi <= cap:
        exported = " with --export-matrices" if cfg.export_matrices else ""
        raise ConfigError(f"--D must lie in 2..{cap}{exported}")
    if cfg.d_range[0] < 0:
        raise ConfigError("--d must be at least 0")
    _module_size(cfg.d_range[1], "--d")
    if cfg.samples < 0:
        raise ConfigError("--samples must be at least 0")
    results = {target: _TARGET_RUNNERS[target](cfg) for target in cfg.targets}
    checks: list[dict] = []
    for target in sorted(results):
        checks.extend({"target": target, **row} for row in results[target])
    ok = all(c["pass"] for c in checks)
    report = {
        "schema": REPORT_SCHEMA,
        "config": cfg.as_dict(),
        "checks": checks,
        "ok": ok,
    }
    if cfg.export_matrices:
        for D in range(lo, hi + 1):
            _export_cube_operators(D, Path(cfg.export_matrices))
    return (0 if ok else 1), report


def _export_cube_operators(D: int, directory: Path) -> None:
    """Write E, F, H, A2J, A2Jbar and A2star of the D-cube as matrix text files."""
    rep, ops = build_hypercube(D)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, matrix in (
            ("E", rep.E),
            ("F", rep.F),
            ("H", rep.H),
            ("A2J", ops.A2J),
            ("A2Jbar", ops.A2Jbar),
            ("A2star", ops.A2star),
        ):
            (directory / f"cube_D{D}_{name}.txt").write_text(matrix.to_text())
    except OSError as exc:
        raise ConfigError(f"cannot write {directory}: {exc}") from None


# -- JSON rendering helpers ------------------------------------------------------


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _print_checks(checks) -> int:
    """Print the checks as a JSON list; exit status 0 iff every one passed."""
    _emit(_dump([_check_json(c) for c in checks]), None)
    return 0 if all(c.passed for c in checks) else 1


def _leonard_json(report: leonard.LeonardReport) -> dict:
    conditions = []
    for c in report.conditions:
        conditions.append(
            {
                "diagonal_index": c.diagonal_index,
                "diagonalizable": c.diagonalizable,
                "simple_spectrum": c.simple_spectrum,
                "ordering": list(c.ordering) if c.ordering is not None else None,
                "eigenvalues": [v.token() for v in c.eigenvalues]
                if c.eigenvalues is not None
                else None,
                "pass": c.passed,
                "reason": c.reason,
            }
        )
    return {"dim": report.dim, "conditions": conditions, "pass": report.passed}


def _iso_json(iso: rd.IsoClass) -> dict:
    return {"d": iso.d, "sA": iso.sA.token(), "sB": iso.sB.token(), "sC": iso.sC.token()}


def _decomposition_json(report: dec.DecompositionReport) -> dict:
    summands = []
    for g in report.summands:
        entry = {
            "label": g.label,
            "kind": g.kind,
            "dim": g.dim,
            "multiplicity": g.multiplicity,
        }
        if g.iso is not None:
            entry["iso_class"] = _iso_json(g.iso)
        if g.leonard_passed is not None:
            entry["leonard"] = g.leonard_passed
        summands.append(entry)
    return {
        "schema": REPORT_SCHEMA,
        "ambient_dim": report.ambient_dim,
        "summands": summands,
        "complete": report.complete,
    }


# -- argument parsing --------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ConfigError(f"bad range {text!r}") from None
    if lo > hi:
        raise ConfigError(f"empty range {text!r}")
    return lo, hi


def _module_size(value: int, flag: str) -> int:
    if value > MAX_MODULE_SIZE:
        raise ConfigError(f"{flag} must be at most {MAX_MODULE_SIZE}")
    return value


def _parse_scalar(text: str) -> GaussianRational:
    try:
        return GaussianRational.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad scalar {text!r}: {exc}") from None


def _load_rep(path: str):
    cap = MAX_MODULE_SIZE + 1  # a --rep file may be as large as R_d at the --d cap
    try:
        text = Path(path).read_text()
        # the block headers meet the cap before any entry is parsed
        size = max((max(rows, cols) for _, rows, cols, _ in rep_blocks(text.split())), default=0)
        if size <= cap:
            return rep_from_text(text)
    except (OSError, ValueError, ZeroDivisionError, DimensionMismatch) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    raise ConfigError(f"{path} has dimension {size}, above the cap of {cap}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racahlab",
        description="Exact verification toolkit for the Racah-to-enveloping-algebra "
        "homomorphism, its modules, and the cube operator algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="symbolic identity suites")
    verify.add_argument("suite", choices=list(_VERIFY_SUITES))

    racah_cmd = sub.add_parser("racah", help="operator quadruple checks")
    racah_sub = racah_cmd.add_subparsers(dest="racah_command", required=True)
    racah_verify = racah_sub.add_parser("verify")
    racah_verify.add_argument("--rep", required=True)

    rd_cmd = sub.add_parser("rd", help="bidiagonal module family")
    rd_sub = rd_cmd.add_subparsers(dest="rd_command", required=True)
    for name in ("build", "analyze"):
        p = rd_sub.add_parser(name)
        p.add_argument("--a", required=True)
        p.add_argument("--b", required=True)
        p.add_argument("--c", required=True)
        p.add_argument("--d", required=True, type=int)
        if name == "build":
            p.add_argument("--out")

    leonard_cmd = sub.add_parser("leonard", help="Leonard triple checks")
    leonard_sub = leonard_cmd.add_subparsers(dest="leonard_command", required=True)
    leonard_check_cmd = leonard_sub.add_parser("check")
    leonard_check_cmd.add_argument("--rep", required=True)

    cube = sub.add_parser("hypercube", help="cube module and graph operators")
    cube_sub = cube.add_subparsers(dest="cube_command", required=True)
    cube_build = cube_sub.add_parser("build")
    cube_build.add_argument("--D", required=True, type=int)
    cube_build.add_argument("--export")
    cube_verify = cube_sub.add_parser("verify")
    cube_verify.add_argument("--D", required=True, type=int)

    dec_cmd = sub.add_parser("decompose", help="module decompositions")
    dec_cmd.add_argument(
        "--target", required=True, choices=["hypercube", "Ln", "halved"]
    )
    dec_cmd.add_argument("--D", type=int)
    dec_cmd.add_argument("--n", type=int)

    tere = sub.add_parser("compare-te-re", help="even-restriction algebra dims")
    tere.add_argument("--D", required=True, type=int)

    suite = sub.add_parser("suite", help="reproducible verification suites")
    suite.add_argument("--targets", default=",".join(SUITE_TARGETS))
    suite.add_argument("--D", default="2..4")
    suite.add_argument("--d", default="0..3")
    suite.add_argument("--samples", type=int, default=10)
    suite.add_argument("--seed", type=int, default=1)
    suite.add_argument("--out")
    suite.add_argument("--export-matrices")

    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RacahLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "verify":
        return _print_checks(_symbolic_checks(_VERIFY_SUITES[args.suite]))

    if args.command == "racah":
        return _print_checks(verify_presentation(_load_rep(args.rep)).checks)

    if args.command == "rd":
        params = rd.RdParams(
            _parse_scalar(args.a), _parse_scalar(args.b), _parse_scalar(args.c),
            _module_size(args.d, "--d"),
        )
        if args.rd_command == "build":
            rep = rd.construct(params)
            _emit(rep_to_text(rep), args.out)
            return 0
        witness = rd.is_irreducible(params)
        payload = {
            "schema": REPORT_SCHEMA,
            "params": params.label(),
            "irreducible": bool(witness),
            "iso_class": None,
            "min_poly_degrees": None,
            "leonard": None,
        }
        if witness:
            iso = rd.iso_class_of(params)
            payload["iso_class"] = {**_iso_json(iso), "label": iso.label()}
            payload["min_poly_degrees"] = [p.degree for p in rd.min_polys(params)]
            payload["leonard"] = rd.leonard_criterion(params)
        _emit(_dump(payload), None)
        return 0

    if args.command == "leonard":
        rep = _load_rep(args.rep)
        report = leonard.check(rep.A, rep.B, rep.C)
        _emit(_dump(_leonard_json(report)), None)
        return 0 if report.passed else 1

    if args.command == "hypercube":
        if args.cube_command == "build":
            if args.export:
                _export_cube_operators(args.D, Path(args.export))
                print(f"exported 6 operators to {args.export}")
            else:
                rep, _ops = build_hypercube(args.D)
                print(f"built cube D={args.D}: dimension {rep.dim}")
            return 0
        return _print_checks(cube_build(args.D)[1])

    if args.command == "decompose":
        if args.target == "hypercube":
            if args.D is None:
                raise ConfigError("--D is required for the hypercube target")
            report = dec.cube_decompose(args.D)
        elif args.target == "halved":
            if args.D is None:
                raise ConfigError("--D is required for the halved target")
            report = dec.halved_decompose(args.D)
        else:
            if args.n is None:
                raise ConfigError("--n is required for the Ln target")
            report = dec.re_decompose(build_Ln(_module_size(args.n, "--n")))
        _emit(_dump(_decomposition_json(report)), None)
        return 0 if report.complete else 1

    if args.command == "compare-te-re":
        cmp = dec.compare_te_re(args.D)
        payload = {
            "schema": REPORT_SCHEMA,
            "dim_Te": cmp.dim_te,
            "dim_Re": cmp.dim_re,
            "equal": cmp.equal,
            "D_parity": "odd" if cmp.D % 2 else "even",
        }
        _emit(_dump(payload), None)
        return 0

    if args.command == "suite":
        targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
        cfg = SuiteConfig(
            targets=targets,
            d_range=_parse_range(args.d),
            big_d_range=_parse_range(args.D),
            samples=args.samples,
            seed=args.seed,
            out=args.out,
            export_matrices=args.export_matrices,
        )
        status, report = run_suite(cfg)
        _emit(_dump(report), cfg.out)
        return status

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

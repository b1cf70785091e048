"""Operator quadruples satisfying the Racah presentation, over exact matrices.

A quadruple (A, B, C, Delta) of equally sized square matrices is checked
against the defining relations: the three commutators equal 2*Delta, and the
three bracket combinations together with A+B+C are central.  A central
element that is a scalar matrix commutes with everything, so its four
commutators are not multiplied out; the others are.  ``ensure_verified``
returns a rep carrying the report and central values it computed, which
``verify_presentation`` and ``central_values`` then return; any other rep is
checked afresh.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .errors import DimensionMismatch, RelationFailure
from .gaussian import GaussianRational
from .matrix import ExactMatrix
from .pbw import CheckResult, omega


@dataclass(frozen=True)
class RacahRep:
    """Four same-size operators purporting to satisfy the presentation."""

    dim: int
    A: ExactMatrix
    B: ExactMatrix
    C: ExactMatrix
    Delta: ExactMatrix
    # (report, central values) set by ensure_verified; replace() drops it
    carried: tuple[PresentationReport, CentralValues] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def verified(self) -> bool:
        return self.carried is not None

    def __post_init__(self):
        for name in ("A", "B", "C", "Delta"):
            m = getattr(self, name)
            if not m.is_square or m.rows != self.dim:
                raise DimensionMismatch(
                    f"operator {name} must be {self.dim}x{self.dim}"
                )

    def operators(self) -> dict[str, ExactMatrix]:
        return {"A": self.A, "B": self.B, "C": self.C, "Delta": self.Delta}


@dataclass(frozen=True)
class CentralValues:
    """The four central operators; scalars extracted where applicable."""

    alpha: ExactMatrix
    beta: ExactMatrix
    gamma: ExactMatrix
    delta: ExactMatrix

    def scalars(self) -> dict[str, GaussianRational | None]:
        return {
            "alpha": self.alpha.scalar_value(),
            "beta": self.beta.scalar_value(),
            "gamma": self.gamma.scalar_value(),
            "delta": self.delta.scalar_value(),
        }


@dataclass(frozen=True)
class PresentationReport:
    checks: tuple[CheckResult, ...]
    ok: bool


def _pair_products(rep: RacahRep) -> dict[str, ExactMatrix]:
    """The twelve ordered products needed by the presentation checks."""
    ops = {"A": rep.A, "B": rep.B, "C": rep.C, "D": rep.Delta}
    out = {}
    for x, y in (
        ("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("C", "A"), ("A", "C"),
        ("A", "D"), ("D", "A"), ("B", "D"), ("D", "B"), ("C", "D"), ("D", "C"),
    ):
        out[x + y] = ops[x] * ops[y]
    return out


def _central_from_products(rep: RacahRep, prod: dict[str, ExactMatrix]) -> CentralValues:
    alpha = prod["AD"] - prod["DA"] + prod["AC"] - prod["BA"]
    beta = prod["BD"] - prod["DB"] + prod["BA"] - prod["CB"]
    gamma = prod["CD"] - prod["DC"] + prod["CB"] - prod["AC"]
    delta = rep.A + rep.B + rep.C
    return CentralValues(alpha, beta, gamma, delta)


def _relation_checks(
    rep: RacahRep, prod: dict[str, ExactMatrix], central: CentralValues
) -> list[CheckResult]:
    two_delta = rep.Delta * 2
    checks = []
    for label, residual in (
        ("[A,B] = 2*Delta", prod["AB"] - prod["BA"] - two_delta),
        ("[B,C] = 2*Delta", prod["BC"] - prod["CB"] - two_delta),
        ("[C,A] = 2*Delta", prod["CA"] - prod["AC"] - two_delta),
    ):
        checks.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    ops = rep.operators()
    for name, matrix in (
        ("alpha", central.alpha),
        ("beta", central.beta),
        ("gamma", central.gamma),
    ):
        if matrix.scalar_value() is not None:
            # c*I commutes with every matrix
            for op_name in ops:
                checks.append(CheckResult(f"{name} commutes with {op_name}", True, 0))
            continue
        for op_name, op in ops.items():
            residual = matrix * op - op * matrix
            checks.append(
                CheckResult(
                    f"{name} commutes with {op_name}",
                    residual.is_zero(),
                    residual.nonzero_count(),
                )
            )
    # delta = A + B + C: its commutators are sums of ones already computed.
    comm = {
        "A": (prod["BA"] - prod["AB"]) + (prod["CA"] - prod["AC"]),
        "B": (prod["AB"] - prod["BA"]) + (prod["CB"] - prod["BC"]),
        "C": (prod["AC"] - prod["CA"]) + (prod["BC"] - prod["CB"]),
        "Delta": (prod["AD"] - prod["DA"]) + (prod["BD"] - prod["DB"]) + (prod["CD"] - prod["DC"]),
    }
    for op_name, residual in comm.items():
        checks.append(
            CheckResult(
                f"delta commutes with {op_name}",
                residual.is_zero(),
                residual.nonzero_count(),
            )
        )
    return checks


def _verify(rep: RacahRep) -> tuple[PresentationReport, CentralValues]:
    """The presentation report and central values, from one set of pair products."""
    prod = _pair_products(rep)
    central = _central_from_products(rep, prod)
    checks = _relation_checks(rep, prod, central)
    return PresentationReport(tuple(checks), all(c.passed for c in checks)), central


def verify_presentation(rep: RacahRep) -> PresentationReport:
    """Check the defining relations; exact, no tolerances."""
    return (rep.carried or _verify(rep))[0]


def ensure_verified(rep: RacahRep) -> RacahRep:
    """Return a verified rep carrying its report, running the check if needed."""
    if rep.verified:
        return rep
    carried = report, _central = _verify(rep)
    if not report.ok:
        failed = [c.identity for c in report.checks if not c.passed]
        raise RelationFailure(f"presentation relations fail: {failed}")
    out = dataclasses.replace(rep)
    object.__setattr__(out, "carried", carried)
    return out


def central_values(rep: RacahRep) -> CentralValues:
    """The four central operators of a verified quadruple."""
    return ensure_verified(rep).carried[1]


def casimirs(rep: RacahRep) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Evaluate the three symmetric central elements verbatim.

    Each is Delta^2 plus the symmetrized triple product, the square of the
    distinguished generator, and the stated central corrections.  Raises
    RelationFailure unless each commutes with A, B, C and Delta.
    """
    rep = ensure_verified(rep)
    central = central_values(rep)
    gens = (rep.A, rep.B, rep.C)
    centrals = (central.alpha, central.beta, central.gamma)
    omegas = tuple(omega(k, gens, centrals, rep.Delta, central.delta) for k in range(3))
    for name, value in zip(("Omega_A", "Omega_B", "Omega_C"), omegas):
        for op_name, op in rep.operators().items():
            if not (value * op - op * value).is_zero():
                raise RelationFailure(f"{name} does not commute with {op_name}")
    return omegas


def verify_section6_relations(rep: RacahRep) -> PresentationReport:
    """The six auxiliary quadratic relations, as exact matrix equations.

    Each pair product and square is computed once; x^2y - 2xyx + yx^2 is
    evaluated as x[x,y] - [x,y]x, and x*delta as a scalar multiple when
    delta is scalar.
    """
    rep = ensure_verified(rep)
    central = rep.carried[1]
    ops = {"A": rep.A, "B": rep.B, "C": rep.C}
    cent = {"A": central.alpha, "B": central.beta, "C": central.gamma}
    scalar = central.delta.scalar_value()
    de = central.delta if scalar is None else scalar
    prod = {x + y: ops[x] * ops[y] for x in ops for y in ops}
    checks = []
    for label, x, y, sign in (
        ("A^2B - 2ABA + BA^2 - 2AB - 2BA = 2A^2 - 2A*delta + 2alpha", "A", "B", 1),
        ("B^2C - 2BCB + CB^2 - 2BC - 2CB = 2B^2 - 2B*delta + 2beta", "B", "C", 1),
        ("C^2A - 2CAC + AC^2 - 2CA - 2AC = 2C^2 - 2C*delta + 2gamma", "C", "A", 1),
        ("A^2C - 2ACA + CA^2 - 2AC - 2CA = 2A^2 - 2A*delta - 2alpha", "A", "C", -1),
        ("B^2A - 2BAB + AB^2 - 2BA - 2AB = 2B^2 - 2B*delta - 2beta", "B", "A", -1),
        ("C^2B - 2CBC + BC^2 - 2CB - 2BC = 2C^2 - 2C*delta - 2gamma", "C", "B", -1),
    ):
        xy, yx, op = prod[x + y], prod[y + x], ops[x]
        bracket = xy - yx
        lhs = op * bracket - bracket * op - (xy + yx) * 2
        rhs = (prod[x + x] - op * de) * 2 + cent[x] * (2 * sign)
        residual = lhs - rhs
        checks.append(CheckResult(label, residual.is_zero(), residual.nonzero_count()))
    return PresentationReport(tuple(checks), all(ch.passed for ch in checks))


def sigma_twist(rep: RacahRep) -> RacahRep:
    """Twist by the order-2 dihedral symmetry: (A,B,C,Delta) -> (C,B,A,-Delta)."""
    return RacahRep(rep.dim, rep.C, rep.B, rep.A, -rep.Delta)


def tau_twist(rep: RacahRep) -> RacahRep:
    """Twist by the order-3 dihedral symmetry: (A,B,C,Delta) -> (B,C,A,Delta)."""
    return RacahRep(rep.dim, rep.B, rep.C, rep.A, rep.Delta)


# -- file exchange format ----------------------------------------------------

_BLOCK_ORDER = ("A", "B", "C", "Delta")


def rep_to_text(rep: RacahRep) -> str:
    parts = []
    for name in _BLOCK_ORDER:
        parts.append(name)
        parts.append(getattr(rep, name).to_text().rstrip("\n"))
    return "\n".join(parts) + "\n"


def rep_blocks(tokens: Sequence[str]) -> Iterator[tuple[str, int, int, int]]:
    """Walk the labeled blocks of a rep file's tokens, each a label, `rows
    cols`, then rows*cols entries, without parsing an entry.

    Yields (label, rows, cols, pos), pos being the position of the header.
    """
    seen = set()
    pos = 0
    while pos < len(tokens):
        label = tokens[pos]
        if label not in _BLOCK_ORDER:
            raise ValueError(f"unexpected block label {label!r}")
        if label in seen:
            raise ValueError(f"repeated block label {label!r}")
        seen.add(label)
        rows, cols = ExactMatrix.header_from_tokens(tokens, pos + 1)
        yield label, rows, cols, pos + 1
        pos += 3 + rows * cols


def rep_from_text(text: str) -> RacahRep:
    """Parse the labeled blocks that ``rep_blocks`` walks.

    Tokens are separated by any whitespace; line breaks carry no meaning.
    """
    tokens = text.split()
    blocks = {label: ExactMatrix.from_tokens(tokens, pos)[0] for label, _, _, pos in rep_blocks(tokens)}
    missing = [name for name in _BLOCK_ORDER if name not in blocks]
    if missing:
        raise ValueError(f"missing blocks: {missing}")
    dim = blocks["A"].rows
    return RacahRep(dim, blocks["A"], blocks["B"], blocks["C"], blocks["Delta"])


def load_rep(path) -> RacahRep:
    return rep_from_text(Path(path).read_text())

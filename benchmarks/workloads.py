"""The three benchmark workloads: seeded inputs, timed items, output checks.

Every item is timed from outside by calling racahlab's public functions.
Outputs are checked against closed forms computed here with plain
``Fraction`` arithmetic, or against properties the method must have; never
against a stored copy of an earlier run.

A workload provides:

* ``round_items``: runs (traced or not) do whole rounds of this many items;
  ``run_s`` and the per-layer metrics cover the first round.
* ``make_input(lab, seed, k)``: item ``k``'s input, a function of the seed
  and ``k`` only.
* ``warm_input(lab)``: a small fixed input run once during set-up.
* ``run_item(lab, inp, clock, workdir)``: the program calls, inside
  ``clock.timed()`` segments; returns the raw outputs.
* ``check(lab, inp, out)``: a list of problems, empty when the output is
  correct.  It runs outside the timed segments.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from functools import cache
from math import comb, hypot, lcm

# -- exact complex rationals, independent of racahlab --------------------------


class Q:
    """A Gaussian rational as a pair of Fractions, for the closed forms."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = other if isinstance(other, Q) else Q(other)
        return Q(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = other if isinstance(other, Q) else Q(other)
        return Q(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Q(-self.re, -self.im)

    def __mul__(self, other):
        other = other if isinstance(other, Q) else Q(other)
        return Q(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other):
        return (self.re, self.im) == (Fraction(other.re), Fraction(other.im))

    def __hash__(self):
        return hash((self.re, self.im))

    def token(self) -> str:
        """The CLI's exchange format: ``p/q`` or ``p/q+r/s*i``."""
        out = f"{self.re.numerator}/{self.re.denominator}"
        if self.im:
            sign = "+" if self.im > 0 else "-"
            im = abs(self.im)
            out += f"{sign}{im.numerator}/{im.denominator}*i"
        return out


_TOKEN = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:([+-])(\d+)(?:/(\d+))?\*i)?$")


def parse_token(token: str) -> Q:
    m = _TOKEN.match(token)
    if m is None:
        raise ValueError(f"bad matrix entry {token!r}")
    re_part = Fraction(int(m.group(1)), int(m.group(2) or 1))
    im_part = Fraction(0)
    if m.group(3):
        im_part = Fraction(int(m.group(4)), int(m.group(5) or 1))
        if m.group(3) == "-":
            im_part = -im_part
    return Q(re_part, im_part)


def parse_rep_file(text: str) -> dict[str, list[Q]]:
    """Labelled matrix blocks of an operator-quadruple file, read by tokens."""
    tokens = text.split()
    blocks: dict[str, list[Q]] = {}
    pos = 0
    while pos < len(tokens):
        label, rows, cols = tokens[pos], int(tokens[pos + 1]), int(tokens[pos + 2])
        body = tokens[pos + 3 : pos + 3 + rows * cols]
        blocks[label] = [parse_token(t) for t in body]
        pos += 3 + rows * cols
    return blocks


# -- the sampling box and the paper's windows -----------------------------------


# The suite's sampling box (the one cli.sample_params draws from): real
# numerator -3..3, imaginary numerator -1..1, common denominator 1..3.
BOX = tuple(
    Q(Fraction(num_re, den), Fraction(num_im, den))
    for num_re in range(-3, 4)
    for num_im in (-1, 0, 1)
    for den in (1, 2, 3)
)
BLOCK = len(BOX) // 3


def root_search_size(x: Q, d: int) -> float:
    """The trial-division bound of a hint-free root search on R_d(x, ., .).

    Sum of the square roots of the norms of the extreme nonzero coefficients
    of prod_i (t - theta_i(x)), denominators cleared: the divisor search in
    matrix.rational_roots runs up to these.  A rank predictor of the cost of
    a draw, not a measurement.
    """
    coeffs = [Q(1)]
    for theta in (b * (b + 1) for b in (x + Fraction(d, 2) - i for i in range(d + 1))):
        shifted = [Q(0)] + coeffs
        coeffs = [s - c * theta for s, c in zip(shifted, coeffs + [Q(0)])]
    den = lcm(*(part.denominator for c in coeffs for part in (c.re, c.im)))
    nonzero = [c for c in coeffs if c.re or c.im]
    return sum(hypot(c.re * den, c.im * den) for c in (nonzero[0], nonzero[-1]))


@cache
def _box_sizes(d: int) -> tuple[float, ...]:
    return tuple(root_search_size(x, d) for x in BOX)


def deal(name: str, seed: int, k: int, d: int) -> tuple[Q, Q, Q]:
    """The (a, b, c) of item k's draw at d.

    Items come in blocks of BLOCK = 21, and every block uses each of the 63
    box values exactly once per d.  The values are ranked by
    root_search_size (ties in seeded order), and the draw at block position
    j takes ranks j, 41 - j and 42 + j, in a seeded order of a, b, c.
    Positions run upwards for odd d and downwards for even d, so an item
    that is dear at one d is cheap at the next; a seeded permutation maps
    items to positions.  Each block thus holds the whole box and the items
    come out of nearly equal size, whatever the seed.
    """
    block, k = divmod(k, BLOCK)
    pos = random.Random(f"{name}/{seed}/{block}").sample(range(BLOCK), BLOCK)[k]
    if d % 2 == 0:
        pos = BLOCK - 1 - pos
    rng = random.Random(f"{name}/{seed}/{d}/{block}")
    sizes = _box_sizes(d)
    order = [BOX[i] for i in sorted(range(len(BOX)), key=lambda i: (sizes[i], rng.random()))]
    abc = [order[pos], order[2 * BLOCK - 1 - pos], order[2 * BLOCK + pos]]
    random.Random(f"{name}/{seed}/{d}/{block}/{pos}").shuffle(abc)
    return tuple(abc)


def irreducible(d: int, a: Q, b: Q, c: Q) -> bool:
    """No linear form a+b+c+1, -a+b+c, a-b+c, a+b-c lies in {d/2 - i : 1 <= i <= d}."""
    forbidden = {Q(Fraction(d, 2) - i) for i in range(1, d + 1)}
    forms = (a + b + c + 1, -a + b + c, a - b + c, a + b - c)
    return not any(f in forbidden for f in forms)


def diagonalizable(d: int, x: Q) -> bool:
    """The parameter avoids {(i - d - 1)/2 : 1 <= i <= 2d - 1}."""
    return x not in {Q(Fraction(i - d - 1, 2)) for i in range(1, 2 * d)}


def leonard_window(d: int, a: Q, b: Q, c: Q) -> bool:
    return irreducible(d, a, b, c) and all(diagonalizable(d, x) for x in (a, b, c))


def trace_closed_form(d: int, x: Q) -> Q:
    return (x * (x + 1) + Fraction(d * (d + 2), 12)) * (d + 1)


def central_closed_forms(d: int, a: Q, b: Q, c: Q) -> dict[str, Q]:
    h = Q(Fraction(d, 2))
    return {
        "alpha": (c - b) * (c + b + 1) * (a - h) * (a + h + 1),
        "beta": (a - c) * (a + c + 1) * (b - h) * (b + h + 1),
        "gamma": (b - a) * (b + a + 1) * (c - h) * (c + h + 1),
        "delta": h * (h + 1) + a * (a + 1) + b * (b + 1) + c * (c + 1),
    }


def theta_hints(d: int, x: Q) -> list[Q]:
    """Distinct eigenvalues (x + d/2 - i)(x + d/2 - i + 1), i = 0..d, in order."""
    out: list[Q] = []
    for i in range(d + 1):
        base = x + Fraction(d, 2) - i
        value = base * (base + 1)
        if value not in out:
            out.append(value)
    return out


def cube_closure_dim(D: int) -> int:
    """Theorem 8.4: C(floor(D/2)+3, 3) + C(ceil(D/2)+1, 3)."""
    return comb(D // 2 + 3, 3) + comb((D + 1) // 2 + 1, 3)


def _gr(lab, x: Q):
    return lab.gaussian.GaussianRational(x.re, x.im)


def _params(lab, d: int, abc):
    a, b, c = (_gr(lab, x) for x in abc)
    return lab.rd.RdParams(a, b, c, d)


# -- cube ------------------------------------------------------------------------


class Cube:
    """The criteria 7-10 pipeline on H(D, 2) for one fixed D."""

    name = "cube"
    D = 5
    round_items = 8

    def make_input(self, lab, seed: int, k: int) -> int:
        # The pipeline's only input is D; every item is the same size.
        return self.D

    def warm_input(self, lab) -> int:
        return 3

    def run_item(self, lab, D, clock, workdir):
        sl2, dec = lab.sl2, lab.decompose
        with clock.timed():
            rep, ops = sl2.build_hypercube(D)
            checks = sl2.hypercube_checks(rep, ops, sl2.hypercube_space(D))
            pull = sl2.sharp_pullback(rep)
            graph = dec.cube_operator_closure(D)
            pulled = dec.cube_pullback_closure(D)
            graph_has_pull = [graph.contains(m) for m in (pull.A, pull.B, pull.C)]
            pull_has_graph = [pulled.contains(m) for m in (ops.A2J, ops.A2Jbar, ops.A2star)]
            report = dec.cube_decompose(D)
            profile = dec.cube_semisimple_profile(D)
            te_re = dec.compare_te_re(D)
        return {
            "checks": checks,
            "dims": (graph.dim, pulled.dim),
            "mutual": graph_has_pull + pull_has_graph,
            "summands": [(g.dim, g.multiplicity, g.leonard_passed) for g in report.summands],
            "profile": profile,
            "te_re": te_re,
        }

    def check(self, lab, D, out) -> list[str]:
        problems = []
        bad = [c.identity for c in out["checks"] if not c.passed or c.residual_term_count]
        if bad:
            problems.append(f"nonzero hypercube residuals: {bad}")
        dim = cube_closure_dim(D)
        if out["dims"] != (dim, dim):
            problems.append(f"closure dimensions {out['dims']}, expected {dim} for both")
        if not all(out["mutual"]):
            problems.append("closures do not contain each other's generators")
        profile = out["profile"]
        if sum(count * k * k for k, count in profile.blocks) != dim or profile.dim != dim:
            problems.append(f"block profile {profile.blocks} does not add up to {dim}")
        if sum(dim_ * mult for dim_, mult, _ in out["summands"]) != 2**D:
            problems.append("summand dimensions do not total 2^D")
        if not all(passed is True for _, _, passed in out["summands"]):
            problems.append("a summand fails the Leonard check")
        te_re = out["te_re"]
        if (te_re.dim_te == te_re.dim_re) != (D % 2 == 1) or not te_re.contained:
            problems.append(f"even restrictions {te_re.dim_te}, {te_re.dim_re} break Theorem 8.7")
        return problems


# -- rd-family -------------------------------------------------------------------


class RdFamily:
    """One seeded draw at each d = 0..6 through the criterion-5 checks."""

    name = "rd-family"
    d_values = range(7)
    round_items = 7

    def _draws(self, lab, name, seed, k):
        out = []
        for d in self.d_values:
            abc = deal(name, seed, k, d)
            hints = tuple([_gr(lab, v) for v in theta_hints(d, x)] for x in abc)
            out.append((d, abc, _params(lab, d, abc), hints))
        return out

    def make_input(self, lab, seed, k):
        return self._draws(lab, self.name, seed, k)

    def warm_input(self, lab):
        return self._draws(lab, "warm-up", 0, 0)[:3]

    def run_item(self, lab, draws, clock, workdir):
        rd, racah = lab.rd, lab.racah
        outs = []
        with clock.timed():
            for d, _abc, params, hints in draws:
                rep = rd.construct(params)
                out = {
                    "presentation": racah.verify_presentation(rep),
                    "central": racah.central_values(rep).scalars(),
                    "traces": (rep.A.trace(), rep.B.trace(), rep.C.trace()),
                    "witness": bool(rd.is_irreducible(params)),
                    "burnside": rd.burnside_irreducible(rep),
                    "section6": racah.verify_section6_relations(rep),
                }
                if out["witness"]:
                    out["squarefree"] = [p.is_squarefree for p in rd.min_polys(params)]
                    out["leonard"] = lab.leonard.check(rep.A, rep.B, rep.C, hints=hints).passed
                outs.append(out)
        return outs

    def check(self, lab, draws, outs) -> list[str]:
        problems = []
        for (d, abc, params, _hints), out in zip(draws, outs):
            label = params.label()
            for name in ("presentation", "section6"):
                report = out[name]
                if not report.ok or any(c.residual_term_count for c in report.checks):
                    problems.append(f"{label}: {name} identities fail")
            expected = central_closed_forms(d, *abc)
            if any(out["central"][k] is None or expected[k] != out["central"][k] for k in expected):
                problems.append(f"{label}: central values differ from the closed forms")
            if any(trace_closed_form(d, x) != t for t, x in zip(out["traces"], abc)):
                problems.append(f"{label}: traces differ from (p(p+1) + d(d+2)/12)(d+1)")
            irr = irreducible(d, *abc)
            if not (out["witness"] == out["burnside"] == irr):
                problems.append(f"{label}: irreducibility witness, closure and criterion disagree")
            if irr and out["witness"]:
                if out["squarefree"] != [diagonalizable(d, x) for x in abc]:
                    problems.append(f"{label}: squarefree tests differ from the window")
                if out["leonard"] != leonard_window(d, *abc):
                    problems.append(f"{label}: Leonard verdict differs from the window")
        return problems


# -- cli-io ----------------------------------------------------------------------

SUITES = ("sharp", "kernel", "d3", "even-identities")


class CliIo:
    """The JSON front end in process: text files written and read back,
    hint-free Leonard checks and the symbolic verify suites."""

    name = "cli-io"
    # d >= 3 is left out: hint-free root search can run for minutes there.
    d_values = range(3)
    round_items = BLOCK

    def make_input(self, lab, seed, k):
        return [(d, deal(self.name, seed, k, d)) for d in self.d_values], SUITES

    def warm_input(self, lab):
        zero = Q(0)
        return [(0, (zero, zero, zero))], ("sharp",)

    @staticmethod
    def _call(lab, clock, argv):
        """One CLI invocation as a fresh process would see it: cold caches."""
        lab.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        with clock.timed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lab.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def run_item(self, lab, inp, clock, workdir):
        draws, suites = inp
        path = str(workdir / "cli-io-rep.txt")
        outs = []
        for d, abc in draws:
            flags = [f"--a={abc[0].token()}", f"--b={abc[1].token()}", f"--c={abc[2].token()}", "--d", str(d)]
            out = {"build": self._call(lab, clock, ["rd", "build", *flags, "--out", path])}
            with open(path, encoding="utf-8") as fh:
                out["file"] = fh.read()
            out["verify"] = self._call(lab, clock, ["racah", "verify", "--rep", path])
            out["analyze"] = self._call(lab, clock, ["rd", "analyze", *flags])
            out["leonard"] = self._call(lab, clock, ["leonard", "check", "--rep", path])
            outs.append(out)
        suite_outs = [self._call(lab, clock, ["verify", suite]) for suite in suites]
        return outs, suite_outs

    def check(self, lab, inp, result) -> list[str]:
        draws, suites = inp
        outs, suite_outs = result
        problems = []
        for (d, abc), out in zip(draws, outs):
            label = f"R_{d}({','.join(x.token() for x in abc)})"
            if out["build"][0] != 0:
                problems.append(f"{label}: rd build exited {out['build'][0]}")
            expected = lab.rd.construct(_params(lab, d, abc))
            blocks = parse_rep_file(out["file"])
            for name in ("A", "B", "C", "Delta"):
                entries = getattr(expected, name).entries
                got = blocks.get(name, [])
                if len(got) != len(entries) or any(q != e for q, e in zip(got, entries)):
                    problems.append(f"{label}: file block {name} differs from rd.construct")
            code, text, _ = out["verify"]
            if code != 0 or not _all_pass(text):
                problems.append(f"{label}: racah verify exited {code} or left a residual")
            irr = irreducible(d, *abc)
            window = leonard_window(d, *abc)
            code, text, _ = out["analyze"]
            analysis = json.loads(text) if code == 0 else {}
            if (
                analysis.get("irreducible") != irr
                or analysis.get("leonard") != (window if irr else None)
                or analysis.get("min_poly_degrees") != ([d + 1] * 3 if irr else None)
            ):
                problems.append(f"{label}: rd analyze exited {code} or disagrees with the windows")
            code, text, err = out["leonard"]
            verdict = json.loads(text).get("pass") if text else None
            if verdict is not window or code != (0 if window else 1):
                problems.append(f"{label}: leonard check gave {verdict}/{code} {err.strip()}")
        for suite, (code, text, _err) in zip(suites, suite_outs):
            if code != 0 or not _all_pass(text):
                problems.append(f"verify {suite} exited {code} or left a residual")
        return problems


def _all_pass(text: str) -> bool:
    rows = json.loads(text)
    return bool(rows) and all(r["pass"] and r["residual_term_count"] == 0 for r in rows)


WORKLOADS = {w.name: w for w in (Cube(), RdFamily(), CliIo())}

"""Decomposition engine: isotypic splitting, parity-half splitting into the
bidiagonal module classes, the cube catalogs, semisimple block profiles, and
the even-restriction algebra comparison.

The strategy is structural: find highest-weight vectors, build normalized
chains, split each parity half along the explicit mirror combinations, and
certify every step exactly (invariance, traces, a closure-based
irreducibility oracle, and the Leonard-triple checker on one witness per
class).  Multiplicities are computed by highest-weight counting, never
assumed.

The cube module is decomposed through its copies of L_n (``_cube_copies``),
never densely: each class is certified in the (n+1)-dimensional L_n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from . import orbit
from .errors import ClassMismatch, DimMismatch, NonDiagonalizableH, NotIrreducible
from .gaussian import GaussianRational, ZERO, gr, rational_sqrt
from .leonard import check as leonard_check
from .matrix import (
    ExactMatrix,
    Subspace,
    eigen_split,
    kernel_basis,
    solve_columns,
)
from .rd import (
    IsoClass,
    RdParams,
    iso_class_from_traces,
    iso_class_of,
    leonard_hints,
)
from .sl2 import (
    EvenHalfModule,
    Sl2Rep,
    build_Ln,
    even_halves,
    half_coeffs,
    half_pullback,
    sharp_pullback,
)
from .span import VectorSpan, is_full_matrix_algebra

Vector = tuple[GaussianRational, ...]


@dataclass(frozen=True)
class SummandGroup:
    """All copies of one isomorphism class inside a decomposition.  The cube
    reports carry witnesses=(): their classes are certified in each L_n."""

    label: str
    kind: str  # "sl2", "even" or "racah"
    n: int | None
    parity: int | None
    iso: IsoClass | None
    dim: int
    multiplicity: int
    witnesses: tuple[Subspace, ...]
    leonard_passed: bool | None = None


@dataclass(frozen=True)
class DecompositionReport:
    ambient_dim: int
    summands: tuple[SummandGroup, ...]

    def total_dim(self) -> int:
        return sum(g.dim * g.multiplicity for g in self.summands)

    @property
    def complete(self) -> bool:
        return self.total_dim() == self.ambient_dim

    def classes(self) -> set:
        return {g.iso for g in self.summands if g.iso is not None}


# -- vector helpers -----------------------------------------------------------


def _vec_scale(vec: Vector, c: GaussianRational) -> Vector:
    return tuple(x * c for x in vec)


def _vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def _vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _is_zero(vec: Vector) -> bool:
    return not any(vec)


def _combine(coeffs: Sequence[GaussianRational], vectors: list[Vector]) -> Vector:
    """The linear combination sum_k coeffs[k] * vectors[k]."""
    acc = [ZERO] * len(vectors[0])
    for coeff, vec in zip(coeffs, vectors):
        if coeff:
            for k, x in enumerate(vec):
                if x:
                    acc[k] = acc[k] + coeff * x
    return tuple(acc)


# -- weight spaces ------------------------------------------------------------


def _integer_weight(value: GaussianRational) -> int:
    if value.im != 0 or value.re.denominator != 1:
        raise NonDiagonalizableH(f"weight {value.token()} is not a rational integer")
    return int(value.re)


def _weight_spaces(h: ExactMatrix) -> dict[int, list[Vector]]:
    """Group an exactly diagonal weight operator into coordinate eigenspaces."""
    n = h.rows
    if h != ExactMatrix.diagonal([h.entry(i, i) for i in range(n)]):
        raise NonDiagonalizableH("the weight operator must be diagonal in the given basis")
    spaces: dict[int, list[Vector]] = {}
    for i in range(n):
        vec = [ZERO] * n
        vec[i] = gr(1)
        spaces.setdefault(_integer_weight(h.entry(i, i)), []).append(tuple(vec))
    return spaces


def _kernel_inside(op: ExactMatrix, vectors: list[Vector]) -> list[Vector]:
    """Basis of {v in span(vectors) : op(v) = 0}."""
    images = [op.apply(v) for v in vectors]
    image_matrix = ExactMatrix.from_rows([list(img) for img in images]).transpose()
    return [_combine(combo, vectors) for combo in kernel_basis(image_matrix)]


# -- sl2 isotypic decomposition --------------------------------------------


@dataclass(frozen=True)
class Sl2Copy:
    n: int
    chain: tuple[Vector, ...]  # x_k = F^k v / k!


def sl2_copies(rep: Sl2Rep) -> list[Sl2Copy]:
    """Highest-weight chains, one per irreducible copy, fully verified."""
    spaces = _weight_spaces(rep.H)
    copies: list[Sl2Copy] = []
    for w in sorted(spaces, reverse=True):
        tops = _kernel_inside(rep.E, spaces[w])
        if not tops:
            continue
        if w < 0:
            raise ArithmeticError(
                "highest-weight vector of negative weight: not a valid module"
            )
        for top in tops:
            chain = [top]
            for k in range(w):
                nxt = _vec_scale(rep.F.apply(chain[-1]), gr(Fraction(1, k + 1)))
                chain.append(nxt)
            if not _is_zero(rep.F.apply(chain[-1])):
                raise ArithmeticError("chain does not terminate: not a valid module")
            for k in range(1, w + 1):
                expected = _vec_scale(chain[k - 1], gr(w - k + 1))
                if rep.E.apply(chain[k]) != expected:
                    raise ArithmeticError("raising action deviates on the chain")
            copies.append(Sl2Copy(w, tuple(chain)))
    _check_weight_completeness(rep.dim, spaces, copies)
    return copies


def _check_weight_completeness(dim, spaces, copies) -> None:
    """Chains must exactly fill every weight space."""
    by_weight: dict[int, list[Vector]] = {}
    for copy in copies:
        for k, vec in enumerate(copy.chain):
            by_weight.setdefault(copy.n - 2 * k, []).append(vec)
    total = sum(len(c.chain) for c in copies)
    if total != dim:
        raise ArithmeticError("chain dimensions do not sum to the ambient dimension")
    for w, vecs in by_weight.items():
        if len(vecs) != len(spaces.get(w, [])):
            raise ArithmeticError(f"weight {w} multiplicity mismatch")
        span = VectorSpan(dim)
        for v in vecs:
            if not span.add(v):
                raise ArithmeticError(f"chain vectors at weight {w} are dependent")


def sl2_isotypic(rep: Sl2Rep) -> DecompositionReport:
    """Isotypic decomposition by highest-weight counting."""
    copies = sl2_copies(rep)
    grouped: dict[int, list[Subspace]] = {}
    for copy in copies:
        grouped.setdefault(copy.n, []).append(
            Subspace.from_vectors(rep.dim, list(copy.chain))
        )
    summands = tuple(
        SummandGroup(
            f"L_{n}", "sl2", n, None, None, n + 1, len(wits), tuple(wits)
        )
        for n, wits in sorted(grouped.items(), reverse=True)
    )
    report = DecompositionReport(rep.dim, summands)
    if not report.complete:
        raise ArithmeticError("isotypic decomposition is incomplete")
    return report


# -- even-module isotypic decomposition --------------------------------------


@dataclass(frozen=True)
class EvenCopy:
    n: int
    parity: int
    chain: tuple[Vector, ...]  # normalized so the closed-form coefficients hold


def even_copies(
    e2_op: ExactMatrix, f2_op: ExactMatrix, h_op: ExactMatrix, lam_op: ExactMatrix
) -> list[EvenCopy]:
    """Irreducible even-subalgebra chains inside a module, fully verified.

    Tops are kernel vectors of the squared raiser within a weight space,
    split further by the central element's eigenvalue, which also names the
    class: the scalar m(m+2)/2 determines m, and the top weight determines
    the parity.
    """
    dim = h_op.rows
    spaces = _weight_spaces(h_op)
    copies: list[EvenCopy] = []
    for w in sorted(spaces, reverse=True):
        tops = _kernel_inside(e2_op, spaces[w])
        if not tops:
            continue
        for top in _split_by_central(lam_op, tops):
            lam_image = lam_op.apply(top)
            scalar = _central_scalar_on(top, lam_image)
            n = _module_index_from_central(scalar)
            if w == n:
                parity = 0
            elif w == n - 2:
                parity = 1
            else:
                raise ArithmeticError(
                    f"top weight {w} inconsistent with central value for n={n}"
                )
            size, e2c, f2c, _tw = half_coeffs(n, parity)
            chain = [top]
            for i in range(size - 1):
                nxt = _vec_scale(f2_op.apply(chain[-1]), gr(1) / gr(f2c(i)))
                chain.append(nxt)
            if not _is_zero(f2_op.apply(chain[-1])):
                raise ArithmeticError("even chain does not terminate at the stated size")
            for i in range(1, size):
                if e2_op.apply(chain[i]) != _vec_scale(chain[i - 1], gr(e2c(i))):
                    raise ArithmeticError("squared-raiser action deviates on the chain")
            for i, vec in enumerate(chain):
                if lam_op.apply(vec) != _vec_scale(vec, scalar):
                    raise ArithmeticError("central element is not scalar on the chain")
            copies.append(EvenCopy(n, parity, tuple(chain)))
    total = sum(len(c.chain) for c in copies)
    if total != dim:
        raise ArithmeticError("even chains do not fill the module")
    return copies


def _central_scalar_on(vec: Vector, image: Vector) -> GaussianRational:
    for x, y in zip(vec, image):
        if x:
            return y / x
    raise ArithmeticError("zero vector has no central scalar")


def _module_index_from_central(scalar: GaussianRational) -> int:
    """Solve m(m+2)/2 = scalar for a nonnegative integer m."""
    if scalar.im != 0:
        raise ArithmeticError("central value must be rational")
    disc = rational_sqrt(1 + 2 * scalar.re)
    if disc is None:
        raise ArithmeticError("central value is not of the expected form")
    m = disc - 1
    if m.denominator != 1 or m < 0:
        raise ArithmeticError("central value is not of the expected form")
    return int(m)


def _split_by_central(lam_op: ExactMatrix, tops: list[Vector]) -> list[Vector]:
    """Refine kernel vectors into eigenvectors of the central element."""
    if len(tops) == 1:
        vec = tops[0]
        image = lam_op.apply(vec)
        scalar = _central_scalar_on(vec, image)
        if image != _vec_scale(vec, scalar):
            raise ArithmeticError("central element does not act diagonally on a top line")
        return tops
    basis = ExactMatrix.from_rows([list(v) for v in tops]).transpose()
    images = ExactMatrix.from_rows(
        [list(lam_op.apply(v)) for v in tops]
    ).transpose()
    restricted = solve_columns(basis, images)
    if restricted is None:
        raise ArithmeticError("central element does not preserve the top space")
    split = eigen_split(restricted)
    if not split.diagonalizable:
        raise ArithmeticError("central element not diagonalizable on the top space")
    return [_combine(combo, tops) for _value, space in split.pairs for combo in space.basis]


def even_isotypic(
    e2_op: ExactMatrix,
    f2_op: ExactMatrix,
    h_op: ExactMatrix,
    lam_op: ExactMatrix,
) -> DecompositionReport:
    copies = even_copies(e2_op, f2_op, h_op, lam_op)
    dim = h_op.rows
    grouped: dict[tuple[int, int], list[Subspace]] = {}
    for copy in copies:
        grouped.setdefault((copy.n, copy.parity), []).append(
            Subspace.from_vectors(dim, list(copy.chain))
        )
    summands = tuple(
        SummandGroup(
            f"L_{n}^({parity})",
            "even",
            n,
            parity,
            None,
            len(wits[0].basis),
            len(wits),
            tuple(wits),
        )
        for (n, parity), wits in sorted(grouped.items(), reverse=True)
    )
    report = DecompositionReport(dim, summands)
    if not report.complete:
        raise ArithmeticError("even isotypic decomposition is incomplete")
    return report


# -- parity-half splitting into bidiagonal classes ----------------------------


def expected_half_split(n: int, parity: int) -> tuple[RdParams, ...]:
    """The stated class list for one parity half, in (minus, plus) order."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    if parity == 0:
        if n % 2 == 1:
            return (RdParams(-quarter, -quarter, -quarter, (n - 1) // 2),)
        if n == 0:
            return (RdParams(-half, -half, -half, 0),)
        if n % 4 == 0:
            dd = n // 4
            lo = Fraction(dd - 1, 2)
            hi = Fraction(dd, 2)
            return (
                RdParams(lo, hi, lo, dd - 1),
                RdParams(lo, lo, lo, dd),
            )
        dd = (n - 2) // 4
        lo = Fraction(dd - 1, 2)
        hi = Fraction(dd, 2)
        return (
            RdParams(lo, hi, hi, dd),
            RdParams(hi, hi, lo, dd),
        )
    if n < 1:
        raise ValueError("the odd parity half requires n >= 1")
    if n % 2 == 1:
        return (RdParams(-quarter, -quarter, -quarter, (n - 1) // 2),)
    if n == 2:
        return (RdParams(0, -half, 0, 0),)
    if n % 4 == 2:
        dd = (n - 2) // 4
        lo = Fraction(dd - 1, 2)
        hi = Fraction(dd, 2)
        return (
            RdParams(hi, hi, hi, dd - 1),
            RdParams(hi, lo, hi, dd),
        )
    dd = n // 4 - 1
    lo = Fraction(dd, 2)
    hi = Fraction(dd + 1, 2)
    return (
        RdParams(lo, lo, hi, dd),
        RdParams(hi, lo, lo, dd),
    )


def _mirror_parts(chain: tuple[Vector, ...]) -> tuple[list[Vector], list[Vector]]:
    """The explicit minus/plus mirror combinations of a standard half chain."""
    m = len(chain)
    top = m - 1
    minus = []
    for i in range((top + 1) // 2):
        minus.append(_vec_sub(chain[i], chain[top - i]))
    plus = []
    for i in range(top // 2 + 1):
        plus.append(_vec_add(chain[i], chain[top - i]))
    return minus, plus


@dataclass(frozen=True)
class CertifiedPart:
    iso: IsoClass
    expected: RdParams
    witness: Subspace
    restricted: tuple[ExactMatrix, ExactMatrix, ExactMatrix]


def restrict_operator(op: ExactMatrix, vectors: list[Vector]) -> ExactMatrix:
    """Matrix of op on the span of the vectors; raises if not invariant."""
    basis = ExactMatrix.from_rows(vectors).transpose()
    images = op * basis
    sol = solve_columns(basis, images)
    if sol is None:
        raise ArithmeticError("operator does not preserve the subspace")
    if basis * sol != images:
        raise ArithmeticError("restriction verification failed")
    return sol


def _certify_part(
    ops: tuple[ExactMatrix, ExactMatrix, ExactMatrix],
    vectors: list[Vector],
    expected: RdParams,
) -> CertifiedPart:
    """Restrict, match the class by traces, certify irreducibility."""
    restricted = tuple(restrict_operator(op, vectors) for op in ops)
    d = len(vectors) - 1
    if expected.d != d:
        raise ClassMismatch(
            f"part has dimension {d + 1}, expected {expected.d + 1}"
        )
    iso = iso_class_from_traces(
        d, restricted[0].trace(), restricted[1].trace(), restricted[2].trace()
    )
    if iso != iso_class_of(expected):
        raise ClassMismatch(
            f"traces certify {iso.label()}, expected {expected.label()}"
        )
    if not is_full_matrix_algebra(restricted):
        raise NotIrreducible("closure oracle refutes irreducibility of a part")
    dim = len(vectors[0])
    return CertifiedPart(iso, expected, Subspace.from_vectors(dim, vectors), restricted)


def split_half_chain(
    ops: tuple[ExactMatrix, ExactMatrix, ExactMatrix],
    chain: tuple[Vector, ...],
    n: int,
    parity: int,
) -> list[CertifiedPart]:
    """Split one standard parity-half chain into certified class parts."""
    expected = expected_half_split(n, parity)
    if len(expected) == 1:
        parts = [list(chain)]
    else:
        minus, plus = _mirror_parts(chain)
        parts = [minus, plus]
    if sum(len(p) for p in parts) != len(chain):
        raise ArithmeticError("mirror combination sizes do not add up")
    span = VectorSpan(len(chain[0]))
    for part in parts:
        for vec in part:
            if not span.add(vec):
                raise ArithmeticError("split vectors are not independent")
    return [_certify_part(ops, part, exp) for part, exp in zip(parts, expected)]


def split_even_half(half: EvenHalfModule) -> DecompositionReport:
    """Decompose one standard parity half under the pulled-back action."""
    pull = half_pullback(half)
    ops = (pull.A, pull.B, pull.C)
    chain = tuple(
        tuple(gr(1) if i == k else ZERO for i in range(half.dim))
        for k in range(half.dim)
    )
    parts = split_half_chain(ops, chain, half.n, half.parity)
    return _parts_to_report(half.dim, parts)


def _parts_to_report(ambient_dim: int, parts: list[CertifiedPart]) -> DecompositionReport:
    grouped: dict = {}
    for part in parts:
        grouped.setdefault(part.iso, []).append(part)
    summands = []
    for iso in sorted(grouped, key=lambda c: c.sort_key()):
        group = grouped[iso]
        leonard = leonard_check(*group[0].restricted, hints=leonard_hints(group[0].expected))
        summands.append(
            SummandGroup(
                iso.label(),
                "racah",
                None,
                None,
                iso,
                iso.dim,
                len(group),
                tuple(p.witness for p in group),
                leonard.passed,
            )
        )
    return DecompositionReport(ambient_dim, tuple(summands))


# -- the full chain: module -> classes ---------------------------------------


def re_decompose(rep: Sl2Rep) -> DecompositionReport:
    """Decompose the pullback of a module along the homomorphism.

    Chains highest-weight splitting, parity halving and mirror splitting,
    certifying each summand.
    """
    pull = sharp_pullback(rep)
    ops = (pull.A, pull.B, pull.C)
    parts: list[CertifiedPart] = []
    for copy in sl2_copies(rep):
        for parity in (0, 1):
            chain = copy.chain[parity::2]
            if not chain:
                continue
            parts.extend(split_half_chain(ops, chain, copy.n, parity))
    report = _parts_to_report(rep.dim, parts)
    if not report.complete:
        raise ArithmeticError("class dimensions do not sum to the ambient dimension")
    return report


# -- catalogs -----------------------------------------------------------------


def expected_cube_classes(D: int) -> set[IsoClass]:
    """The catalog of classes appearing in the cube module, by parity of D.

    Eight parameter families for even D: the shifted-up ones (symmetric and
    the three asymmetric) and the shifted-down ones, each with its own index
    range depending on D mod 4.
    """
    out: set[IsoClass] = set()

    def add(k: int, a, b, c):
        out.add(iso_class_of(RdParams(a, b, c, k)))

    if D % 2 == 1:
        q = Fraction(-1, 4)
        for k in range((D - 1) // 2 + 1):
            add(k, q, q, q)
        return out
    if D % 4 == 2:
        up_sym_top = up_asym_top = (D - 6) // 4
        down_sym_top = down_asym_top = (D - 2) // 4
    else:
        up_sym_top = D // 4 - 2
        up_asym_top = D // 4 - 1
        down_sym_top = D // 4
        down_asym_top = D // 4 - 1
    for k in range(up_sym_top + 1):
        hp = Fraction(k + 1, 2)
        add(k, hp, hp, hp)
    for k in range(up_asym_top + 1):
        h = Fraction(k, 2)
        hp = Fraction(k + 1, 2)
        add(k, h, hp, h)
        add(k, hp, h, h)
        add(k, h, h, hp)
    for k in range(down_sym_top + 1):
        hm = Fraction(k - 1, 2)
        add(k, hm, hm, hm)
    for k in range(down_asym_top + 1):
        h = Fraction(k, 2)
        hm = Fraction(k - 1, 2)
        add(k, hm, h, h)
        add(k, h, h, hm)
        add(k, h, hm, h)
    return out


def prop_7_6_classes(n_max: int) -> list[tuple[str, IsoClass]]:
    """The labeled family list whose members are pairwise non-isomorphic."""
    out: list[tuple[str, IsoClass]] = []
    for n in range(0, n_max + 1):
        if n % 2 == 1:
            q = Fraction(-1, 4)
            out.append(
                (f"half(n={n}) odd", iso_class_of(RdParams(q, q, q, (n - 1) // 2)))
            )
        elif n % 4 == 2:
            e = Fraction(n - 2, 8)
            s = Fraction(n - 6, 8)
            d = (n - 2) // 4
            out.append((f"n={n} (e,e,s)", iso_class_of(RdParams(e, e, s, d))))
            out.append((f"n={n} (e,s,e)", iso_class_of(RdParams(e, s, e, d))))
            out.append((f"n={n} (s,e,e)", iso_class_of(RdParams(s, e, e, d))))
            if n >= 6:
                out.append(
                    (f"n={n} (e,e,e)", iso_class_of(RdParams(e, e, e, (n - 6) // 4)))
                )
        else:
            e = Fraction(n - 4, 8)
            s = Fraction(n, 8)
            if n >= 4:
                d = n // 4 - 1
                out.append((f"n={n} (e,e,s)", iso_class_of(RdParams(e, e, s, d))))
                out.append((f"n={n} (e,s,e)", iso_class_of(RdParams(e, s, e, d))))
                out.append((f"n={n} (s,e,e)", iso_class_of(RdParams(s, e, e, d))))
            out.append((f"n={n} (e,e,e)", iso_class_of(RdParams(e, e, e, n // 4))))
    return out


def expected_cube_even_classes(D: int) -> set[tuple[int, int]]:
    """Catalog of (n, parity) even classes in the cube module."""
    if D % 2 == 0:
        zero = {(2 * k, 0) for k in range(D // 2 + 1)}
        one = {(2 * k, 1) for k in range(1, D // 2 + 1)}
    else:
        zero = {(2 * k + 1, 0) for k in range((D - 1) // 2 + 1)}
        one = {(2 * k + 1, 1) for k in range((D - 1) // 2 + 1)}
    return zero | one


def expected_halved_te_classes(D: int) -> set[tuple[int, int]]:
    """Catalog of (n, parity) classes on the even-level restriction."""
    zero = {(D - 2 * k, 0) for k in range(0, D // 2 + 1, 2)}
    one = {(D - 2 * k, 1) for k in range(1, (D - 1) // 2 + 1, 2)}
    return zero | one


# -- semisimple profiles --------------------------------------------------------


@dataclass(frozen=True)
class SemisimpleProfile:
    """Matrix-block sizes with multiplicities; dim is the algebra dimension."""

    blocks: tuple[tuple[int, int], ...]
    dim: int


def semisimple_profile(report: DecompositionReport, closure_dim: int) -> SemisimpleProfile:
    """Infer the block profile from a decomposition and cross-check it.

    One block per distinct class, of size equal to the class dimension.  The
    profile dimension must equal the closure dimension of the algebra.
    """
    blocks = tuple(sorted(Counter(g.dim for g in report.summands).items(), reverse=True))
    dim = sum(count * k * k for k, count in blocks)
    if closure_dim != dim:
        raise DimMismatch(f"profile dimension {dim} != closure dimension {closure_dim}")
    return SemisimpleProfile(blocks, dim)


def block_dimension_formula(D: int) -> int:
    """The binomial closed form for the cube operator algebra dimension."""
    return comb(D // 2 + 3, 3) + comb((D + 1) // 2 + 1, 3)


def expected_block_profile(D: int) -> tuple[tuple[int, int], ...]:
    """Case expression for the cube operator algebra block structure."""
    if D % 2 == 1:
        blocks = [(k, 1) for k in range(1, (D + 1) // 2 + 1)]
    elif D % 4 == 2:
        blocks = [((D + 2) // 4, 4)] + [(k, 8) for k in range(1, (D - 2) // 4 + 1)]
    else:
        blocks = [(D // 4 + 1, 1), (D // 4, 7)] + [
            (k, 8) for k in range(1, D // 4)
        ]
    merged: dict[int, int] = {}
    for size, count in blocks:
        merged[size] = merged.get(size, 0) + count
    return tuple(sorted(merged.items(), reverse=True))


# -- even-restriction comparison ------------------------------------------------


@dataclass(frozen=True)
class TeReComparison:
    D: int
    dim_te: int
    dim_re: int
    contained: bool
    equal: bool
    te_classes_ok: bool | None


@lru_cache(maxsize=orbit.MAX_ORBIT_D)
def compare_te_re(D: int) -> TeReComparison:
    """Closure dimensions of both operator families on the even levels.

    Te is generated by E^2, F^2, H and the Casimir, Re by the pulled-back
    A, B, C and Delta; both closures and the containment test run in
    even-level orbit coordinates.  The pulled-back family always generates a
    subalgebra of the even restriction algebra; dimensions agree exactly
    when D is odd.  For even D the Te classes of the restriction, the
    parity halves of ``_even_level_halves``, are checked against a catalog.
    """
    ops = orbit.cube_operators(D)
    re_gens = [ops[k] for k in ("16A", "16B", "16C", "64Delta")]
    te = orbit.closure([ops[k] for k in ("E2", "F2", "H", "2Casimir")], D, even=True)
    re = orbit.closure(re_gens, D, even=True)
    contained = all(te.contains_vector(orbit.restrict(g, D)) for g in re_gens)
    te_classes_ok: bool | None = None
    if D % 2 == 0:
        found = {(half.n, half.parity) for half, _copies in _even_level_halves(D)}
        te_classes_ok = found == expected_halved_te_classes(D)
    return TeReComparison(D, te.dim, re.dim, contained, te.dim == re.dim, te_classes_ok)


def _cube_copies(D: int) -> list[tuple[int, int]]:
    """(k, copies of L_{D-2k}) in the cube module.  ``orbit.cube_operators``
    checks the sl2 relations, and an sl2-module is fixed by its weight
    multiplicities: C(D, k) vertices on level k have weight D - 2k."""
    orbit.cube_operators(D)
    return [(k, comb(D, k) - (comb(D, k - 1) if k else 0)) for k in range(D // 2 + 1)]


def _even_level_halves(D: int) -> list[tuple[EvenHalfModule, int]]:
    """(half, copies) on the cube's even levels: a copy of L_{D-2k} starts on
    level k, so they hold its parity-(k mod 2) half (none for L_0 on odd k)."""
    halves = [(even_halves(build_Ln(D - 2 * k))[k % 2], m) for k, m in _cube_copies(D)]
    return [(half, m) for half, m in halves if half is not None]


def _sum_reports(
    ambient_dim: int, reports: list[tuple[DecompositionReport, int]]
) -> DecompositionReport:
    """The direct sum of copies of decomposed modules, which share no class
    (the modules are L_n or their halves for distinct n).  The witnesses
    live in the summed modules, so none is kept."""
    summands = sorted(
        (replace(g, multiplicity=g.multiplicity * m, witnesses=())
         for report, m in reports for g in report.summands),
        key=lambda g: g.iso.sort_key(),
    )
    if len({g.iso for g in summands}) != len(summands):
        raise ArithmeticError("a class appears in two summed modules")
    report = DecompositionReport(ambient_dim, tuple(summands))
    if not report.complete:
        raise ArithmeticError("class dimensions do not sum to the ambient dimension")
    return report


@lru_cache(maxsize=orbit.MAX_ORBIT_D)
def halved_decompose(D: int) -> DecompositionReport:
    """Class decomposition of the even-level restriction, one parity half of
    each copy of L_{D-2k} at a time."""
    return _sum_reports(
        1 << (D - 1), [(split_even_half(half), copies) for half, copies in _even_level_halves(D)]
    )


@lru_cache(maxsize=orbit.MAX_ORBIT_D)
def cube_decompose(D: int) -> DecompositionReport:
    """Class decomposition of the cube module, one copy of L_{D-2k} at a time,
    checked against the catalog."""
    report = _sum_reports(
        1 << D, [(re_decompose(build_Ln(D - 2 * k)), copies) for k, copies in _cube_copies(D)]
    )
    expected, found = expected_cube_classes(D), report.classes()
    if found != expected:
        raise ClassMismatch(
            f"cube catalog mismatch at D={D}: extra {found - expected}, missing {expected - found}"
        )
    return report


@lru_cache(maxsize=orbit.MAX_ORBIT_D)
def cube_operator_closure(D: int) -> orbit.OrbitClosure:
    """Closure of the three level-graph operators on the cube, in orbit coordinates."""
    ops = orbit.cube_operators(D)
    return orbit.closure([ops["A2J"], ops["A2Jbar"], ops["2A2star"]], D)


@lru_cache(maxsize=orbit.MAX_ORBIT_D)
def cube_pullback_closure(D: int) -> orbit.OrbitClosure:
    """Closure of the pulled-back generator images (orbit products of E, F and
    H), kept as the exact reference of criterion 8 and the benchmark: the
    suite reads its equality with the graph closure from orbit.SPAN_IDENTITIES."""
    ops = orbit.cube_operators(D)
    return orbit.closure([ops["16A"], ops["16B"], ops["16C"]], D)


def cube_semisimple_profile(D: int) -> SemisimpleProfile:
    """Block profile of the cube operator algebra, closure-cross-checked."""
    return semisimple_profile(cube_decompose(D), cube_operator_closure(D).dim)

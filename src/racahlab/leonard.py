"""Generic Leonard-triple verification over the Gaussian rationals.

Each of the three conditions diagonalizes one operator (all eigenspaces must
be one-dimensional), then looks for an ordering of the eigenlines along which
the other two operators are irreducible tridiagonal.  The ordering search is
combinatorial: the union of the two off-diagonal support graphs must be a
single Hamiltonian path, which at these sizes is detected by degree counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch
from .gaussian import GaussianRational
from .matrix import ExactMatrix, eigen_split


@dataclass(frozen=True)
class ConditionCertificate:
    """One diagonalization condition: which operator, ordering, verdict."""

    diagonal_index: int
    diagonalizable: bool
    simple_spectrum: bool
    ordering: tuple[int, ...] | None
    eigenvalues: tuple[GaussianRational, ...] | None
    tridiagonals: tuple[ExactMatrix, ...] | None
    passed: bool
    reason: str | None


@dataclass(frozen=True)
class LeonardReport:
    dim: int
    conditions: tuple[ConditionCertificate, ...]
    passed: bool


def _path(n: int, edges: set[frozenset[int]]) -> tuple[list[int] | None, str | None]:
    """The one Hamiltonian path of a graph on range(n) whose edges must all
    lie on it, or None and the reason there is none."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for edge in edges:
        u, v = tuple(edge)
        adjacency[u].append(v)
        adjacency[v].append(u)
    for v, nbrs in adjacency.items():
        if len(nbrs) > 2:
            return None, f"support graph has a vertex of degree {len(nbrs)}"
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in range(n):
        if start in seen or len(adjacency[start]) >= 2:
            continue
        # Walk from an endpoint (or isolated vertex).
        chain = [start]
        seen.add(start)
        current = start
        prev = None
        while True:
            nxt = [u for u in adjacency[current] if u != prev]
            if not nxt:
                break
            prev, current = current, nxt[0]
            chain.append(current)
            seen.add(current)
        components.append(chain)
    if len(seen) != n:
        return None, "support graph contains a cycle"
    if len(components) != 1:
        return None, "support graph is disconnected, so no common irreducible ordering exists"
    return components[0], None


def _support(m: ExactMatrix) -> set[tuple[int, int]]:
    """The positions of the nonzero entries, read off the stored integer rows."""
    im_rows = m.im or m.re  # a real matrix pairs each entry with itself
    return {
        (i, j)
        for i, (re_row, im_row) in enumerate(zip(m.re, im_rows))
        for j, (x, y) in enumerate(zip(re_row, im_row))
        if x or y
    }


def _support_edges(matrices: Sequence[ExactMatrix]) -> set[frozenset[int]]:
    return {frozenset(pos) for m in matrices for pos in _support(m) if pos[0] != pos[1]}


def _is_irreducible_tridiagonal(m: ExactMatrix) -> bool:
    support = _support(m)
    band = {(k, k + 1) for k in range(m.rows - 1)} | {(k + 1, k) for k in range(m.rows - 1)}
    return band <= support and all(abs(i - j) <= 1 for i, j in support)


def _condition(
    index: int,
    diag_op: ExactMatrix,
    others: Sequence[ExactMatrix],
    hints,
) -> ConditionCertificate:
    split = eigen_split(diag_op, hints)
    flags = (index, split.diagonalizable, split.simple)
    if split.basis is None:
        reason = "not diagonalizable" if not split.diagonalizable else "eigenspace of dimension > 1"
        return ConditionCertificate(*flags, None, None, None, False, reason)
    lines, dual = split.basis
    transformed = [dual * (m * lines) for m in others]
    order, problem = _path(diag_op.rows, _support_edges(transformed))
    if order is None:
        return ConditionCertificate(*flags, None, split.values, None, False, problem)
    permuted = tuple(m.submatrix(order, order) for m in transformed)
    passed = all(_is_irreducible_tridiagonal(m) for m in permuted)
    reason = None if passed else "an operator is tridiagonal but not irreducible in the path ordering"
    values = tuple(split.values[k] for k in order)
    return ConditionCertificate(*flags, tuple(order), values, permuted, passed, reason)


def _normalize_hints(hints):
    if hints is None:
        return [None] * 3
    if len(hints) != 3:
        raise ValueError("expected 3 hint lists")
    return [list(h) if h is not None else None for h in hints]


def check(
    first: ExactMatrix,
    second: ExactMatrix,
    third: ExactMatrix,
    hints: Sequence[Sequence] | None = None,
) -> LeonardReport:
    """Certify or refute the three diagonalization conditions for a triple.

    Each operator's spectrum comes from ``eigen_split``.  ``hints``, one list
    per operator (or None for that operator), is a checked expectation: the
    listed values fix the order of the eigenlines, and a list that is not
    exactly the operator's distinct eigenvalues raises RootsMismatch.  Without
    a hint list, an operator whose minimal polynomial does not split over the
    Gaussian rationals raises NonSplitting.
    """
    ops = (first, second, third)
    n = first.rows
    for m in ops:
        if not m.is_square or m.rows != n:
            raise DimensionMismatch("operators must be square and equally sized")
    hint_lists = _normalize_hints(hints)
    conditions = []
    for k in range(3):
        others = [ops[(k + 1) % 3], ops[(k + 2) % 3]]
        conditions.append(_condition(k, ops[k], others, hint_lists[k]))
    return LeonardReport(n, tuple(conditions), all(c.passed for c in conditions))

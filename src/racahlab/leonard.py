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


def _path_order(n: int, edges: set[frozenset[int]]) -> tuple[list[list[int]], str | None]:
    """Order the vertices of a union-of-paths graph; or explain why not."""
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for edge in edges:
        u, v = tuple(edge)
        adjacency[u].append(v)
        adjacency[v].append(u)
    for v, nbrs in adjacency.items():
        if len(nbrs) > 2:
            return [], f"support graph has a vertex of degree {len(nbrs)}"
    seen: set[int] = set()
    components: list[list[int]] = []
    for start in range(n):
        if start in seen:
            continue
        if len(adjacency[start]) >= 2:
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
        return [], "support graph contains a cycle"
    return components, None


def _conjugate_into_eigenbasis(
    diag_op: ExactMatrix, others: Sequence[ExactMatrix], hints
) -> tuple[tuple[GaussianRational, ...], list[ExactMatrix], bool, bool]:
    """Diagonalize one operator; return eigenvalues, transformed others, flags.

    With every eigenspace a line, ``eigen_split`` also gives the eigenbasis
    U and its inverse W, so each other operator M becomes W M U.
    """
    split = eigen_split(diag_op, hints)
    values = tuple(value for value, _space in split.pairs)
    simple = all(space.dim == 1 for _v, space in split.pairs)
    if not split.diagonalizable or not simple:
        return values, [], split.diagonalizable, simple
    lines, dual = split.basis
    return values, [dual * (m * lines) for m in others], True, True


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


def _permute(m: ExactMatrix, order: Sequence[int]) -> ExactMatrix:
    return m.submatrix(order, order)


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
    n = diag_op.rows
    values, transformed, diagonalizable, simple = _conjugate_into_eigenbasis(
        diag_op, others, hints
    )
    if not diagonalizable or not simple:
        reason = "not diagonalizable" if not diagonalizable else "eigenspace of dimension > 1"
        return ConditionCertificate(
            index, diagonalizable, simple, None, None, None, False, reason
        )
    if n == 1:
        return ConditionCertificate(
            index, True, True, (0,), values, tuple(transformed), True, None
        )
    edges = _support_edges(transformed)
    components, problem = _path_order(n, edges)
    if problem is not None:
        return ConditionCertificate(
            index, True, True, None, values, None, False, problem
        )
    if len(components) != 1:
        return ConditionCertificate(
            index,
            True,
            True,
            None,
            values,
            None,
            False,
            "support graph is disconnected, so no common irreducible ordering exists",
        )
    order = components[0]
    permuted = [_permute(m, order) for m in transformed]
    for m in permuted:
        if not _is_irreducible_tridiagonal(m):
            return ConditionCertificate(
                index,
                True,
                True,
                tuple(order),
                tuple(values[k] for k in order),
                tuple(permuted),
                False,
                "an operator is tridiagonal but not irreducible in the path ordering",
            )
    return ConditionCertificate(
        index,
        True,
        True,
        tuple(order),
        tuple(values[k] for k in order),
        tuple(permuted),
        True,
        None,
    )


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

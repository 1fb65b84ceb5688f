"""Brute-force ground truth: exhaustive enumeration of small SL_n(F_q),
U2 census, commutator word lengths by BFS, and derived subgroups.

Everything the constructive modules claim is tested against this module,
so it shares no code with the factorization routes beyond the field and
matrix primitives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .field import FieldSpec, sqrt
from .linalg import Matrix, identity
from .unipotent import is_u2, Report


class OracleError(Exception):
    pass


class BudgetExceeded(OracleError):
    pass


DEFAULT_BUDGET = 200_000

UNREACHABLE = -1  # length marker for elements outside the generated subgroup


def sl_order(q: int, n: int) -> int:
    """|SL_n(F_q)| = (1/(q-1)) * prod_{i=0}^{n-1} (q^n - q^i)."""
    prod = 1
    for i in range(n):
        prod *= q ** n - q ** i
    return prod // (q - 1)


def _matrix_key(A: Matrix):
    """Canonical hashable encoding: row-major element representations."""
    return tuple(itertools.chain.from_iterable(A.reps()))


@dataclass
class GroupTable:
    """Complete indexed enumeration of SL_n(F_q)."""

    field: FieldSpec
    n: int
    elements: tuple        # element id -> Matrix
    index: dict            # canonical key -> element id
    u2_ids: tuple          # ids of U2-matrices, ascending

    def id_of(self, A: Matrix) -> int:
        return self.index[_matrix_key(A)]

    def __len__(self):
        return len(self.elements)


def enumerate_group(F: FieldSpec, n: int,
                    budget: int = DEFAULT_BUDGET) -> GroupTable:
    """Enumerate all of SL_n(F_q); the count is checked against the
    order formula."""
    if not F.is_finite:
        raise OracleError("enumeration requires a finite field")
    if n < 1:
        raise OracleError(f"need n >= 1, got {n}")
    q = F.size
    expected = sl_order(q, n)
    if expected > budget:
        raise BudgetExceeded(f"|SL_{n}(F_{q})| = {expected} > budget {budget}")
    one = F.one()
    elems = F.elements()
    mats = []
    index = {}
    u2_ids = []
    for flat in itertools.product(elems, repeat=n * n):
        A = Matrix(F, [flat[i * n:(i + 1) * n] for i in range(n)])
        if A.det() != one:
            continue
        key = _matrix_key(A)
        index[key] = len(mats)
        if is_u2(A):
            u2_ids.append(len(mats))
        mats.append(A)
    if len(mats) != expected:
        raise OracleError(f"enumerated {len(mats)} elements of SL_{n}(F_{q}),"
                          f" expected {expected}")
    return GroupTable(F, n, tuple(mats), index, tuple(u2_ids))


def commutator_generators(table: GroupTable) -> frozenset:
    """Ids of all values [X, Y] over pairs of U2-matrices."""
    out = set()
    u2 = [table.elements[i] for i in table.u2_ids]
    inverses = [X.inverse() for X in u2]
    for X, Xinv in zip(u2, inverses):
        for Y, Yinv in zip(u2, inverses):
            out.add(table.id_of(X @ Y @ Xinv @ Yinv))
    return frozenset(out)


def bfs_lengths(table: GroupTable, generators=None):
    """Minimal number of U2-commutator factors per element id, by BFS
    over right multiplication; UNREACHABLE outside the generated
    subgroup."""
    if generators is None:
        generators = commutator_generators(table)
    gen_mats = [table.elements[g] for g in sorted(generators)]
    lengths = [UNREACHABLE] * len(table.elements)
    start = table.id_of(identity(table.field, table.n))
    lengths[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for eid in frontier:
            A = table.elements[eid]
            for G in gen_mats:
                tid = table.id_of(A @ G)
                if lengths[tid] == UNREACHABLE:
                    lengths[tid] = depth
                    nxt.append(tid)
        frontier = nxt
    return lengths


def derived_subgroup(table: GroupTable) -> frozenset:
    """Ids of the derived subgroup: the elements ``bfs_lengths`` reaches
    from the commutators [a, b] over the full group, since in a finite
    group the monoid a set generates is the subgroup it generates."""
    gens = set()
    inverses = [A.inverse() for A in table.elements]
    for A, Ainv in zip(table.elements, inverses):
        for B, Binv in zip(table.elements, inverses):
            gens.add(table.id_of(A @ B @ Ainv @ Binv))
    lengths = bfs_lengths(table, gens)
    return frozenset(i for i, d in enumerate(lengths) if d != UNREACHABLE)


def check_trace_characterization(table: GroupTable) -> Report:
    """Every nonscalar element has BFS length 1 exactly when tr - 2 is a
    nonzero square."""
    if table.n != 2:
        raise OracleError("trace characterization is a statement about SL_2")
    F = table.field
    two = F.element(2)
    lengths = bfs_lengths(table)
    report = Report()
    bad = []
    for eid, A in enumerate(table.elements):
        if A.is_scalar():
            continue
        disc = A.trace() - two
        predicted = (not disc.is_zero()) and sqrt(disc) is not None
        actual = lengths[eid] == 1
        if predicted != actual:
            bad.append((eid, A.tokens(), lengths[eid]))
    report.record("length-1 nonscalars match the trace test", not bad,
                  "" if not bad else f"{len(bad)} exceptions, first: {bad[0]}")
    return report


def table_to_csv(table: GroupTable, lengths=None) -> str:
    """CSV export: element id, matrix tokens, trace, is_u2, bfs_length."""
    if lengths is None:
        lengths = bfs_lengths(table)
    lines = ["id,matrix,trace,is_u2,bfs_length"]
    u2 = set(table.u2_ids)
    for eid, A in enumerate(table.elements):
        tokens = ";".join(" ".join(row) for row in A.tokens())
        length = lengths[eid]
        shown = "inf" if length == UNREACHABLE else str(length)
        flag = "1" if eid in u2 else "0"
        lines.append(f"{eid},{tokens},{A.trace().token()},{flag},{shown}")
    return "\n".join(lines) + "\n"

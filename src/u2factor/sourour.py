"""Constructive prescribed-spectrum splitting A = B C.

For a nonscalar invertible A and nonzero eigenvalue lists (betas,
gammas) with prod(betas) * prod(gammas) = det(A), produce B, C with
A = B C, charpoly(B) = prod (x - beta_i), charpoly(C) = prod (x - gamma_i).

The construction is inductive: pick a vector x that is not an
eigenvector of A, change basis to (x, (A - b1*g1*I)x, ...), peel off a
triangular first row/column, and recurse on the Schur-type correction
A' = A_1 - v u / (b1 g1).  Bounded backtracking over the non-eigenvector
choice and over which (beta_i, gamma_j) heads lead handles the rare
scalar-residual dead ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (Matrix, identity, diagonal, matrix_from_columns,
                     IndependentSet, ScalarInput)


class SourourError(Exception):
    pass


class DeterminantMismatch(SourourError):
    pass


class ConstructionFailed(SourourError):
    pass


class _Dead(Exception):
    """Internal: this branch of the search cannot be completed."""


_BACKTRACK_BUDGET = 20000


@dataclass(frozen=True)
class SourourFactorization:
    b: Matrix
    c: Matrix
    backtracks: int

    def route_tag(self, betas, gammas) -> str:
        bs = ",".join(e.token() for e in betas)
        gs = ",".join(e.token() for e in gammas)
        return f"sourour(betas={bs};gammas={gs};backtracks={self.backtracks})"


def _candidate_vectors(field, m):
    """e_1..e_m, then e_i + e_j: for a nonscalar matrix at least one of
    these is not an eigenvector."""
    one, zero = field.one(), field.zero()
    for i in range(m):
        vec = [zero] * m
        vec[i] = one
        yield tuple(vec)
    for i in range(m):
        for j in range(i + 1, m):
            vec = [zero] * m
            vec[i] = one
            vec[j] = one
            yield tuple(vec)


def _match_scalar(lam, betas, gammas):
    """Pair every beta with a distinct gamma so beta*gamma = lam, or None."""
    if not betas:
        return []
    b = betas[0]
    for j, g in enumerate(gammas):
        if b * g == lam:
            rest = _match_scalar(lam, betas[1:], gammas[:j] + gammas[j + 1:])
            if rest is not None:
                return [g] + rest
    return None


class _Search:
    def __init__(self, budget):
        self.budget = budget
        self.backtracks = 0

    def spend(self):
        self.backtracks += 1
        if self.backtracks > self.budget:
            raise ConstructionFailed("backtracking budget exhausted")

    def factor(self, A: Matrix, betas, gammas):
        field, m = A.field, A.n
        if m == 1:
            want = betas[0] * gammas[0]
            if A[0, 0] != want:
                # determinant bookkeeping guarantees this never happens
                raise _Dead
            return (Matrix(field, [[betas[0]]]),
                    Matrix(field, [[gammas[0]]]))
        if A.is_scalar():
            lam = A[0, 0]
            matched = _match_scalar(lam, list(betas), list(gammas))
            if matched is None:
                raise _Dead
            return (diagonal(field, betas), diagonal(field, matched))
        head_orders = [(0, 0)]
        head_orders += [(i, j) for i in range(len(betas))
                        for j in range(len(gammas)) if (i, j) != (0, 0)]
        tried_heads = set()
        for (hi, hj) in head_orders:
            b1, g1 = betas[hi], gammas[hj]
            if (b1, g1) in tried_heads:
                continue
            tried_heads.add((b1, g1))
            rest_b = betas[:hi] + betas[hi + 1:]
            rest_g = gammas[:hj] + gammas[hj + 1:]
            try:
                return self._step(A, b1, g1, rest_b, rest_g)
            except _Dead:
                self.spend()
                continue
        raise _Dead

    def _step(self, A, b1, g1, rest_b, rest_g):
        field, m = A.field, A.n
        mu = b1 * g1
        muI = identity(field, m).scalar_mul(mu)
        shifted = A - muI
        for x in _candidate_vectors(field, m):
            y = shifted.apply(x)
            span = IndependentSet(field, m)
            span.add(x)
            if not span.add(y):
                continue  # x is an eigenvector of A
            # extend (x, y) to a basis with canonical vectors
            cols = [x, y]
            one, zero = field.one(), field.zero()
            for i in range(m):
                if len(cols) == m:
                    break
                e = tuple(one if t == i else zero for t in range(m))
                if span.add(e):
                    cols.append(e)
            Q = matrix_from_columns(field, cols)
            Qinv = Q.inverse()
            At = Qinv @ A @ Q
            # first column is (mu, 1, 0, ..., 0)^T by construction
            u = At.rows[0][1:]
            A1 = Matrix(field, [r[1:] for r in At.rows[1:]])
            mu_inv = mu.inverse()
            corrected = [list(r) for r in A1.rows]
            corrected[0] = [a - ui * mu_inv
                            for a, ui in zip(corrected[0], u)]
            Aprime = Matrix(field, corrected)
            try:
                B1, C1 = self.factor(Aprime, rest_b, rest_g)
            except _Dead:
                self.spend()
                continue
            g1_inv = g1.inverse()
            b1_inv = b1.inverse()
            Bt_rows = [[b1] + [zero] * (m - 1)]
            for i in range(m - 1):
                lead = g1_inv if i == 0 else zero
                Bt_rows.append([lead] + list(B1.rows[i]))
            Ct_rows = [[g1] + [ui * b1_inv for ui in u]]
            for i in range(m - 1):
                Ct_rows.append([zero] + list(C1.rows[i]))
            Bt = Matrix(field, Bt_rows)
            Ct = Matrix(field, Ct_rows)
            return (Q @ Bt @ Qinv, Q @ Ct @ Qinv)
        raise _Dead


def sourour_factor(A: Matrix, betas, gammas,
                   budget: int = _BACKTRACK_BUDGET) -> SourourFactorization:
    """Split A into B C with the prescribed spectra.

    Raises ScalarInput / DeterminantMismatch on bad input and
    ConstructionFailed if the bounded search dies (treated as a bug for
    |F| >= 4 at desk scale).  The split is not re-checked here: a direct
    call returns an unchecked result, and ``factor_sln.factor`` verifies
    the certificates built from it.
    """
    field, n = A.field, A.n
    betas = tuple(betas)
    gammas = tuple(gammas)
    if n < 2:
        raise SourourError("need n >= 2")
    if len(betas) != n or len(gammas) != n:
        raise SourourError("prescription length must equal the dimension")
    if any(e.is_zero() for e in betas) or any(e.is_zero() for e in gammas):
        raise SourourError("prescribed eigenvalues must be nonzero")
    if A.is_scalar():
        raise ScalarInput("Sourour splitting needs a nonscalar matrix")
    det = A.det()
    if det.is_zero():
        raise SourourError("matrix must be invertible")
    prod = field.one()
    for e in betas + gammas:
        prod = prod * e
    if prod != det:
        raise DeterminantMismatch("prod(betas)*prod(gammas) != det(A)")
    search = _Search(budget)
    try:
        B, C = search.factor(A, betas, gammas)
    except _Dead:
        raise ConstructionFailed("search space exhausted")
    return SourourFactorization(B, C, search.backtracks)

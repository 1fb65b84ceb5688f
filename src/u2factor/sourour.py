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

The search runs on rows of raw reps through the field's arith class,
with the rep helpers ``linalg`` shares; ``Matrix`` appears only in
``SourourFactorization`` and ``sourour_factor``.  A level's basis change
Q = [x, y, e_t, ...] is the identity up to column order, except for the
dense column y and, when x = e_i + e_j, one extra 1 (``_Basis``).  So
Q^-1 A Q and the correction cost O(m^2) each at an m x m level, O(n^3)
in all, with no elimination and no dense matrix product.

The search builds neither B nor C.  At every level Q^-1 B Q is lower
and Q^-1 C Q upper block triangular around the next level's parts, so
as its success path unwinds it returns one triangularizing basis
(Sourour, "A factorization theorem for matrices", Linear Multilinear
Algebra 19, 1986): B = T L T^-1 and C = T U T^-1, with T = Q_1 (1 (+)
Q_2) (1 (+) 1 (+) Q_3) ..., L lower triangular with the betas on its
diagonal and U upper triangular with the gammas.  A level with basis
Q extends the inner (T1, T1^-1, L1, U1) to T = Q (1 (+) T1), T^-1 =
(1 (+) T1^-1) Q^-1, the new column g1^-1 T1^-1 e1 of L and the new row
(u / b1) T1 of U, in O(m^2) at an m x m level.  The two-commutator
routes read only these four matrices; the unipotent route reads B or C
(two products in ``SourourFactorization``) only for a part that is not
one Jordan block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

from .field import FieldSpec
from .linalg import Matrix, ScalarInput, apply_reps, diagonal_reps, \
    is_scalar_reps


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
    """A = B C, with charpoly(B) and charpoly(C) the prescribed ones,
    held as its triangularization: B = T L T^-1 and C = T U T^-1, with L
    lower triangular with the betas on its diagonal and U upper
    triangular with the gammas, in the order the search placed them.

    B and C are read from these on first use, by two products each; a
    caller that reads only T, T^-1, L and U never builds them.
    """

    field: FieldSpec
    backtracks: int
    T: Matrix
    T_inv: Matrix
    L: Matrix
    U: Matrix

    @cached_property
    def b(self) -> Matrix:
        return self.T @ self.L @ self.T_inv

    @cached_property
    def c(self) -> Matrix:
        return self.T @ self.U @ self.T_inv

    def route_tag(self, betas, gammas) -> str:
        bs = ",".join(e.token() for e in betas)
        gs = ",".join(e.token() for e in gammas)
        return f"sourour(betas={bs};gammas={gs};backtracks={self.backtracks})"


def _bump(arith, rows):
    """Rows of 1 (+) X, for X given as rows."""
    return ([[arith.one] + [arith.zero] * len(rows)]
            + [[arith.zero] + r for r in rows])


def _candidate_supports(m):
    """Supports of e_1..e_m, then of e_i + e_j: for a nonscalar matrix at
    least one of these vectors is not an eigenvector."""
    return chain(combinations(range(m), 1), combinations(range(m), 2))


def _match_scalar(mul, lam, betas, gammas):
    """Pair every beta with a distinct gamma so beta*gamma = lam, or None.

    Whether the rest can be paired depends only on the multiset of the
    gammas left, so a gamma value that failed at this depth is not
    tried again: at most one value can pass the test, so each depth
    recurses at most once."""
    if not betas:
        return []
    b = betas[0]
    tried = set()
    for j, g in enumerate(gammas):
        if g in tried:
            continue
        tried.add(g)
        if mul(b, g) == lam:
            rest = _match_scalar(mul, lam, betas[1:],
                                 gammas[:j] + gammas[j + 1:])
            if rest is not None:
                return [g] + rest
    return None


class _Basis:
    """One level's basis change Q = [x, y, e_t for t in kept].

    x is e_k or e_i + e_j (``support``) and y is dense.  The canonical
    extension skips exactly the two indices where some vector of
    span(x, y) has its last nonzero entry: a, the last index of x, and
    p, the last nonzero index of z = y - y_a x.  So Q c = v is a 2x2
    system in the rows a and p, with determinant z_p, followed by one
    substitution per kept row; the only kept row where x is nonzero is
    ``xt`` (i, for x = e_i + e_j and p != i).
    """

    __slots__ = ("arith", "m", "y", "a", "p", "xp", "xt", "kept", "ya",
                 "d_inv", "y_kept")

    def __init__(self, arith, support, y, p, d):
        self.arith, self.m, self.y = arith, len(y), y
        self.a, self.p = support[-1], p
        self.xp = p in support          # x_p, the one extra 1 at p
        self.xt = support[0] if len(support) == 2 and not self.xp else None
        self.kept = [t for t in range(self.m) if t != self.a and t != p]
        self.ya = y[self.a]
        self.d_inv = arith.inv(d)
        self.y_kept = [y[t] for t in self.kept]

    @classmethod
    def extend(cls, arith, support, y):
        """The basis for x = sum of e_s over support and y, or None when
        y is in span(x), i.e. x is an eigenvector."""
        a, ya = support[-1], y[support[-1]]
        for t in range(len(y) - 1, -1, -1):
            if t == a:
                continue
            z = arith.sub(y[t], ya) if t in support else y[t]
            if not arith.is_zero(z):
                return cls(arith, support, y, t, z)
        return None

    def solve_rows(self, W):
        """Rows of Q^-1 W, for W given as m rows."""
        ar = self.arith
        Wa, Wp = W[self.a], W[self.p]
        if self.xp:
            Wp = list(map(ar.sub, Wp, Wa))
        cy = ar.scale(Wp, self.d_inv)
        cx = ar.sub_scaled(Wa, self.ya, cy)
        out = [cx, cy]
        for t in self.kept:
            row = W[t]
            if t == self.xt:
                row = list(map(ar.sub, row, cx))
            out.append(ar.sub_scaled(row, self.y[t], cy))
        return out

    def left_mul(self, X):
        """Rows of Q X, for X given as m rows, one per basis vector."""
        ar, m = self.arith, self.m
        # row r is x_r X[0] + y_r X[1], plus X's row for e_r if kept
        QX = [None] * m
        for idx, t in enumerate(self.kept):
            QX[t] = X[2 + idx]
        QX[self.a] = X[0]
        QX[self.p] = X[0] if self.xp else [ar.zero] * m
        if self.xt is not None:
            QX[self.xt] = list(map(ar.add, QX[self.xt], X[0]))
        return [ar.sub_scaled(row, ar.neg(yr), X[1])
                for row, yr in zip(QX, self.y)]

    def right_div(self, W):
        """Rows of W Q^-1, for W given as rows whose m columns follow the
        basis vectors."""
        ar = self.arith
        sub, mul = ar.sub, ar.mul
        a, p, xt = self.a, self.p, self.xt
        # s = w Q^-1 solves s Q = w: s_t = w_t' on kept t, then the 2x2
        # system s.x = w_0, s.y = w_1 in s_a, s_p
        r1s = apply_reps(ar, [w[2:] for w in W], self.y_kept)
        out = []
        xt_col = 2 + self.kept.index(xt) if xt is not None else None
        for w, dot in zip(W, r1s):
            r0 = w[0] if xt_col is None else sub(w[0], w[xt_col])
            r1 = sub(w[1], dot)
            sp = mul(self.d_inv, sub(r1, mul(self.ya, r0)))
            sa = sub(r0, sp) if self.xp else r0
            s = w[2:]
            for i, v in sorted(((a, sa), (p, sp))):
                s.insert(i, v)
            out.append(s)
        return out


class _Search:
    def __init__(self, arith):
        self.arith = arith
        self.backtracks = 0

    def spend(self):
        self.backtracks += 1
        if self.backtracks > _BACKTRACK_BUDGET:
            raise ConstructionFailed("backtracking budget exhausted")

    def factor(self, A, betas, gammas):
        """Split A, given as rows of reps: the rows of (T, T^-1, L, U)."""
        ar, m = self.arith, len(A)
        if m == 1:
            if A[0][0] != ar.mul(betas[0], gammas[0]):
                # determinant bookkeeping guarantees this never happens
                raise _Dead
            return _diagonal_split(ar, betas, gammas)
        if is_scalar_reps(ar, A):
            matched = _match_scalar(ar.mul, A[0][0], betas, gammas)
            if matched is None:
                raise _Dead
            return _diagonal_split(ar, betas, matched)
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
        ar, m = self.arith, len(A)
        add, sub, mul = ar.add, ar.sub, ar.mul
        mu = mul(b1, g1)
        for support in _candidate_supports(m):
            # y = (A - mu I) x
            if len(support) == 1:
                y = [row[support[0]] for row in A]
            else:
                i, j = support
                y = [add(row[i], row[j]) for row in A]
            for s in support:
                y[s] = sub(y[s], mu)
            basis = _Basis.extend(ar, support, y)
            if basis is None:
                continue  # x is an eigenvector of A
            # columns 1.. of Q^-1 A Q; column 0 is (mu, 1, 0, ..., 0)^T
            Ay = apply_reps(ar, A, y)
            u, *A1 = basis.solve_rows(
                [[v] + [row[t] for t in basis.kept] for row, v in zip(A, Ay)])
            A1[0] = ar.sub_scaled(A1[0], ar.inv(mu), u)
            try:
                T1, T1_inv, L1, U1 = self.factor(A1, rest_b, rest_g)
            except _Dead:
                self.spend()
                continue
            # Q^-1 B Q = [[b1, 0], [g1^-1 e1, B1]] and Q^-1 C Q =
            # [[g1, u / b1], [0, C1]], with B1 = T1 L1 T1^-1 and C1 likewise
            top = ar.scale(u, ar.inv(b1))
            g1_inv = ar.inv(g1)
            L = [[b1] + [ar.zero] * (m - 1)] + [
                [mul(g1_inv, t[0])] + r for t, r in zip(T1_inv, L1)]
            U = ([[g1] + ar.product_reps([top], T1)[0]]
                 + [[ar.zero] + r for r in U1])
            return (basis.left_mul(_bump(ar, T1)),
                    basis.right_div(_bump(ar, T1_inv)), L, U)
        raise _Dead


def _diagonal_split(arith, betas, gammas):
    """(T, T^-1, L, U) of the split diag(betas) diag(gammas), T = I."""
    T = diagonal_reps(arith, [arith.one] * len(betas))
    return T, T, diagonal_reps(arith, betas), diagonal_reps(arith, gammas)


def sourour_factor(A: Matrix, betas, gammas) -> SourourFactorization:
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
    search = _Search(field.arith)
    try:
        rows = search.factor(A.reps(), tuple(e.rep for e in betas),
                             tuple(e.rep for e in gammas))
    except _Dead:
        raise ConstructionFailed("search space exhausted")
    return SourourFactorization(
        field, search.backtracks,
        *(Matrix.from_reps(field, X) for X in rows))

"""Constructive prescribed-spectrum splitting A = B C.

For a nonscalar invertible A and nonzero eigenvalue lists (betas,
gammas) with prod(betas) * prod(gammas) = det(A), produce B, C with
A = B C, charpoly(B) = prod (x - beta_i), charpoly(C) = prod (x - gamma_i).

The construction is inductive: pick a vector x that is not an
eigenvector of A, change basis to (x, (A - b1*g1*I)x, ...), peel off a
triangular first row/column, and recurse on the Schur-type correction
A' = A_1 - v u / (b1 g1).  No choice is undone, and every level
succeeds.  A level takes the first betas and gammas as its head
(b1, g1).  Any x that is not an eigenvector gives a valid level, so the
level takes one that keeps the numbers small: among the e_i that are
not eigenvectors, the one whose pivot has the least ``height``, the
first on a tie.  The pivot of e_i is the last nonzero entry of
y = (A - b1 g1 I) e_i off row i, the determinant of the level's basis
change up to sign, and B = T L T^-1 below inherits it.  Over Q the
height counts the bits of its numerator and denominator, and the least
pivot shortens the largest certificate entry of seeded SL_n(Q) inputs
by a third to a half at n = 10 to 24; over a finite field every element
has height 0, so the level takes the first e_i that is not an
eigenvector.  Only when every e_i is an eigenvector, which makes a
nonscalar A diagonal, does it take the first e_i + e_j that is not
one.  The correction keeps the determinant, det A' = det A / (b1 g1),
so a 1 x 1 residual is the last beta times the last gamma.  The one
dead end is a scalar residual lam I that no pairing of the betas and
gammas left splits.  Then the level replaces its third basis vector e_t
by e_t + b1 g1 x, the similarity E = I + b1 g1 e_0 e_2^T: column 0
stays (b1 g1, 1, 0, ...), and A' becomes lam I + lam e_0 e_1^T, which
is not scalar.

The split runs on rows of A's form through the row API of the field's
arith class (``field`` lists it); ``Matrix`` appears only in
``SourourFactorization`` and ``sourour_factor``.  Over a finite field a
row is a list of reps; over Q it is integers over one positive
denominator, in lowest terms, so every row operation is one integer
pass and one ``gcd``, and the scalars (the entries of the chosen y, the
heads, and each e_i's pivot and the zeros below it) are the only
``Fraction``s, O(m) of them at a dense m x m level.
T, T^-1, L and U come out as forms and go to ``Matrix.from_form`` as
they are.  A level's basis change
Q = [x, y, e_t, ...] is the identity up to column order, except for the
dense column y and, when x = e_i + e_j, one extra 1 (``_Basis``).  So
Q^-1 A Q and the correction cost O(m^2) each at an m x m level, O(n^3)
in all, with no elimination and no dense matrix product: the rows
[A y | A's kept columns] and W Q^-1 are one ``augment`` each, a product
with one or two columns put in front of each row and the entries
rearranged.

The split builds neither B nor C.  At every level Q^-1 B Q is lower
and Q^-1 C Q upper block triangular around the next level's parts, so
as its recursion unwinds it returns one triangularizing basis
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
from itertools import combinations

from .field import FieldSpec
from .linalg import Matrix, ScalarInput


class SourourError(Exception):
    pass


class DeterminantMismatch(SourourError):
    pass


@dataclass(frozen=True)
class SourourFactorization:
    """A = B C, with charpoly(B) and charpoly(C) the prescribed ones,
    held as its triangularization: B = T L T^-1 and C = T U T^-1, with L
    lower triangular with the betas on its diagonal and U upper
    triangular with the gammas, in the order the split placed them.

    B and C are read from these on first use, by two products each; a
    caller that reads only T, T^-1, L and U never builds them.
    ``backtracks`` counts the levels that fixed their basis because
    their residual was a scalar no pairing splits: at most one per
    level of size 3 or more, so at most n - 2.
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
    zero = arith.zero
    return ([arith.row([arith.one] + [zero] * len(rows))]
            + [arith.row_push(zero, r) for r in rows])


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
        sub_scaled = ar.row_sub_scaled
        Wa, Wp = W[self.a], W[self.p]
        if self.xp:
            Wp = sub_scaled(Wp, ar.one, Wa)
        cy = ar.row_scale(Wp, self.d_inv)
        cx = sub_scaled(Wa, self.ya, cy)
        out = [cx, cy]
        for t in self.kept:
            row = W[t]
            if t == self.xt:
                row = sub_scaled(row, ar.one, cx)
            out.append(sub_scaled(row, self.y[t], cy))
        return out

    def left_mul(self, X):
        """Rows of Q X, for X given as m rows, one per basis vector."""
        ar, m = self.arith, self.m
        sub_scaled, neg = ar.row_sub_scaled, ar.neg
        # row r is x_r X[0] + y_r X[1], plus X's row for e_r if kept
        QX = [None] * m
        for idx, t in enumerate(self.kept):
            QX[t] = X[2 + idx]
        QX[self.a] = X[0]
        QX[self.p] = X[0] if self.xp else ar.row([ar.zero] * m)
        if self.xt is not None:
            QX[self.xt] = sub_scaled(QX[self.xt], neg(ar.one), X[0])
        return [sub_scaled(row, neg(yr), X[1])
                for row, yr in zip(QX, self.y)]

    def right_div(self, W):
        """Rows of W Q^-1, for W given as rows whose m columns follow the
        basis vectors."""
        ar, m = self.arith, self.m
        neg, one = ar.neg, ar.one
        # s = w Q^-1 solves s Q = w: s_t = w_t' on kept t, then the 2x2
        # system s.x = w_0, s.y = w_1 in s_a, s_p.  With r0 = w_0 - w_t'
        # for t = xt (w_0 if x is e_a), s_p = (w_1 - w'.y' - ya r0) / d
        # and s_a = r0 - x_p s_p: w times the columns c_p and c_a, and
        # c_a = e_0 picks w_0 when x is e_a
        r0 = [one] + [ar.zero] * (m - 1)
        v = [neg(self.ya), one] + [neg(c) for c in self.y_kept]
        if self.xt is not None:
            at = 2 + self.kept.index(self.xt)
            r0[at] = neg(one)
            v[at] = ar.add(v[at], self.ya)
        cols = [ar.row_scale(ar.row(v), self.d_inv)]
        if self.xt is not None or self.xp:
            r0 = ar.row(r0)
            cols.append(ar.row_sub_scaled(r0, one, cols[0]) if self.xp
                        else r0)
        # [w c_p w c_a | w], or [w c_p | w], has s_p at 0, s_a at 1 and
        # w_t' at k + 2 + idx for k columns
        k = len(cols)
        order = [1] * m
        order[self.p] = 0
        for idx, t in enumerate(self.kept):
            order[t] = k + 2 + idx
        return ar.augment(W, cols, W, order)


def _choose_basis(ar, A, mu):
    """The level's basis for the x the module docstring names: among the
    e_i that are not eigenvectors of A, the one whose pivot has the
    least ``height``, the first on a tie, or else the first e_i + e_j
    that is not one.  The scan stops at a pivot of height 0, which none
    beats, so over a finite field, where every element has height 0, it
    scores only the first e_i that is not an eigenvector."""
    m, add, sub, entry, is_zero, height = (
        len(A), ar.add, ar.sub, ar.row_entry, ar.is_zero, ar.height)
    best = None
    for i in range(m):
        # y = (A - mu I) e_i is column i of A less mu e_i, so its pivot
        # is the last nonzero A[p][i] with p != i
        for p in range(m - 1, -1, -1):
            if p != i and not is_zero(d := entry(A[p], i)):
                break
        else:
            continue  # e_i is an eigenvector
        h = height(d)
        if best is None or h < best[0]:
            best = h, i
            if not h:
                break
    # a nonscalar A with every e_i an eigenvector is diagonal, and then
    # some e_i + e_j is not one
    for support in (combinations(range(m), 2) if best is None
                    else [(best[1],)]):
        # y = (A - mu I) x
        if len(support) == 1:
            y = [entry(row, support[0]) for row in A]
        else:
            i, j = support
            y = [add(entry(row, i), entry(row, j)) for row in A]
        for s in support:
            y[s] = sub(y[s], mu)
        basis = _Basis.extend(ar, support, y)
        if basis is not None:
            return basis


def _split(ar, A, betas, gammas, fixes):
    """Split A, given as rows of its form: the rows of (T, T^-1, L, U), or
    None when A is a scalar that no pairing of betas with gammas splits.
    Each level that fixes its basis appends its size to ``fixes``."""
    m = len(A)
    if ar.is_scalar(A):
        matched = _match_scalar(ar.mul, ar.row_entry(A[0], 0), betas, gammas)
        return None if matched is None else \
            _diagonal_split(ar, betas, matched)
    sub, mul, entry = ar.sub, ar.mul, ar.row_entry
    b1, g1 = betas[0], gammas[0]
    mu = mul(b1, g1)
    basis = _choose_basis(ar, A, mu)
    # columns 1.. of Q^-1 A Q, from the rows [A y | A's kept columns];
    # column 0 is (mu, 1, 0, ..., 0)^T
    u, *A1 = basis.solve_rows(ar.augment(
        A, [ar.row(basis.y)], A, [0] + [1 + t for t in basis.kept]))
    A1[0] = ar.row_sub_scaled(A1[0], ar.inv(mu), u)
    inner = _split(ar, A1, betas[1:], gammas[1:], fixes)
    fixed = inner is None
    if fixed:
        # A1 = lam I, lam != 0 and at least 2 x 2: basis vector 2 becomes
        # e_t + mu x, which adds mu (mu e_1 - row 1 of A1) to u and lam
        # to A1[0][1], row 1 of A1 being lam e_1
        fixes.append(m)
        lam = entry(A1[0], 0)
        lift = ar.neg(mul(mul(mu, sub(mu, lam)), ar.inv(lam)))
        u = ar.row_sub_scaled(u, lift, A1[1])
        A1[0] = ar.row_sub_scaled(A1[0], ar.neg(ar.one), A1[1])
        inner = _split(ar, A1, betas[1:], gammas[1:], fixes)
    T1, T1_inv, L1, U1 = inner
    # Q^-1 B Q = [[b1, 0], [g1^-1 e1, B1]] and Q^-1 C Q =
    # [[g1, u / b1], [0, C1]], with B1 = T1 L1 T1^-1 and C1 likewise
    top = ar.row_scale(u, ar.inv(b1))
    g1_inv = ar.inv(g1)
    L = [ar.row([b1] + [ar.zero] * (m - 1))] + [
        ar.row_push(mul(g1_inv, entry(t, 0)), r) for t, r in zip(T1_inv, L1)]
    U = [ar.row_push(g1, ar.chain([[top], T1])[0])] + [
        ar.row_push(ar.zero, r) for r in U1]
    T, T_inv = _bump(ar, T1), _bump(ar, T1_inv)
    if fixed:
        # E (1 (+) T1) and (1 (+) T1^-1) E^-1, E = I + mu e_0 e_2^T
        T[0] = ar.row_push(ar.one, ar.row_scale(T1[1], mu))
        T_inv[0] = ar.row([ar.one, ar.zero, ar.neg(mu)]
                          + [ar.zero] * (m - 3))
    return basis.left_mul(T), basis.right_div(T_inv), L, U


def _diagonal_split(arith, betas, gammas):
    """(T, T^-1, L, U) of the split diag(betas) diag(gammas), T = I."""
    T = arith.diagonal([arith.one] * len(betas))
    return T, T, arith.diagonal(betas), arith.diagonal(gammas)


def sourour_factor(A: Matrix, betas, gammas) -> SourourFactorization:
    """Split A into B C with the prescribed spectra.

    Raises ScalarInput / DeterminantMismatch on bad input; every other
    input splits, as the module docstring argues: each level peels one
    beta and one gamma off a nonscalar A, its residual keeps the
    determinant, and a scalar residual that no pairing splits is made
    nonscalar by one change of the level's basis.  The split is not
    re-checked here: a direct call returns an unchecked result, and
    ``factor_sln.factor`` verifies the certificates built from it.
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
    fixes = []
    rows = _split(field.arith, A.form(), tuple(e.rep for e in betas),
                  tuple(e.rep for e in gammas), fixes)
    return SourourFactorization(
        field, len(fixes), *(Matrix.from_form(field, X) for X in rows))

"""Reference algorithms that several test files share.

``RefIndependentSet`` and ``ref_det`` work on FieldElements with their
operators, as the library did before its algorithms moved onto the arith
classes' rows, so a test can hold a row-level algorithm to them.
``coefficients`` and ``poly_mulmod`` are the coefficient view of a
GF(p^k) rep and the polynomial product on it, and ``is_irreducible``
decides a modulus by trial division, all computed here and not by the
library.
"""

import itertools


def coefficients(F, rep) -> tuple:
    """The coefficient tuple (c_0, ..., c_(k-1)), ascending degree, of a
    GF(p^k) rep: the k base-p digits of its code, c_0 the most
    significant."""
    out = []
    for _ in range(F.k):
        rep, c = divmod(rep, F.p)
        out.append(c)
    if rep:
        raise ValueError("a code of GF(p^k) is below p^k")
    return tuple(reversed(out))


def poly_mulmod(a, b, modulus, p) -> tuple:
    """The coefficient tuple of a * b mod the monic modulus over GF(p),
    for coefficient tuples a and b."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        for i, m in enumerate(modulus):
            prod[d - k + i] -= c * m
    return tuple(c % p for c in prod[:k])


def poly_rem(a, m, p) -> tuple:
    """The remainder of a by the monic m over GF(p), both as ascending
    coefficient tuples, as len(m) - 1 coefficients in [0, p)."""
    a, d = list(a), len(m) - 1
    for top in range(len(a) - 1, d - 1, -1):
        c = a[top] % p
        for i, x in enumerate(m):
            a[top - d + i] -= c * x
    return tuple(x % p for x in a[:d])


def is_irreducible(modulus, p) -> bool:
    """Whether the monic modulus, ascending coefficients, is irreducible
    over GF(p): no monic polynomial of degree 1..k//2 divides it."""
    k = len(modulus) - 1
    return not any(
        not any(poly_rem(modulus, tail + (1,), p))
        for d in range(1, k // 2 + 1)
        for tail in itertools.product(range(p), repeat=d))


def ref_det(A):
    """det A by element-level Gaussian elimination, pivoting on the first
    nonzero entry of each column."""
    work = [list(r) for r in A.rows]
    field, n = A.field, A.n
    det = field.one()
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not work[r][col].is_zero()), None)
        if pivot is None:
            return field.zero()
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inverse()
        for r in range(col + 1, n):
            if not work[r][col].is_zero():
                factor = work[r][col] * inv
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[col])]
    return det


class RefIndependentSet:
    """A growing set of independent vectors of FieldElements: ``add``
    accepts a vector exactly when it is independent of those accepted
    before it."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if not c.is_zero():
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec) -> bool:
        red = self.reduce(vec)
        pivot = next((i for i, c in enumerate(red) if not c.is_zero()), None)
        if pivot is None:
            return False
        inv = red[pivot].inverse()
        self.rows.append([c * inv for c in red])
        self.pivots.append(pivot)
        return True

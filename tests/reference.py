"""Reference algorithms that several test files share.

``RefIndependentSet`` works on FieldElements with their operators, as
the library did before its algorithms moved onto the arith classes'
rows, so a test can hold a row-level algorithm to it.  ``coefficients``
and ``poly_mulmod`` are the coefficient view of a GF(p^k) rep and the
polynomial product on it, computed here and not by the library.
"""


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

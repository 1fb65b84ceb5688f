"""Element-level reference algorithms that several test files share.

Each works on FieldElements with their operators, as the library did
before its algorithms moved onto the arith classes' rows, so a test can
hold a row-level algorithm to it.
"""


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

"""The benchmark's four workloads and their seeded inputs.

Inputs are made with this file's own field arithmetic, never with
``u2factor.sampling`` or any other library code, so a change to the
library cannot change them.  Each input is a matrix file in the format
the CLI reads: the field spec on the first line, then n, then the rows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


class Field:
    """GF(p^k) with elements as ints 0..q-1 whose base-p digits are the
    ascending polynomial coefficients, or Q (p == 0) with Fractions."""

    def __init__(self, p: int = 0, modulus: tuple = (0, 1)):
        self.p = p
        self.k = len(modulus) - 1
        self.modulus = modulus
        self.q = p ** self.k if p else 0
        if self.k > 1:
            digits = [self._digits(a) for a in range(self.q)]
            self._add = [[self._number([(x + y) % p for x, y in zip(a, b)])
                          for b in digits] for a in digits]
            self._mul = [[self._number(self._polymulmod(a, b))
                          for b in digits] for a in digits]

    @property
    def spec(self) -> str:
        if not self.p:
            return "Q"
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.q};{','.join(map(str, self.modulus))})"

    @property
    def label(self) -> str:
        return f"GF{self.q}" if self.p else "Q"

    def _digits(self, a: int) -> list:
        out = []
        for _ in range(self.k):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def _number(self, digits) -> int:
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def _polymulmod(self, a, b) -> list:
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(len(prod) - 1, k - 1, -1):  # modulus is monic
            c = prod[top]
            for i in range(k + 1):
                prod[top - k + i] = (prod[top - k + i] - c * mod[i]) % p
        return prod[:k]

    # -- arithmetic ------------------------------------------------------
    @property
    def zero(self):
        return Fraction(0) if not self.p else 0

    @property
    def one(self):
        return Fraction(1) if not self.p else 1

    def add(self, a, b):
        if not self.p:
            return a + b
        if self.k == 1:
            return (a + b) % self.p
        return self._add[a][b]

    def neg(self, a):
        if not self.p:
            return -a
        if self.k == 1:
            return -a % self.p
        return self._number([-d % self.p for d in self._digits(a)])

    def mul(self, a, b):
        if not self.p:
            return a * b
        if self.k == 1:
            return a * b % self.p
        return self._mul[a][b]

    def inv(self, a):
        if not self.p:
            return 1 / a
        if self.k == 1:
            return pow(a, -1, self.p)
        return self._mul[a].index(1)

    def power(self, a, e: int):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def det(self, rows):
        work = [list(r) for r in rows]
        n = len(work)
        det = self.one
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                return self.zero
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = self.neg(det)
            det = self.mul(det, work[col][col])
            inv = self.inv(work[col][col])
            for r in range(col + 1, n):
                factor = self.neg(self.mul(work[r][col], inv))
                work[r] = [self.add(a, self.mul(factor, b))
                           for a, b in zip(work[r], work[col])]
        return det

    # -- exchange with the library and the CLI --------------------------
    def token(self, a) -> str:
        if self.k > 1:
            return "(" + ",".join(map(str, self._digits(a))) + ")"
        return str(a)

    def value(self, a):
        """The argument ``FieldSpec.element`` takes for this element."""
        return tuple(self._digits(a)) if self.k > 1 else a


def random_sl(field: Field, n: int, rng: random.Random):
    """A random invertible matrix with its first row divided by its
    determinant; entries are uniform over GF(q), or integers in [-5, 5]
    over Q."""
    while True:
        if field.p:
            rows = [[rng.randrange(field.q) for _ in range(n)]
                    for _ in range(n)]
        else:
            rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                    for _ in range(n)]
        det = field.det(rows)
        if det != 0:
            dinv = field.inv(det)
            rows[0] = [field.mul(a, dinv) for a in rows[0]]
            return rows


def random_scalar(field: Field, n: int, rng: random.Random):
    """lambda * I_n with lambda^n = 1, lambda != 1 whenever the field
    has such a root of unity."""
    roots = [a for a in range(2, field.q) if field.power(a, n) == 1]
    lam = rng.choice(roots) if roots else 1
    return [[lam if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class Input:
    index: int
    field: Field
    n: int
    rows: tuple
    scalar: bool = False

    @property
    def cell(self) -> str:
        return f"{self.field.label}-n{self.n}" + ("-scalar" if self.scalar else "")

    @property
    def text(self) -> str:
        lines = [self.field.spec, str(self.n)]
        lines += [" ".join(self.field.token(a) for a in r) for r in self.rows]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple    # (Field, n) of the random inputs of one round, in order
    scalars: bool   # each round ends with one scalar input as well
    cli: bool       # drive cli.main on files instead of the library

    @property
    def round_len(self) -> int:
        return len(self.cells) + self.scalars

    def inputs(self, seed: int):
        """Endless seeded input sequence, in rounds.  Every round has the
        same make-up, so statistics over whole rounds do not depend on
        how many rounds a run completes."""
        rng = random.Random(f"{self.name}:timed:{seed}")
        for i in itertools.count():
            r, j = divmod(i, self.round_len)
            if j < len(self.cells):
                field, n = self.cells[j]
                rows = random_sl(field, n, rng)
            else:
                field, n = self.cells[r % len(self.cells)]
                rows = random_scalar(field, n, rng)
            yield Input(i, field, n, tuple(map(tuple, rows)),
                        j == len(self.cells))

    def warmup_inputs(self, seed: int):
        """One random input per cell, from a stream of its own."""
        rng = random.Random(f"{self.name}:warmup:{seed}")
        return [Input(-1 - i, field, n, tuple(map(tuple, random_sl(field, n, rng))))
                for i, (field, n) in enumerate(self.cells)]


GF4 = Field(2, (1, 1, 1))
GF5 = Field(5)
GF7 = Field(7)
GF9 = Field(3, (1, 0, 1))
GF25 = Field(5, (1, 1, 1))
GF27 = Field(3, (1, 2, 0, 1))
GF31 = Field(31)
GF10007 = Field(10007)
GF100003 = Field(100003)
Q = Field()

WORKLOADS = {w.name: w for w in (
    Workload(
        "smallq-u2split",
        "prop4.5 unipotent split over GF(4..9), n 4-6, plus one scalar per "
        "round: matmul, J_n(1) blocks and is_u2 dominate, as in the slowest "
        "acceptance test",
        tuple((f, n) for f in (GF4, GF5, GF7, GF9) for n in (4, 5, 6)),
        scalars=True, cli=False),
    Workload(
        "primeq-bign",
        "prop5.2 over GF(31) and GF(10007), n 8-12: the O(n 2^n) charpoly "
        "dominates and J_n(1) blocks are never built",
        tuple((f, n) for f in (GF31, GF10007) for n in (8, 10, 12)),
        scalars=False, cli=False),
    Workload(
        "cli-coldfield",
        "one CLI factor and verify per request on a fresh field: O(q) square "
        "tables and pairings over GF(100003), plus parsing and JSON",
        # GF(100003) cells come twice a round so the median request is one
        # that pays for the large field's tables.
        tuple((f, n) for f, ns in ((GF100003, (2, 3, 4)), (GF100003, (2, 3, 4)),
                                  (GF25, (3, 4)), (GF27, (3, 4)))
              for n in ns),
        scalars=False, cli=True),
    Workload(
        "rational-height",
        "SL_n over Q, n 4-7: Fraction matmul and verify dominate and entry "
        "height sets certificate size",
        # n=6 comes twice a round so the median input is an n=6 one rather
        # than the gap between the n=5 and n=6 costs.
        tuple((Q, n) for n in (4, 5, 6, 7, 6)),
        scalars=False, cli=False),
)}

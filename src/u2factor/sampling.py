"""Seeded random SL_n samplers used by the self-test and the test suite."""

from __future__ import annotations

import random

from .field import FieldSpec
from .linalg import Matrix

# draws of a matrix before random_sl gives up finding an invertible one
MAX_TRIES = 1000


def random_sl(F: FieldSpec, n: int, rng: random.Random) -> Matrix:
    """Uniform-ish random element of SL_n(F): rejection-sample an
    invertible matrix, then divide one row by its determinant."""
    for _ in range(MAX_TRIES):
        if F.kind == "prime":
            # one _randbelow(p) per entry, as rng.choice(F.elements()) makes
            rows = [[F.element(rng.randrange(F.p)) for _ in range(n)]
                    for _ in range(n)]
        elif F.is_finite:
            elems = F.elements()
            rows = [[rng.choice(elems) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[F.element(rng.randint(-5, 5)) for _ in range(n)]
                    for _ in range(n)]
        A = Matrix(F, rows)
        det = A.det()
        if det.is_zero():
            continue
        inv = det.inverse()
        fixed = [list(r) for r in A.rows]
        fixed[0] = [e * inv for e in fixed[0]]
        return Matrix(F, fixed)
    raise RuntimeError("failed to sample an invertible matrix")

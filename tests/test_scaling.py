"""Counted-work ladders: the work of ``factor`` and ``verify`` counted,
not timed, so a hidden cost in the field size shows on any machine.

Over GF(p) every product is ``PrimeArith.chain`` and every exact
comparison ``PrimeArith.is_product``.  A test-side wrapper counts, per
ladder rung, the chain calls, their work (rows x inner x columns summed
over each pair of consecutive factors) and the ``is_product`` calls,
over seeded ``random_sl`` inputs at a fixed n.  The prime ladder runs
from 10007 to 2^61 - 1: the counts must be equal on every rung, and no
table of the field's elements or squares may be built.  Memos are
cleared before each rung, so every rung starts cold.
"""

import random

import pytest

from u2factor import factor, verify
from u2factor.field import GF, PrimeArith
from u2factor.sampling import random_sl

PRIME_LADDER = (10007, 1000003, 2 ** 31 - 1, 2 ** 61 - 1)
INPUTS = 5


def _work(mats) -> int:
    """rows x inner x columns, summed over consecutive factors."""
    return sum(len(a) * len(b) * (len(b[0]) if b else 0)
               for a, b in zip(mats, mats[1:]))


@pytest.fixture
def counts(monkeypatch):
    """Chain calls, their work and ``is_product`` calls over GF(p), as a
    dict updated while the test runs."""
    seen = {"chains": 0, "work": 0, "is_product": 0}
    chain, is_product = PrimeArith.chain, PrimeArith.is_product

    def counted_chain(self, mats):
        seen["chains"] += 1
        seen["work"] += _work(mats)
        return chain(self, mats)

    def counted_is_product(self, mats, target):
        seen["is_product"] += 1
        return is_product(self, mats, target)

    monkeypatch.setattr(PrimeArith, "chain", counted_chain)
    monkeypatch.setattr(PrimeArith, "is_product", counted_is_product)
    return seen


@pytest.mark.parametrize("n", [6, 10])
def test_prime_ladder_work_is_independent_of_p(n, counts, memos,
                                               table_calls):
    per_p = {}
    for p in PRIME_LADDER:
        for memo in memos.values():
            memo.cache_clear()
        F, rng = GF(p), random.Random(f"ladder:{n}")
        inputs = [random_sl(F, n, rng) for _ in range(INPUTS)]
        for key in counts:
            counts[key] = 0
        for A in inputs:
            cert = factor(A)
            report = verify(cert)
            assert report.passed, report.text()
        per_p[p] = dict(counts)
    first = per_p[PRIME_LADDER[0]]
    assert first["chains"] > 0 and first["is_product"] > 0
    assert all(c == first for c in per_p.values()), per_p
    assert table_calls == []

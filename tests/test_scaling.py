"""Counted-work ladders: the work of ``factor`` and ``verify`` counted,
not timed, so a hidden cost in the field size or in n shows on any
machine.

Over GF(p) every product is ``PrimeArith.chain`` and every exact
comparison ``PrimeArith.is_product``.  A test-side wrapper counts, per
ladder rung, the chain calls, their work (rows x inner x columns summed
over each pair of consecutive factors) and the ``is_product`` calls,
over seeded ``random_sl`` inputs at a fixed n.  The prime ladder runs
from 10007 to 2^61 - 1: the counts must be equal on every rung, and no
table of the field's elements or squares may be built.  Memos are
cleared before each rung, so every rung starts cold.

The unipotent ladder counts the same chains and work, over GF(4) and
GF(31), and ``rref`` calls and their rows, at n = 8, 16 and 32 on the
prop4.5 route (GF(31) takes prop5.2 at n = 8, so its ladder starts at
16).  From n to 2n each count may grow by at most 2^3 times
``UNIPOTENT_SLACK``.

The Q ladder factors one seeded ``random_sl(Q, n)`` input at n = 6, 10,
14 and 20.  The largest numerator or denominator of a certificate entry
may not grow past the bits it has had since each level of the Sourour
split took the e_i whose pivot has the fewest bits.
``RationalArith.reps``, the one whole-matrix view of a form as rows of
Fractions, is called as often as recorded, never while
``sourour_factor`` or ``diagonalize_triangular`` runs, and never by
``Matrix.inverse`` or ``unipotent_jordan``.
"""

import importlib
import random
from collections import Counter

import pytest

from u2factor import factor, linalg, verify
from u2factor.field import GF, ExtensionArith, PrimeArith, RationalArith, \
    rationals
from u2factor.sampling import random_sl

# the module, which the package's factor_sl2 function shadows
sl2_routes = importlib.import_module("u2factor.factor_sl2")

PRIME_LADDER = (10007, 1000003, 2 ** 31 - 1, 2 ** 61 - 1)
INPUTS = 5
# the unipotent (prop4.5) ladder: inputs per rung, and the slack on the
# growth of each count from n to 2n past 2^3 (chain work is n^3 per
# chain, and the chains grow about twofold)
UNIPOTENT_INPUTS = 2
UNIPOTENT_SLACK = 2
# n: the largest numerator or denominator of a certificate entry, in
# bits, of the seeded input at n
Q_LADDER = {6: 166, 10: 661, 14: 1743, 20: 6419}


def _work(mats) -> int:
    """rows x inner x columns, summed over consecutive factors."""
    return sum(len(a) * len(b) * (len(b[0]) if b else 0)
               for a, b in zip(mats, mats[1:]))


@pytest.fixture
def counts(monkeypatch):
    """Chain calls, their work and ``is_product`` calls over GF(p) and
    GF(p^k), and ``rref`` calls and their rows, as a dict updated while
    the test runs."""
    seen = dict.fromkeys(("chains", "work", "is_product", "rref",
                          "rref_rows"), 0)

    def counted_chain(chain):
        def wrapped(self, mats):
            seen["chains"] += 1
            seen["work"] += _work(mats)
            return chain(self, mats)
        return wrapped

    def counted_is_product(is_product):
        def wrapped(self, mats, target):
            seen["is_product"] += 1
            return is_product(self, mats, target)
        return wrapped

    rref = linalg.rref

    def counted_rref(arith, rows, limit):
        rows = list(rows)
        seen["rref"] += 1
        seen["rref_rows"] += len(rows)
        return rref(arith, rows, limit)

    for kind in (PrimeArith, ExtensionArith):
        monkeypatch.setattr(kind, "chain", counted_chain(kind.chain))
        monkeypatch.setattr(kind, "is_product",
                            counted_is_product(kind.is_product))
    monkeypatch.setattr(linalg, "rref", counted_rref)
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


@pytest.mark.parametrize("q, ns", [(4, (8, 16, 32)), (31, (16, 32))],
                         ids=["GF(4)", "GF(31)"])
def test_unipotent_ladder_growth_is_bounded(q, ns, counts, memos):
    per_n = {}
    for n in ns:
        for memo in memos.values():
            memo.cache_clear()
        F, rng = GF(q), random.Random(f"ladder:{n}")
        inputs = [random_sl(F, n, rng) for _ in range(UNIPOTENT_INPUTS)]
        for key in counts:
            counts[key] = 0
        for A in inputs:
            cert = factor(A)
            report = verify(cert)
            assert report.passed, report.text()
            assert f"prop4.5(n={n})" in cert.route, cert.route
        per_n[n] = dict(counts)
    for n in ns[1:]:
        small, large = per_n[n // 2], per_n[n]
        for key in ("chains", "work", "rref", "rref_rows"):
            assert 0 < large[key] <= 2 ** 3 * UNIPOTENT_SLACK * small[key], \
                (key, per_n)


def _entry_bits(cert) -> int:
    """The largest numerator or denominator of an entry of a pair member,
    in bits."""
    return max(abs(int(part)).bit_length()
               for pair in cert.pairs for member in (pair.x, pair.y)
               for row in member.tokens() for token in row
               for part in token.split("/"))


@pytest.fixture
def reps_calls(monkeypatch):
    """Calls of ``RationalArith.reps`` ("reps"), and runs of the route's
    ``sourour_factor`` and ``diagonalize_triangular`` ("stages"), as a
    Counter updated while the test runs."""
    seen = Counter()

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("sourour_factor", "diagonalize_triangular"):
        monkeypatch.setattr(sl2_routes, name,
                            counted("stages", getattr(sl2_routes, name)))
    monkeypatch.setattr(RationalArith, "reps",
                        counted("reps", RationalArith.reps))
    return seen


@pytest.mark.parametrize("n", sorted(Q_LADDER))
def test_rational_ladder(n, reps_calls, memos):
    A = random_sl(rationals(), n, random.Random(f"ladder:{n}"))
    reps_calls.clear()  # random_sl reads the entries
    cert = factor(A)
    report = verify(cert)
    assert report.passed, report.text()
    assert f"prop5.2(n={n})" in cert.route
    assert _entry_bits(cert) <= Q_LADDER[n]
    assert reps_calls["stages"] == 3  # one split, two diagonalizations
    # factor and verify build no Fraction view of a matrix
    assert reps_calls["reps"] == 0, reps_calls


def test_rational_eliminations_read_no_fractions(reps_calls):
    Q = rationals()
    rng = random.Random("eliminations")
    one = Q.one()
    inputs = []
    for n in (3, 6):
        P = random_sl(Q, n, rng)
        J = linalg.direct_sum(linalg.jordan_block(Q, n - 1, one),
                              linalg.identity(Q, 1))
        inputs.append((P, J))
    reps_calls.clear()
    for P, J in inputs:
        P_inv = P.inverse()
        A = P @ J @ P_inv
        jd = linalg.unipotent_jordan(A)
        assert P @ P_inv == linalg.identity(Q, P.n)
        assert jd.partition == (P.n - 1, 1)
        assert jd.transform @ A @ jd.transform_inverse == jd.form
    assert reps_calls["reps"] == 0
    # the counter does see a read of the entries
    A.rows
    assert reps_calls["reps"] == 1

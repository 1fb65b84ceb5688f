"""SL_10(Q) at scale: the seed-1 ``random_sl`` input factors and verifies,
and its certificate keeps its entries short.

Over Q, ``similarity_to_diagonal`` scales each eigenvector to a primitive
integer vector.  Without that scale this input's largest entry had 5135
bits and its certificate 684 KB; with it they are 1295 bits and about
248 KB.  The bounds below sit a little above the scaled figures.  The
checks are plain ``if`` statements, so they still check under
``python -O``.
"""

import random

import pytest

from u2factor import factor, factorization_to_json, rationals, verify
from u2factor.sampling import random_sl

MAX_ENTRY_BITS = 1500
MAX_CERT_BYTES = 300_000


@pytest.fixture(scope="module")
def q10():
    A = random_sl(rationals(), 10, random.Random(1))
    return A, factor(A)


def _entry_bits(f):
    mats = [f.target] + [m for p in f.pairs for m in (p.x, p.y)]
    return max(max(abs(e.rep.numerator).bit_length(),
                   e.rep.denominator.bit_length())
               for m in mats for r in m.rows for e in r)


def test_q10_factors_and_verifies(q10):
    A, f = q10
    report = verify(f)
    if not report.passed:
        pytest.fail(report.text())
    if f.target != A:
        pytest.fail("the certificate's target is not the input")


def test_q10_entries_and_certificate_stay_short(q10):
    _, f = q10
    bits = _entry_bits(f)
    if bits >= MAX_ENTRY_BITS:
        pytest.fail(f"largest entry has {bits} bits, bound {MAX_ENTRY_BITS}")
    size = len(factorization_to_json(f).encode("utf-8"))
    if size >= MAX_CERT_BYTES:
        pytest.fail(f"certificate has {size} bytes, bound {MAX_CERT_BYTES}")

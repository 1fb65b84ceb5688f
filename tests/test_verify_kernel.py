"""``verify`` on raw reps reports exactly what the Matrix-level check
reports.

``reference_verify`` below is the check written with ``Matrix`` and
``FieldElement`` operations: X - I and (X - I)^2 for the U2 test,
X Y (2I - X)(2I - Y) for the commutator, Gaussian elimination on
elements for its determinant, and a running ``Matrix`` product compared
with the target.  Every golden certificate, seeded certificates over
GF(2^k) (where 2I - X = X), GF(p) and Q with entries of 500 bits and
more, and tampered certificates (every golden certificate among them,
once with a target entry and once with an entry of pair[0].X off by
one) must give the same report entries, in the same order and with the
same details.  A pair over another field or of another size must raise
the same exception in both.  ``verify``
skips the det of a pair whose members both pass the U2 test, so random
U2 pairs built without ``factor`` check the argument itself: their
commutator has det 1 by element-level elimination.  The checks are
plain ``if`` statements, so they still run under ``python -O``.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from u2factor import GF, factor, rationals
from u2factor.linalg import Matrix, diagonal, identity
from u2factor.sampling import random_sl
from u2factor.unipotent import (CommutatorPair, Factorization, Report,
                                conjugate_factorization, is_u2,
                                unchecked_factorization_from_json, verify)

from reference import ref_det

GOLDEN = Path(__file__).resolve().parent / "golden"


# -- the reference, on Matrix and FieldElement operations -------------------

def _ref_is_u2(A):
    N = A - identity(A.field, A.n)
    return not N.is_zero() and (N @ N).is_zero()


def _ref_value(X, Y):
    one = identity(X.field, X.n)
    return X @ Y @ (one + one - X) @ (one + one - Y)


def reference_verify(f):
    report = Report()
    one = f.target.field.one()
    product = identity(f.target.field, f.target.n)
    for i, pair in enumerate(f.pairs):
        for name, m in ((f"pair[{i}].X", pair.x), (f"pair[{i}].Y", pair.y)):
            ok = _ref_is_u2(m)
            report.record(f"{name} is U2", ok,
                          "" if ok else "index condition fails")
        value = _ref_value(pair.x, pair.y)
        det = ref_det(value)
        report.record(f"pair[{i}] value det=1", det == one,
                      "" if det == one else f"det={det.token()}")
        product = product @ value
    prod_ok = product == f.target
    report.record("product equals target", prod_ok,
                  "" if prod_ok else "recomposition mismatch")
    return report


def _same_report(f):
    """Both reports, after failing the test if their entries differ."""
    got, want = verify(f), reference_verify(f)
    if got.entries != want.entries:
        pytest.fail(f"verify gave {got.entries}, the reference {want.entries}")
    return got


def _failed_names(report):
    return [name for name, _ in report.failures()]


# -- inputs ------------------------------------------------------------------

GOLDEN_CASES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def _golden(case):
    return unchecked_factorization_from_json(
        (GOLDEN / f"{case}.json").read_text(encoding="utf-8"))


def _seeded(F, n, count, seed=6):
    rng = random.Random(f"{seed}-{F.spec_string()}-{n}")
    return [factor(random_sl(F, n, rng)) for _ in range(count)]


def _big_rational(n=3, bits=500, seed=6):
    """A Q certificate conjugated by a unit upper triangular P whose
    entries above the diagonal have ``bits`` bits."""
    Q = rationals()
    rng = random.Random(seed)
    f = factor(random_sl(Q, n, rng))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rng.getrandbits(bits) | 1 << (bits - 1)
    P = Matrix.from_ints(Q, rows)
    return conjugate_factorization(f, P, P.inverse())


def _entry_bits(f):
    return max(max(abs(e.rep.numerator).bit_length(),
                   e.rep.denominator.bit_length())
               for pair in f.pairs for m in (pair.x, pair.y)
               for r in m.rows for e in r)


def _with_pair(f, i, x=None, y=None):
    pairs = list(f.pairs)
    p = pairs[i]
    pairs[i] = CommutatorPair.unchecked(p.x if x is None else x,
                                        p.y if y is None else y)
    return Factorization(f.target, pairs, f.route)


def _odd_cert():
    return _seeded(GF(7), 4, 1)[0]


# -- valid certificates --------------------------------------------------------

def test_golden_corpus_present():
    if len(GOLDEN_CASES) < 60:
        pytest.fail(f"only {len(GOLDEN_CASES)} golden certificates found")


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_certificates(case):
    if not _same_report(_golden(case)).passed:
        pytest.fail(f"{case}: a golden certificate failed verify")


def _plus_one(m, i, j):
    """m with one added to entry (i, j)."""
    arith, rows = m.field.arith, m.reps()
    rows[i][j] = arith.add(rows[i][j], arith.one)
    return Matrix.from_reps(m.field, rows)


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_golden_certificates_tampered(case):
    """One target entry off by one fails only the product check, and one
    entry of pair[0].X off by one fails; both as the reference reports."""
    f = _golden(case)
    n = f.target.n
    report = _same_report(Factorization(_plus_one(f.target, n - 1, 0),
                                        f.pairs, f.route))
    if _failed_names(report) != ["product equals target"]:
        pytest.fail(f"{case}: a target off by one should fail only the "
                    f"product check, got {_failed_names(report)}")
    if f.pairs:
        tampered = _with_pair(f, 0, x=_plus_one(f.pairs[0].x, 0, n - 1))
        if _same_report(tampered).passed:
            pytest.fail(f"{case}: pair[0].X off by one passed")


@pytest.mark.parametrize("q,n", [(4, 4), (8, 3), (16, 3)])
def test_characteristic_two(q, n):
    for f in _seeded(GF(q), n, 3):
        x = f.pairs[0].x if f.pairs else None
        if x is not None:
            one = identity(x.field, x.n)
            if one + one - x != x:
                pytest.fail("2I - X should equal X in characteristic 2")
        if not _same_report(f).passed:
            pytest.fail(f"a GF({q}) certificate failed verify")


@pytest.mark.parametrize("p,n", [(7, 5), (31, 8), (10007, 6)])
def test_prime_fields(p, n):
    for f in _seeded(GF(p), n, 3):
        if not _same_report(f).passed:
            pytest.fail(f"a GF({p}) certificate failed verify")


def test_rationals_with_500_bit_entries():
    f = _big_rational()
    if _entry_bits(f) < 500:
        pytest.fail(f"entries have only {_entry_bits(f)} bits")
    if not _same_report(f).passed:
        pytest.fail("the conjugated Q certificate failed verify")


# -- the det argument: U2 members make det [X, Y] = 1 ----------------------------

PROPERTY_FIELDS = (GF(2), GF(4), GF(9), GF(31), rationals())


def _entries(F, nonzero=False):
    if F.is_finite:
        return st.sampled_from(F.nonzero_elements() if nonzero
                               else F.elements())
    values = st.fractions(-5, 5, max_denominator=6)
    if nonzero:
        values = values.filter(bool)
    return values.map(F.element)


@st.composite
def _u2_matrix(draw, F, n):
    """I + u v^T with v^T u = 0 and u, v != 0, so that N = u v^T is
    nonzero and N^2 = u (v^T u) v^T = 0.  u_j and v_k are nonzero for
    some j != k, and v_j is solved for from v^T u = 0."""
    j = draw(st.integers(0, n - 1))
    k = (j + draw(st.integers(1, n - 1))) % n
    u = [draw(_entries(F, nonzero=i == j)) for i in range(n)]
    v = [draw(_entries(F, nonzero=i == k)) for i in range(n)]
    v[j] = -sum((v[i] * u[i] for i in range(n) if i != j), F.zero()) / u[j]
    return identity(F, n) + Matrix(F, [[a * b for b in v] for a in u])


@pytest.mark.parametrize("F", PROPERTY_FIELDS, ids=lambda F: F.spec_string())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_u2_pairs_have_det_one(F, data):
    n = data.draw(st.integers(2, 4), label="n")
    pairs = [CommutatorPair.unchecked(data.draw(_u2_matrix(F, n)),
                                      data.draw(_u2_matrix(F, n)))
             for _ in range(data.draw(st.integers(1, 3), label="pairs"))]
    target = identity(F, n)
    for p in pairs:
        if not (_ref_is_u2(p.x) and _ref_is_u2(p.y)):
            pytest.fail(f"I + u v^T with v^T u = 0 should be U2: {p}")
        value = _ref_value(p.x, p.y)
        if ref_det(value) != F.one():
            pytest.fail(f"det [X, Y] should be 1 for U2 X and Y: {p}")
        target = target @ value
    if not _same_report(Factorization(target, pairs, ())).passed:
        pytest.fail("a certificate of U2 pairs and their product failed")


# -- tampered certificates -------------------------------------------------------

def test_two_i_fails_u2_and_det():
    f = _odd_cert()
    two_i = diagonal(GF(7), [GF(7).element(2)] * 4)
    report = _same_report(_with_pair(f, 0, x=two_i))
    failed = _failed_names(report)
    if "pair[0].X is U2" not in failed or "pair[0] value det=1" not in failed:
        pytest.fail(f"X = 2I should fail 'is U2' and 'det=1', got {failed}")


def test_non_u2_y_fails_u2_and_det():
    """X stays U2 and Y = 3I is not, so ``verify`` takes the det of
    X 3I (2I - X)(-I) = -3I, which is (-3)^4 = 4 over GF(7)."""
    f = _odd_cert()
    three_i = diagonal(GF(7), [GF(7).element(3)] * 4)
    report = _same_report(_with_pair(f, 0, y=three_i))
    failed = _failed_names(report)
    if ("pair[0].X is U2" in failed or "pair[0].Y is U2" not in failed
            or "pair[0] value det=1" not in failed):
        pytest.fail(f"Y = 3I should fail 'is U2' and 'det=1', got {failed}")
    if ("pair[0] value det=1", False, "det=4") not in report.entries:
        pytest.fail(f"Y = 3I should give det=4, got {report.entries}")


def test_identity_member_fails_u2_only():
    f = _odd_cert()
    report = _same_report(_with_pair(f, 0, x=identity(GF(7), 4)))
    failed = _failed_names(report)
    if "pair[0].X is U2" not in failed or "pair[0] value det=1" in failed:
        pytest.fail(f"X = I should fail 'is U2' but not 'det=1', got {failed}")


def _three_pairs(F, n):
    """A certificate of three pairs taken from seeded certificates, with
    the reference's product of their values as its target."""
    pairs = []
    for seed in range(6, 12):
        pairs.extend(_seeded(F, n, 1, seed)[0].pairs)
        if len(pairs) >= 3:
            break
    pairs = pairs[:3]
    target = identity(F, n)
    for p in pairs:
        target = target @ _ref_value(p.x, p.y)
    return Factorization(target, pairs, ())


@pytest.mark.parametrize("F,n", [(GF(7), 4), (GF(9), 3), (rationals(), 3)])
def test_middle_pair_not_u2(F, n):
    """Y = 3I in the middle of three pairs: the middle value is
    X 3I (2I - X)(-I) = -3I, so that pair fails "is U2" and "det=1",
    and the product no longer equals the target."""
    f = _three_pairs(F, n)
    if not _same_report(f).passed:
        pytest.fail("the three-pair certificate should pass")
    three_i = diagonal(F, [F.element(3)] * n)
    report = _same_report(_with_pair(f, 1, y=three_i))
    want = ["pair[1].Y is U2", "pair[1] value det=1", "product equals target"]
    if _failed_names(report) != want:
        pytest.fail(f"expected {want} to fail, got {_failed_names(report)}")


@pytest.mark.parametrize("F,n", [(GF(7), 4), (GF(9), 3), (rationals(), 3)])
def test_last_pair_tampered(F, n):
    f = _three_pairs(F, n)
    last = f.pairs[-1]
    report = _same_report(_with_pair(f, len(f.pairs) - 1, x=last.y, y=last.x))
    if report.failures() != [("product equals target",
                              "recomposition mismatch")]:
        pytest.fail(f"swapping the last pair should fail only the product "
                    f"check, got {report.failures()}")


def test_four_pairs_gf4_n24():
    for f in _seeded(GF(4), 24, 2):
        if len(f.pairs) != 4:
            pytest.fail(f"expected 4 pairs, got {len(f.pairs)}")
        if not _same_report(f).passed:
            pytest.fail("a GF(4), n = 24 certificate failed verify")
        report = _same_report(_with_pair(f, 2, x=identity(GF(4), 24)))
        if _failed_names(report) != ["pair[2].X is U2",
                                     "product equals target"]:
            pytest.fail(f"X = I in pair 2 should fail 'is U2' and the "
                        f"product, got {_failed_names(report)}")


@pytest.mark.parametrize("F,n", [(GF(7), 4), (GF(9), 3), (rationals(), 3)])
def test_swapped_pair(F, n):
    for f in _seeded(F, n, 2):
        p = f.pairs[0]
        report = _same_report(_with_pair(f, 0, x=p.y, y=p.x))
        if report.passed:
            pytest.fail("swapping X and Y should change the product")


@pytest.mark.parametrize("F,n", [(GF(7), 4), (GF(9), 3), (rationals(), 3)])
def test_wrong_target(F, n):
    for f in _seeded(F, n, 2):
        bad = Factorization(f.target @ f.target, f.pairs, f.route)
        report = _same_report(bad)
        if _failed_names(report) != ["product equals target"]:
            pytest.fail(f"a wrong target should fail only the product check, "
                        f"got {_failed_names(report)}")


@pytest.mark.parametrize("F", [GF(7), GF(8), rationals()])
def test_zero_pairs(F):
    ok = _same_report(Factorization(identity(F, 3), (), ()))
    if not ok.passed or len(ok.entries) != 1:
        pytest.fail(f"no pairs and target I should pass: {ok.entries}")
    J = Matrix(F, [[F.one(), F.one()], [F.zero(), F.one()]])
    bad = _same_report(Factorization(J, (), ()))
    if bad.passed:
        pytest.fail("no pairs and a target other than I should fail")


def _raised(check, f):
    try:
        check(f)
    except Exception as exc:  # the type is compared below
        return type(exc)
    return None


MISMATCHES = ("bigger pair", "smaller pair", "bigger Y", "other field",
              "other field X")


def _mismatched(case):
    """The GF(7), n = 4 certificate with pair[0] partly or wholly replaced
    by a member of another size or field."""
    f = _odd_cert()
    other = {"bigger": _seeded(GF(7), 5, 1)[0],
             "smaller": _seeded(GF(7), 3, 1)[0],
             "other": _seeded(GF(11), 4, 1)[0]}[case.split()[0]].pairs[0]
    if case.endswith(" X"):
        return _with_pair(f, 0, x=other.x)
    if case.endswith(" Y"):
        return _with_pair(f, 0, y=other.y)
    return _with_pair(f, 0, other.x, other.y)


@pytest.mark.parametrize("case", MISMATCHES)
def test_mismatched_pair_raises(case):
    f = _mismatched(case)
    want, got = _raised(reference_verify, f), _raised(verify, f)
    if want is None or got is not want:
        pytest.fail(f"{case}: the reference raised {want}, verify {got}")


# -- the Matrix-level wrappers share the kernel ------------------------------------

@pytest.mark.parametrize("F", [GF(7), GF(9), GF(8), rationals()])
def test_wrappers_match_reference(F):
    rng = random.Random(3)
    for f in _seeded(F, 4, 2):
        if f.product() != f.target:
            pytest.fail("Factorization.product differs from the target")
        for p in f.pairs:
            if p.value() != _ref_value(p.x, p.y):
                pytest.fail("CommutatorPair.value differs from the reference")
            if not (is_u2(p.x) and is_u2(p.y)):
                pytest.fail("is_u2 rejects a certificate member")
    for _ in range(20):
        vals = [0, 0, 1] if F.is_finite else [0, 0, 1, Fraction(-2, 3)]
        A = Matrix(F, [[F.element(rng.choice(vals + [rng.randrange(5)]))
                        for _ in range(4)] for _ in range(4)])
        if A.det() != ref_det(A):
            pytest.fail(f"Matrix.det differs from the reference on {A}")
        if is_u2(A) != _ref_is_u2(A):
            pytest.fail(f"is_u2 differs from the reference on {A}")

"""Cross-checks of ``Matrix.__matmul__``, the arith classes' ``chain``
and the extension-field tables.

``@`` computes on raw reps through the field's arithmetic class, as a
``chain`` of two, the only product each class has.  Here its results
must equal a naive triple loop of element operations, and
extension-field element products must equal plain polynomial products
reduced by the modulus, computed in this file.  Over GF(p) the products
on both sides of ``_PACK_MIN`` are checked, the packed one with the
largest slot sums and with operands that are not square.  Over GF(p^k)
the packed product is checked in every shape, with every coefficient
p - 1 in both operands, on moduli that need the most folds.

``chain``, a product of several factors evaluated right to left with no
reduction between steps, must equal a left-to-right fold of the naive
product on every kind: chains of 1 to 16 factors, rectangular and empty
factors, every coefficient p - 1 in every factor (the largest slot sums
the chain's width allows), and Q chains whose reduced result has far
fewer bits than their factors.  ``chain`` takes and returns each kind's
matrix form, rows of reps over a finite field and canonical integer
rows over Q, so the checks go through ``form`` and ``reps``.  Over Q
the chain's form must be canonical (positive denominators, each row in
lowest terms, a zero row over 1) and equal the form of the fold, and a
square product must be ``==`` and hash equal to the matrix built from
the fold's Fractions.  Two further Q operand families run through the
chain and is_product cases: rows over unrelated 64-bit and 500-bit
denominators, and negative entries with zero rows, both also in 1 x k
and k x 1 shapes.

``is_product``, the chain's equality test that never cuts the product
into reps, must agree with ``chain(mats) == target``: on chains of 1 to
5 factors with every coefficient p - 1 and with random entries, on the
product itself, the zero matrix, random targets and targets off in one
entry (every position at n = 3, every nonzero residue for p <= 31, every
nonzero multiple of each coefficient over GF(p^k)), on rectangular and
empty chains and targets of the wrong shape, and over Q on negative
entries, products that cancel to zero and targets whose entries have
unrelated reduced denominators.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from u2factor.field import GF, FieldElement, FieldMismatch, _MR_LIMIT, \
    _PACK_MIN, parse_field_spec, rationals
from u2factor.linalg import Matrix, chain_product, identity

from reference import coefficients, poly_mulmod

GF256 = "GF(256;1,1,0,1,1,0,0,0,1)"
# x^k mod f has degree k - 1 for these user moduli, so ``chain`` folds
# k - 1 times: the most for their degree
GF8_TOP, GF243_TOP = "GF(8;1,0,1,1)", "GF(243;1,0,0,0,2,1)"
EXTENSIONS = ["GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(25)", "GF(27)",
              GF256, GF8_TOP, GF243_TOP]
# the largest prime below 2^80, an 80-bit modulus below _MR_LIMIT
P80 = 2 ** 80 - 65
PRIMES = (2, 3, 31, 10007, 2 ** 31 - 1, 2 ** 61 - 1, P80)
FIELDS = ["GF(2)", "GF(3)", "GF(2147483647)", "GF(4)", "GF(8)", "GF(9)",
          "GF(16)", "GF(25)", "GF(27)", GF256, "Q"]
SIZES = (1, 2, 3, 5, 8)


def random_entry(F, rng):
    if rng.random() < 0.25:
        return F.zero()
    if F.kind == "rational":
        sign = rng.choice((-1, 1))
        return F.element(Fraction(sign * rng.getrandbits(500),
                                  rng.getrandbits(500) + 1))
    if F.kind == "prime":
        return F.element(rng.randrange(F.p))
    return F.element(tuple(rng.randrange(F.p) for _ in range(F.k)))


def random_matrix(F, n, rng):
    return Matrix(F, [[random_entry(F, rng) for _ in range(n)]
                      for _ in range(n)])


def naive_product(A, B):
    """Rows of A @ B by element operations, left to right."""
    n = A.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = A[i, 0] * B[0, j]
            for t in range(1, n):
                acc = acc + A[i, t] * B[t, j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def assert_same_entries(got, want):
    assert got.rows == want
    for rg, rw in zip(got.rows, want):
        for g, w in zip(rg, rw):
            assert type(g.rep) is type(w.rep)
            assert g.field is got.field


@pytest.mark.parametrize("spec", FIELDS)
def test_matmul_matches_element_loop(spec):
    F = parse_field_spec(spec)
    rng = random.Random(spec)
    for n in SIZES:
        for _ in range(3):
            A, B = random_matrix(F, n, rng), random_matrix(F, n, rng)
            assert_same_entries(A @ B, naive_product(A, B))


@pytest.mark.parametrize("spec", [s for s in FIELDS if s.startswith("GF(")
                                  and parse_field_spec(s).kind == "extension"]
                         + [f"GF({p})" for p in PRIMES])
def test_matmul_largest_coefficient_sums(spec):
    # Every coefficient of every entry of both operands is p - 1, so each
    # packed slot reaches its largest sum: n (p - 1)^2 over GF(p), below
    # and above _PACK_MIN, and n k (p - 1)^2 before the folds over GF(p^k).
    F = parse_field_spec(spec)
    top = F.element(F.p - 1 if F.kind == "prime" else (F.p - 1,) * F.k)
    for n in (1, 2, 3, 4, 7, 8, 9, 16, 17, _PACK_MIN - 1, _PACK_MIN):
        A = Matrix(F, [[top] * n for _ in range(n)])
        B = Matrix(F, [[top] * n for _ in range(n)])
        assert_same_entries(A @ B, naive_product(A, B))


def naive_rep_product(F, a, b):
    """Rows of reps of a @ b for rectangular a and b given as rows of
    reps, by element operations; an empty b has no columns."""
    cols = list(zip(*b))
    out = []
    for r in a:
        row = []
        for c in cols:
            acc = F.zero()
            for x, y in zip(r, c):
                acc = acc + FieldElement(F, x) * FieldElement(F, y)
            row.append(acc.rep)
        out.append(row)
    return out


def naive_chain(F, mats):
    """Rows of reps of mats[0] @ ... @ mats[-1], folded left to right
    with ``naive_rep_product``."""
    acc = [list(r) for r in mats[0]]
    for m in mats[1:]:
        acc = naive_rep_product(F, acc, m)
    return acc


CHAIN_FIELDS = ["GF(2)", "GF(3)", "GF(31)", "GF(2147483647)", "GF(4)",
                "GF(8)", "GF(9)", "GF(27)", GF256, GF8_TOP, GF243_TOP, "Q"]
CHAIN_LENGTHS = (1, 2, 3, 5, 8, 16)
CHAIN_SIZES = (1, 3, 9, 17)
# Q operand families beyond "Q"'s small fractions (``chain_operands``):
# every row over its own denominator, 64 or 500 bits and unrelated to
# the others', and negative entries with whole zero rows.  The naive
# fold of the unrelated denominators grows fast, so these families run
# chains of at most Q_FAMILY_MAX factors of size at most Q_FAMILY_MAX**2.
Q_FAMILIES = ["Q-unrelated", "Q-negative"]
Q_FAMILY_MAX = 3


def field_of(spec):
    """The field of a CHAIN_FIELDS or Q_FAMILIES parameter."""
    return rationals() if spec in Q_FAMILIES else parse_field_spec(spec)


def in_budget(spec, length, n) -> bool:
    """Whether a chain of ``length`` factors of size n runs for spec."""
    return spec not in Q_FAMILIES or (length <= Q_FAMILY_MAX
                                      and n <= Q_FAMILY_MAX ** 2)


def chain_reps(F, mats):
    """Rows of reps of ``chain`` of the forms of mats."""
    arith = F.arith
    return arith.reps(arith.chain([arith.form(m) for m in mats]))


def top_rep(F):
    """The rep with every coefficient p - 1 over a finite field, and a
    40-bit fraction over Q."""
    if F.kind == "prime":
        return F.p - 1
    if F.kind == "extension":
        return F.arith.coerce((F.p - 1,) * F.k)
    return Fraction(-(2 ** 40 - 1), 2 ** 39 + 1)


def chain_operands(F, rng, shape, top, family=None):
    """Factors of the given (rows, columns) shapes, every entry top_rep
    or every entry random.  A random Q entry has a numerator of up to 40
    bits over a denominator of at most 9, so the fold's Fractions grow
    linearly in the number of factors and 16 factors of size 17 stay
    cheap.  A Q family (Q_FAMILIES) makes random rows of its own."""
    if family == "Q-unrelated":
        def row(c):
            den = rng.getrandbits(rng.choice((64, 500))) | 1
            return [Fraction(rng.randint(-2 ** 64, 2 ** 64), den)
                    if rng.random() < 0.8 else Fraction(0)
                    for _ in range(c)]
    elif family == "Q-negative":
        def row(c):
            if rng.random() < 0.3:
                return [Fraction(0)] * c
            return [-Fraction(rng.getrandbits(40) + 1, rng.randint(1, 9))
                    for _ in range(c)]
    if family:
        return [[row(c) for _ in range(r)] for r, c in shape]

    def entry():
        if top:
            return top_rep(F)
        if F.kind != "rational":
            return random_entry(F, rng).rep
        if rng.random() < 0.25:
            return Fraction(0)
        return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 9))
    return [[[entry() for _ in range(c)] for _ in range(r)]
            for r, c in shape]


def assert_chain(F, mats):
    arith = F.arith
    form = arith.chain([arith.form(m) for m in mats])
    got, want = arith.reps(form), naive_chain(F, mats)
    assert got == want
    assert all(type(r) is list for r in got)
    rep_type = type(F.zero().rep)
    assert all(type(x) is rep_type for r in got for x in r)
    if F.kind != "rational":
        return
    assert form == arith.form(want)
    assert type(form) is tuple
    for d, r in form:
        assert type(r) is tuple and d > 0 and math.gcd(d, *r) == 1
        assert any(r) or d == 1
    if len(want) == (len(mats[-1][0]) if mats[-1] else 0):  # square
        built = Matrix.from_reps(F, want)
        chained = Matrix.from_form(F, form)
        assert chained == built and hash(chained) == hash(built)


@pytest.mark.parametrize("spec", CHAIN_FIELDS + Q_FAMILIES)
def test_chain_matches_fold(spec):
    # Every length and size with every coefficient p - 1, where the slot
    # sums are largest; random entries too, but at the largest size only
    # for short chains, as the naive fold is the cost of this test.
    F = field_of(spec)
    family = spec if spec in Q_FAMILIES else None
    rng = random.Random(f"chain-{spec}")
    for length in CHAIN_LENGTHS:
        for n in CHAIN_SIZES:
            if not in_budget(spec, length, n):
                continue
            for top in (True, False) if n < 17 or length <= 3 else (True,):
                assert_chain(F, chain_operands(F, rng, [(n, n)] * length,
                                               top, family))


@pytest.mark.parametrize("spec", CHAIN_FIELDS + Q_FAMILIES)
def test_chain_rectangular_factors(spec):
    F = field_of(spec)
    family = spec if spec in Q_FAMILIES else None
    rng = random.Random(f"chain-rect-{spec}")
    for n in CHAIN_SIZES:
        for shape in ([(2, n), (n, 3), (3, 4)], [(1, n), (n, 1)],
                      [(n, 1), (1, n)], [(n, 2), (2, 7), (7, 1), (1, 5)]):
            for top in (True, False):
                assert_chain(F, chain_operands(F, rng, shape, top, family))


@pytest.mark.parametrize("spec", CHAIN_FIELDS)
def test_chain_empty_factors(spec):
    # An empty factor has no rows; an empty last factor has no columns,
    # so each row of the product is empty, as for a chain of two.
    F = parse_field_spec(spec)
    top = top_rep(F)

    def chain(mats):
        return chain_reps(F, mats)

    for m in (1, 4):
        a = [[top] * 3 for _ in range(m)]
        b = [[top] * 2 for _ in range(3)]
        assert chain([[[] for _ in range(m)]]) == [[] for _ in range(m)]
        assert chain([[[] for _ in range(m)], []]) == [[] for _ in range(m)]
        assert chain([a, [[] for _ in range(3)]]) == [[] for _ in range(m)]
        assert chain([a, b, [[], []]]) == [[] for _ in range(m)]
        assert chain([a, b, [[], []], []]) == [[] for _ in range(m)]
    assert chain([[]]) == []
    assert chain([[], [[top]]]) == []
    assert chain([[], [[top] * 3], [[top]] * 3]) == []


def q_bits(rows):
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
               for r in rows for x in r)


def test_q_chains_that_cancel():
    # P X P^-1 with X = P^-1 S P, and X Y X^-1 Y^-1 with commuting X and Y
    # (both polynomials in one matrix): the factors have entries of
    # hundreds of bits, the reduced results a few bits.
    Q = rationals()
    rng = random.Random("q-cancel")
    for n in (2, 3, 5):
        P = q_matrix([[Fraction(rng.getrandbits(120) + 1,
                                rng.getrandbits(120) + 1)
                       for _ in range(n)] for _ in range(n)])
        Pinv = P.inverse()
        S = q_matrix([[rng.randint(-3, 3) if j else 1 for j in range(n)]
                      for _ in range(n)])  # a column of ones: not scalar
        X = Pinv @ S @ P
        mats = [P.reps(), X.reps(), Pinv.reps()]
        got = chain_reps(Q, mats)
        assert got == naive_chain(Q, mats) == S.reps()
        assert all(type(x) is Fraction for r in got for x in r)
        assert q_bits(mats[1]) > 200 and q_bits(got) <= 2
        # the chain of the matrices' forms is S's form, built from ints
        product = chain_product(P, X, Pinv)
        assert product == S and hash(product) == hash(S)
        assert product.form() == S.form() == Q.arith.form(S.reps())

        A = q_matrix([[Fraction(rng.getrandbits(80), rng.getrandbits(80) + 1)
                       for _ in range(n)] for _ in range(n)])
        X, Y = A @ A + identity(Q, n), A @ A @ A - A
        if X.det() == 0 or Y.det() == 0:
            continue
        mats = [X.reps(), Y.reps(), X.inverse().reps(), Y.inverse().reps()]
        got = chain_reps(Q, mats)
        assert got == naive_chain(Q, mats) == identity(Q, n).reps()
        assert all(type(x) is Fraction for r in got for x in r)
        assert q_bits(mats[0]) > 100 and q_bits(got) == 1


# -- is_product: the chain compared with a target, never cut into reps ------

IS_PRODUCT_LENGTHS = (1, 2, 3, 5)


def deltas(F):
    """Nonzero reps to add to one target entry: every nonzero residue for
    p <= 31, every nonzero multiple of each coefficient over GF(p^k), a
    few values otherwise."""
    if F.kind == "prime":
        return range(1, F.p) if F.p <= 31 else (1, 2, F.p // 2, F.p - 1)
    if F.kind == "extension":
        return [F.arith.coerce(tuple(c if j == i else 0 for j in range(F.k)))
                for i in range(F.k) for c in range(1, F.p)]
    return (Fraction(1), Fraction(-1), Fraction(1, 3),
            Fraction(-7, 2 ** 70 + 1))


def off_by(F, target, i, j, delta):
    """A copy of target with delta added to entry (i, j)."""
    out = [list(r) for r in target]
    out[i][j] = F.arith.add(out[i][j], delta)
    return out


def assert_is_product(F, mats, target):
    """is_product on the forms of mats and target, checked against the
    comparison of the chain's form with the target's."""
    arith = F.arith
    forms, target = [arith.form(m) for m in mats], arith.form(target)
    got = arith.is_product(forms, target)
    assert got is (arith.chain(forms) == target)
    return got


def assert_decides_product(F, mats, positions):
    """is_product agrees with chain(mats) == target on the product, the
    zero matrix, and the product off by every delta at each position."""
    product = chain_reps(F, mats)
    assert assert_is_product(F, mats, product)
    assert_is_product(F, mats, [[F.arith.zero] * len(r) for r in product])
    for i, j in positions:
        for delta in deltas(F):
            assert not assert_is_product(F, mats,
                                         off_by(F, product, i, j, delta))


@pytest.mark.parametrize("spec", CHAIN_FIELDS + Q_FAMILIES)
def test_is_product_matches_chain(spec):
    # Every length and size, with every coefficient p - 1 (the largest
    # slots) and with random entries: every position at n = 3, and the
    # corners otherwise.
    F = field_of(spec)
    family = spec if spec in Q_FAMILIES else None
    rng = random.Random(f"is-product-{spec}")
    for length in IS_PRODUCT_LENGTHS:
        for n in CHAIN_SIZES:
            if not in_budget(spec, length, n):
                continue
            positions = (list(itertools.product(range(n), repeat=2))
                         if n == 3 else
                         sorted({(0, 0), (0, n - 1), (n - 1, 0),
                                 (n - 1, n - 1)}))
            for top in (True, False):
                mats = chain_operands(F, rng, [(n, n)] * length, top,
                                      family)
                assert_decides_product(F, mats, positions)
                target = chain_operands(F, rng, [(n, n)], False, family)[0]
                assert_is_product(F, mats, target)


@pytest.mark.parametrize("spec", CHAIN_FIELDS + Q_FAMILIES)
def test_is_product_rectangular_and_empty(spec):
    F = field_of(spec)
    family = spec if spec in Q_FAMILIES else None
    arith, top = F.arith, top_rep(F)
    rng = random.Random(f"is-product-rect-{spec}")
    for n in CHAIN_SIZES:
        for shape in ([(2, n), (n, 3), (3, 4)], [(1, n), (n, 1)],
                      [(n, 1), (1, n)], [(n, 2), (2, 7), (7, 1), (1, 5)]):
            for flag in (True, False):
                mats = chain_operands(F, rng, shape, flag, family)
                rows, cols = shape[0][0], shape[-1][1]
                assert_decides_product(F, mats, [(0, 0),
                                                 (rows - 1, cols - 1)])
                product = chain_reps(F, mats)
                # a row too many or too few, a column too many or too few
                for wrong in (product + [product[0]], product[:-1],
                              [r + [arith.zero] for r in product],
                              [r[:-1] for r in product],
                              product[:-1] + [product[-1][:-1]]):
                    assert not assert_is_product(F, mats, wrong)
    for m in (1, 4):
        a = [[top] * 3 for _ in range(m)]
        b = [[top] * 2 for _ in range(3)]
        empty_rows = [[] for _ in range(m)]
        for mats in ([empty_rows], [empty_rows, []],
                     [a, [[] for _ in range(3)]], [a, b, [[], []]],
                     [a, b, [[], []], []]):
            assert assert_is_product(F, mats, empty_rows)
            assert not assert_is_product(F, mats, [])
            assert not assert_is_product(F, mats, [[top]] * m)
    for mats in ([[]], [[], [[top]]], [[], [[top] * 3], [[top]] * 3]):
        assert assert_is_product(F, mats, [])
        assert not assert_is_product(F, mats, [[]])


def test_is_product_q_signs_cancellation_and_denominators():
    Q = rationals()
    arith, rng = Q.arith, random.Random("is-product-q")
    for n in (1, 2, 3, 6):
        # negative entries only
        mats = [[[-Fraction(rng.getrandbits(90) + 1, rng.getrandbits(60) + 1)
                  for _ in range(n)] for _ in range(n)] for _ in range(3)]
        assert_decides_product(Q, mats, [(0, 0), (n - 1, n - 1)])
        # N = u v^T with v^T u = 0 and 200-bit entries: N N cancels to 0
        u = [Fraction(rng.getrandbits(200) + 1, rng.getrandbits(200) + 1)
             for _ in range(n + 1)]
        v = [Fraction(rng.getrandbits(200) + 1, rng.getrandbits(200) + 1)
             for _ in range(n + 1)]
        v[0] = -sum(a * b for a, b in zip(u[1:], v[1:])) / u[0]
        N = [[a * b for b in v] for a in u]
        zeros = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        assert q_bits(N) > 200
        assert assert_is_product(Q, [N, N], zeros)
        assert assert_is_product(Q, [N, N, N], zeros)
        assert_decides_product(Q, [N, N], [(0, 0), (n, 0), (n, n)])
        # entries over unrelated reduced denominators, within each column
        # and across columns; the identity factor leaves them as they are
        T = [[Fraction(rng.choice((-1, 1)) * (rng.getrandbits(64) | 1),
                       rng.getrandbits(64) | 1) for _ in range(n)]
             for _ in range(n)]
        one = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for mats in ([T], [one, T], [T, one], [one, T, one]):
            assert assert_is_product(Q, mats, T)
            assert_decides_product(Q, mats, [(0, 0), (n - 1, 0)])
        # the target's denominators unrelated to the product's
        assert not assert_is_product(Q, [one], T)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_products_of_every_shape(p):
    # (rows of a, inner dimension, columns of b) on both sides of
    # _PACK_MIN, one-row and one-column products among them
    assert P80 < _MR_LIMIT and P80.bit_length() == 80
    F, rng = GF(p), random.Random(p)
    arith = F.arith
    low, high = _PACK_MIN - 1, _PACK_MIN + 2

    def rows(m, k):
        return [[rng.choice((0, p - 1, rng.randrange(p))) for _ in range(k)]
                for _ in range(m)]

    for k in (1, 3, _PACK_MIN, 9):
        for m, cols in ((1, high), (high, 1), (low, high), (high, low),
                        (high, high), (_PACK_MIN, _PACK_MIN), (1, 1)):
            a, b = rows(m, k), rows(k, cols)
            got = arith.chain([a, b])
            assert got == naive_rep_product(F, a, b)
            assert all(type(r) is list for r in got)
        # a right operand with no columns, and an empty right operand
        for m in (1, high):
            assert arith.chain([rows(m, k), [[] for _ in range(k)]]) == \
                [[] for _ in range(m)]
            assert arith.chain([[[] for _ in range(m)], []]) == \
                [[] for _ in range(m)]


def test_extension_fold_counts():
    folds = {spec: parse_field_spec(spec).arith._folds
             for spec in EXTENSIONS}
    assert folds == {"GF(4)": 1, "GF(8)": 1, "GF(9)": 1, "GF(16)": 1,
                     "GF(25)": 1, "GF(27)": 1, GF256: 2, GF8_TOP: 2,
                     GF243_TOP: 4}


@pytest.mark.parametrize("spec", EXTENSIONS)
def test_extension_products_of_every_shape(spec):
    # (rows of a, inner dimension, columns of b), one-row and one-column
    # products among them, with random operands and with every
    # coefficient of both operands p - 1, which gives the largest slot
    # sums and the largest growth under folding
    F = parse_field_spec(spec)
    arith, rng = F.arith, random.Random(spec)
    elems = [e.rep for e in F.elements()]
    top = top_rep(F)

    def rows(m, k, entry):
        return [[entry() for _ in range(k)] for _ in range(m)]

    for k in (1, 3, 5, 9, 17):
        for m, cols in ((1, k), (k, 1), (2, 7), (7, 2), (k, k), (1, 1)):
            for entry in (lambda: top, lambda: rng.choice(elems)):
                a, b = rows(m, k, entry), rows(k, cols, entry)
                got = arith.chain([a, b])
                assert got == naive_rep_product(F, a, b)
                assert all(type(r) is list for r in got)
                assert all(type(x) is int and 0 <= x < F.size
                           for r in got for x in r)
        # a right operand with no columns, and an empty right operand
        for m in (1, 4):
            assert arith.chain([rows(m, k, lambda: top),
                                [[] for _ in range(k)]]) == \
                [[] for _ in range(m)]
            assert arith.chain([[[] for _ in range(m)], []]) == \
                [[] for _ in range(m)]


@pytest.mark.parametrize("spec", EXTENSIONS)
def test_extension_neg_is_coefficientwise(spec):
    F = parse_field_spec(spec)
    for a in F.elements():
        assert coefficients(F, F.arith.neg(a.rep)) == \
            tuple(-c % F.p for c in coefficients(F, a.rep))


@pytest.mark.parametrize("spec", EXTENSIONS)
def test_extension_products_match_polynomials(spec):
    F = parse_field_spec(spec)
    elems = F.elements()
    pairs = itertools.product(elems, elems)
    if F.size > 27:
        rng = random.Random(spec)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(4000)]
    for a, b in pairs:
        assert coefficients(F, (a * b).rep) == poly_mulmod(
            coefficients(F, a.rep), coefficients(F, b.rep), F.modulus, F.p)
    one = F.one()
    for a in elems[1:]:
        assert a * a.inverse() == one


def test_matmul_across_fields_rejected():
    gf9b = GF(9, (2, 1, 1))  # x^2 + x + 2, not the built-in x^2 + 1
    pairs = [(GF(5), GF(7)), (GF(9), gf9b), (GF(4), rationals()),
             (GF(2147483647), GF(2))]
    for F, G in pairs:
        A = Matrix.from_ints(F, [[1, 0], [0, 1]])
        B = Matrix.from_ints(G, [[1, 0], [0, 1]])
        with pytest.raises(FieldMismatch):
            A @ B
        with pytest.raises(FieldMismatch):
            B @ A


# -- Q products over one common denominator per row and per column ---------

Q = rationals()


def q_matrix(rows):
    return Matrix(Q, [[Q.element(v) for v in r] for r in rows])


def assert_same_tokens(got, want):
    """Entry for entry and token for token, whatever the reps' types."""
    assert [[e.rep for e in r] for r in got.rows] == \
        [[e.rep for e in r] for r in want]
    assert got.tokens() == [[e.token() for e in r] for r in want]
    assert all(type(e.rep) is Fraction for r in got.rows for e in r)


def test_q_integer_operands():
    rng = random.Random("ints")
    for n in (1, 2, 3, 5, 8):
        A, B = (q_matrix([[rng.randint(-10**30, 10**30) for _ in range(n)]
                          for _ in range(n)]) for _ in range(2))
        got = A @ B
        assert_same_entries(got, naive_product(A, B))
        assert all(e.rep.denominator == 1 for r in got.rows for e in r)


def test_q_zero_and_identity_operands():
    rng = random.Random("zero-identity")
    for n in (1, 2, 4, 7):
        A = random_matrix(Q, n, rng)
        Z, I = q_matrix([[0] * n] * n), identity(Q, n)
        for X, Y in ((A, Z), (Z, A), (Z, Z), (A, I), (I, A), (I, I)):
            assert_same_entries(X @ Y, naive_product(X, Y))
        assert A @ I == A and I @ A == A
        assert (A @ Z).tokens() == [["0"] * n] * n


def test_q_products_cancelling_to_zero():
    # Row i of A is (x_i, y_i, ...) and column j of B is (y_j, -x_j, 0, ...)
    # scaled so that every entry with i == j cancels exactly.
    rng = random.Random("cancel")
    for n in (2, 3, 6):
        rows = [[Fraction(rng.getrandbits(200) + 1, rng.getrandbits(200) + 1)
                 for _ in range(n)] for _ in range(n)]
        A = q_matrix(rows)
        B = q_matrix([[rows[j][1] if i == 0 else -rows[j][0] if i == 1
                       else 0 for j in range(n)] for i in range(n)])
        got = A @ B
        assert_same_entries(got, naive_product(A, B))
        for i in range(n):
            rep = got[i, i].rep
            assert type(rep) is Fraction and rep == Fraction(0)
            assert rep.denominator == 1 and got[i, i].token() == "0"


def test_q_one_by_one():
    for a, b in ((Fraction(3, 7), Fraction(-14, 9)), (Fraction(0), 5),
                 (Fraction(1, 2**500 + 1), Fraction(2**500 + 1))):
        A, B = q_matrix([[a]]), q_matrix([[b]])
        assert_same_tokens(A @ B, naive_product(A, B))


def test_q_mixed_small_and_large_denominators():
    rng = random.Random("mixed-denominators")
    for n in (2, 3, 5, 8):
        def entry():
            num = rng.randint(-2**64, 2**64)
            if rng.random() < 0.5:
                return Fraction(num)
            return Fraction(num, rng.getrandbits(500) | 1 << 499)
        A, B = (q_matrix([[entry() for _ in range(n)] for _ in range(n)])
                for _ in range(2))
        assert_same_entries(A @ B, naive_product(A, B))


def test_q_int_reps_mixed_with_fractions():
    # RationalArith admits int operands; the product still comes back as
    # reduced Fractions equal to the element loop's entries.
    rng = random.Random("int-reps")
    for n in (1, 2, 3, 5):
        def rep():
            if rng.random() < 0.5:
                return rng.randint(-50, 50)
            return Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        A, B = (Matrix.from_reps(Q, [[rep() for _ in range(n)]
                                     for _ in range(n)]) for _ in range(2))
        assert_same_tokens(A @ B, naive_product(A, B))
        ints = Matrix.from_reps(Q, [[rng.randint(-9, 9) for _ in range(n)]
                                    for _ in range(n)])
        assert_same_tokens(ints @ ints, naive_product(ints, ints))

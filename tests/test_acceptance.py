"""Acceptance suite: one test per criterion, each printing a single
PASS line on success (pytest reports the failure otherwise)."""

import random

import pytest

from u2factor.field import GF, rationals
from u2factor.linalg import (Matrix, identity, diagonal, jordan_block,
                             unipotent_jordan, charpoly)
from u2factor.poly import Poly
from u2factor.unipotent import (verify, commutator, is_u2,
                                expand_to_u2_product)
from u2factor.sourour import sourour_factor
from u2factor.factor_sl2 import factor_sl2, single_commutator_test
from u2factor.factor_sln import factor, jn1_factor, scalar_factor, _jn1_xy
from u2factor.sampling import random_sl
from u2factor import oracle


def _passed(line):
    print(f"PASS: {line}")


def _checked(A):
    f = factor(A)
    report = verify(f)
    assert report.passed, report.text()
    return f


def _samples(F, n, count, seed):
    rng = random.Random(seed)
    return [random_sl(F, n, rng) for _ in range(count)]


def test_acceptance_01_group_orders():
    expected = {(2, 2): 6, (3, 2): 24, (4, 2): 60, (5, 2): 120,
                (7, 2): 336, (8, 2): 504, (9, 2): 720, (2, 3): 168}
    for (q, n), order in expected.items():
        assert oracle.sl_order(q, n) == order
        table = oracle.enumerate_group(GF(q), n)
        assert len(table) == order
    _passed("criterion 1 — group orders match the formula for "
            "n=2, q in {2,3,4,5,7,8,9} and n=3, q=2")


def test_acceptance_02_derived_subgroups():
    f2 = GF(2)
    t2 = oracle.enumerate_group(f2, 2)
    d2 = oracle.derived_subgroup(t2)
    A = Matrix.from_ints(f2, [[0, 1], [1, 1]])
    assert d2 == frozenset({t2.id_of(identity(f2, 2)), t2.id_of(A),
                            t2.id_of(A @ A)})
    lengths2 = oracle.bfs_lengths(t2)
    assert max(lengths2[i] for i in d2) == 1

    f3 = GF(3)
    t3 = oracle.enumerate_group(f3, 2)
    d3 = oracle.derived_subgroup(t3)
    assert len(d3) == 8
    i = Matrix.from_ints(f3, [[1, 1], [1, 2]])
    j = Matrix.from_ints(f3, [[0, 1], [2, 0]])
    k = Matrix.from_ints(f3, [[2, 1], [1, 1]])
    minus = Matrix.from_ints(f3, [[2, 0], [0, 2]])
    quaternions = {t3.id_of(M) for M in
                   (identity(f3, 2), minus, i, j, k,
                    minus @ i, minus @ j, minus @ k)}
    assert d3 == frozenset(quaternions)
    lengths3 = oracle.bfs_lengths(t3)
    assert max(lengths3[e] for e in d3) == 2
    assert lengths3[t3.id_of(minus)] == 2
    _passed("criterion 2 — derived subgroups: |SL2(F2)'|=3 cyclic, "
            "|SL2(F3)'|=8 quaternion, max lengths 1 and 2, length(-I)=2")


def test_acceptance_03_trace_characterization():
    for q in (2, 3, 4, 5, 7, 9):
        table = oracle.enumerate_group(GF(q), 2)
        report = oracle.check_trace_characterization(table)
        assert report.passed, (q, report.text())
    _passed("criterion 3 — length-1 nonscalars = trace test, "
            "q in {2,3,4,5,7,9}, zero exceptions")


def test_acceptance_04_sharpness_q5():
    f5 = GF(5)
    table = oracle.enumerate_group(f5, 2)
    lengths = oracle.bfs_lengths(table)
    minus = diagonal(f5, [-f5.one(), -f5.one()])
    assert lengths[table.id_of(minus)] == 3
    cert = _checked(minus)
    assert cert.pair_count() == 3
    _passed("criterion 4 — BFS length(-I)=3 over GF(5) and the "
            "dispatcher emits exactly 3 pairs")


def test_acceptance_05_sl2_bounds():
    for q in (4, 5, 7):
        bound = 3 if q == 5 else 2
        table = oracle.enumerate_group(GF(q), 2)
        for A in table.elements:
            f = factor_sl2(A)
            assert verify(f).passed
            assert f.pair_count() <= bound
    for q in (8, 9):
        F = GF(q)
        for A in _samples(F, 2, 500, seed=q):
            f = factor_sl2(A)
            assert verify(f).passed
            assert f.pair_count() <= 2
    _passed("criterion 5 — SL2 pair bounds: exhaustive q in {4,5,7} "
            "and 500 samples q in {8,9}")


def test_acceptance_06_sln_main_theorem():
    for n in (3, 4, 5):
        for q in (4, 5, 7):
            F = GF(q)
            for A in _samples(F, n, 500, seed=100 * n + q):
                cert = _checked(A)
                assert cert.pair_count() <= 4
                assert len(expand_to_u2_product(cert)) <= 8
    _passed("criterion 6 — 500 random SL_n(GF(q)) per (n,q) in "
            "{3,4,5}x{4,5,7}: <=4 pairs, <=8 U2 factors")


def test_acceptance_07_reduced_bounds():
    F8 = GF(8)
    for n in (3, 4, 5, 6):
        for A in _samples(F8, n, 200, seed=800 + n):
            cert = _checked(A)
            assert cert.pair_count() <= 2
            assert len(expand_to_u2_product(cert)) <= 4
    F9 = GF(9)
    for A in _samples(F9, 3, 200, seed=93):
        cert = _checked(A)
        assert cert.pair_count() <= 3
        assert len(expand_to_u2_product(cert)) <= 6
    _passed("criterion 7 — char-2 bound (n in {3..6}, q=8: <=2 pairs) "
            "and q=9, n=3: <=3 pairs")


def _lemma_pattern_ae(F, B, C, k):
    """Strictly block upper triangular A_e with A_{i,i+1}=B, A_{i,i+2}=C."""
    n = 2 * k
    rows = [[F.zero()] * n for _ in range(n)]

    def put(bi, bj, M):
        for r in range(2):
            for c in range(2):
                rows[2 * bi + r][2 * bj + c] = M[r, c]

    for i in range(k - 1):
        put(i, i + 1, B)
    for i in range(k - 2):
        put(i, i + 2, C)
    return Matrix(F, rows)


def _lemma_pattern_ao(F, B, C, x, ell):
    n = 2 * ell + 1
    rows = [[F.zero()] * n for _ in range(n)]
    if ell == 1:
        bx = B.apply(x)
        rows[0][2], rows[1][2] = bx
    else:
        Ae = _lemma_pattern_ae(F, B, C, ell)
        for r in range(2 * ell):
            for c in range(2 * ell):
                rows[r][c] = Ae[r, c]
        cx, bx = C.apply(x), B.apply(x)
        tail = [cx[0], cx[1], bx[0], bx[1]]
        for idx, v in enumerate(tail):
            rows[2 * ell - 4 + idx][n - 1] = v
    return Matrix(F, rows)


def test_acceptance_08_jn1_and_power_patterns():
    for q in (4, 5, 7):
        F = GF(q)
        for n in range(3, 9):
            cert = jn1_factor(n, F)
            assert verify(cert).passed
            assert cert.pair_count() <= 2
            assert cert.target == jordan_block(F, n, F.one())
            X, Y = _jn1_xy(F, n)
            jd = unipotent_jordan(commutator(X, Y))
            assert jd.partition == ((n + 1) // 2, n // 2)
    # power patterns with the fixed B, C, x
    for q in (5, 7):
        F = GF(q)
        B = Matrix.from_ints(F, [[-1, 1], [0, 1]])
        C = Matrix.from_ints(F, [[0, 0], [-1, 1]])
        x = (F.one(), F.zero())
        for k in (2, 3, 4):
            Ae = _lemma_pattern_ae(F, B, C, k)
            assert (Ae ** k).is_zero()
            top = Ae ** (k - 1)
            Bk = B ** (k - 1)
            zero = Matrix.from_ints(F, [[0, 0], [0, 0]])
            expect = _lemma_pattern_ae(F, zero, zero, k)
            rows = [list(r) for r in expect.rows]
            for r in range(2):
                for c in range(2):
                    rows[r][2 * k - 2 + c] = Bk[r, c]
            assert top == Matrix(F, rows)
        for ell in (1, 2, 3, 4):
            Ao = _lemma_pattern_ao(F, B, C, x, ell)
            assert (Ao ** (ell + 1)).is_zero()
            col = Ao ** ell
            bx = (B ** ell).apply(x)
            n = 2 * ell + 1
            rows = [[F.zero()] * n for _ in range(n)]
            rows[0][n - 1], rows[1][n - 1] = bx
            assert col == Matrix(F, rows)
    _passed("criterion 8 — J_n(1) <=2 pairs for 3<=n<=8, q in {4,5,7}; "
            "commutator Jordan type and power patterns hold")


def test_acceptance_09_scalar_routes():
    for n in (3, 4, 5, 6):
        for q in (4, 5, 7, 9, 11, 13):
            F = GF(q)
            for lam in F.nonzero_elements():
                if lam ** n != F.one():
                    continue
                cert = scalar_factor(lam, n)
                assert verify(cert).passed
                assert cert.target == diagonal(F, [lam] * n)
                if n % 2 == 1:
                    assert cert.pair_count() <= 2
                elif q == 5:
                    assert cert.pair_count() <= 4
                elif q > 2 * n + 1:
                    assert cert.pair_count() <= 3
                else:
                    assert cert.pair_count() <= 4
    _passed("criterion 9 — scalar routes verified with promised pair "
            "counts over (n,q) in {3,4,5,6}x{4,5,7,9,11,13}")


def test_acceptance_10_sourour():
    for n in (2, 3, 4):
        for q in (5, 7, 9):
            F = GF(q)
            rng = random.Random(10_000 * n + q)
            nonzero = F.nonzero_elements()
            done = 0
            while done < 200:
                A = random_sl(F, n, rng)
                if A.is_scalar():
                    continue
                vals = [rng.choice(nonzero) for _ in range(2 * n - 1)]
                prod = F.one()
                for v in vals:
                    prod = prod * v
                vals.append(A.det() * prod.inverse())
                betas, gammas = tuple(vals[:n]), tuple(vals[n:])
                split = sourour_factor(A, betas, gammas)  # no failures
                assert split.b @ split.c == A
                assert charpoly(split.b) == Poly.from_roots(F, betas)
                assert charpoly(split.c) == Poly.from_roots(F, gammas)
                done += 1
    _passed("criterion 10 — 200 random prescribed-spectrum splits per "
            "(n,q) in {2,3,4}x{5,7,9}, zero construction failures")


def test_acceptance_11_u2_census():
    for q in (2, 3, 4, 5, 7, 9):
        F = GF(q)
        table = oracle.enumerate_group(F, 2)
        brute = {eid for eid, A in enumerate(table.elements) if is_u2(A)}
        assert brute == set(table.u2_ids)
        assert len(brute) == q * q - 1
        # parameterization [[1+a, b], [c, 1-a]] with a^2 + bc = 0
        param = set()
        one = F.one()
        for a in F.elements():
            for b in F.elements():
                for c in F.elements():
                    if (a * a + b * c).is_zero():
                        M = Matrix(F, [[one + a, b], [c, one - a]])
                        if not M.is_identity():
                            param.add(table.id_of(M))
        assert param == brute
    _passed("criterion 11 — U2 census equals q^2-1 for q in "
            "{2,3,4,5,7,9}, parameterization matches brute force")


def test_acceptance_12_rational_smoke():
    F = rationals()
    four = F.element(4)
    cert = _checked(diagonal(F, [four, four.inverse()]))
    assert cert.pair_count() == 1
    assert any(r.startswith("cor3.6") for r in cert.route)

    minus = diagonal(F, [-F.one(), -F.one()])
    cert = _checked(minus)
    assert cert.pair_count() == 3
    assert any(r.startswith("prop3.12") for r in cert.route)

    # random integral SL_3(Z) matrix: product of integer shears
    rng = random.Random(12)
    rows = [[F.element(int(i == j)) for j in range(3)] for i in range(3)]
    A = Matrix(F, rows)
    for _ in range(12):
        i, j = rng.sample(range(3), 2)
        c = F.element(rng.randint(-3, 3))
        shear = [[F.element(int(r == s)) for s in range(3)] for r in range(3)]
        shear[i][j] = c
        A = A @ Matrix(F, shear)
    assert A.det() == F.one()
    assert all(e.rep.denominator == 1 for r in A.rows for e in r)
    cert = _checked(A)
    assert cert.pair_count() <= 2
    _passed("criterion 12 — Q smoke: diag(4,1/4) one pair, -I three "
            "pairs, random SL3(Q) two pairs")

import random

import pytest

from u2factor import factor_sln
from u2factor.field import GF, rationals
from u2factor.linalg import (Matrix, identity, diagonal, jordan_block,
                             direct_sum, unipotent_jordan,
                             single_block_jordan, charpoly)
from u2factor.poly import Poly
from u2factor.unipotent import verify, commutator, is_u2, \
    expand_to_u2_product
from u2factor.factor_sln import (i_plus_j21, jn1_factor, scalar_factor,
                                 nonscalar_factor, factor, promised_max_pairs,
                                 NotSLn, UnsupportedFieldSize, _jn1_xy)
from u2factor.sampling import random_sl
from u2factor.sourour import sourour_factor


def check(f):
    report = verify(f)
    assert report.passed, report.text()
    return f


def _primes(start, count):
    out, p = [], start
    while len(out) < count:
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            out.append(p)
        p += 1
    return out


class TestMemos:
    def test_memos_stay_bounded(self, memos):
        """More distinct fields than the largest memo holds: every memo
        evicts instead of growing."""
        short = {name.rsplit(".", 1)[1] for name in memos}
        assert {"diag_commutator", "neg_identity", "i_plus_j21", "jn1_factor",
                "j21_factor", "_two_i4_gf5"} <= short
        largest = max(m.cache_info().maxsize for m in memos.values())
        rng = random.Random(11)
        # GF(5) takes the unipotent split (J_n(1) blocks), GF(p >= 7) the
        # two-pair route (one diag_commutator block per field)
        for p in _primes(5, largest + 10):
            check(factor(random_sl(GF(p), 3, rng)))
        for name, memo in memos.items():
            info = memo.cache_info()
            assert info.maxsize is not None, name
            assert info.currsize <= info.maxsize, (name, info)
        assert max(m.cache_info().misses for m in memos.values()) > largest


class TestExplicitBlocks:
    @pytest.mark.parametrize("q", [2, 4, 5, 7])
    def test_i_plus_j21(self, q):
        F = GF(q)
        cert = check(i_plus_j21(F))
        assert cert.pair_count() == 1
        assert cert.target == direct_sum(identity(F, 1),
                                         jordan_block(F, 2, F.one()))

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("q", [4, 5, 7])
    def test_jn1(self, n, q):
        F = GF(q)
        cert = check(jn1_factor(n, F))
        assert cert.target == jordan_block(F, n, F.one())
        assert cert.pair_count() <= 2

    def test_jn1_rational(self):
        F = rationals()
        cert = check(jn1_factor(5, F))
        assert cert.target == jordan_block(F, 5, F.one())

    @pytest.mark.parametrize("n", range(3, 9))
    def test_xy_commutator_jordan_type(self, n):
        F = GF(7)
        X, Y = _jn1_xy(F, n)
        assert is_u2(X) and is_u2(Y)
        jd = unipotent_jordan(commutator(X, Y))
        assert jd.partition == ((n + 1) // 2, n // 2)


class TestScalars:
    @pytest.mark.parametrize("q", [4, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_scalars(self, q, n):
        F = GF(q)
        for lam in F.nonzero_elements():
            if lam ** n != F.one():
                continue
            cert = check(scalar_factor(lam, n))
            assert cert.target == diagonal(F, [lam] * n)
            if n % 2 == 1:
                assert cert.pair_count() <= 2
            elif q == 5:
                assert cert.pair_count() <= 4
            elif q > 2 * n + 1:
                assert cert.pair_count() <= 3
            else:
                assert cert.pair_count() <= 4

    def test_rational_neg_identity_even(self):
        F = rationals()
        for n in (4, 6):
            cert = check(scalar_factor(-F.one(), n))
            assert cert.pair_count() <= 3

    def test_non_sl_rejected(self):
        with pytest.raises(NotSLn):
            scalar_factor(GF(7).element(3), 4)  # 3^4 = 4 != 1 mod 7
        with pytest.raises(NotSLn):
            scalar_factor(rationals().element(2), 3)

    def test_gf5_even_routes(self):
        F = GF(5)
        minus = check(scalar_factor(-F.one(), 4))
        assert minus.pair_count() == 3
        two = check(scalar_factor(F.element(2), 4))
        assert two.pair_count() <= 4
        three = check(scalar_factor(F.element(3), 4))
        assert three.pair_count() <= 4

    def test_small_field_refused(self):
        F = GF(3)
        with pytest.raises(UnsupportedFieldSize):
            scalar_factor(-F.one(), 4)


class TestNonscalars:
    @pytest.mark.parametrize("q,n,bound", [(4, 3, 2), (4, 4, 4), (7, 3, 2),
                                           (8, 5, 2), (9, 3, 2), (5, 4, 4),
                                           (11, 4, 2), (13, 4, 2)])
    def test_threshold_bounds(self, q, n, bound, sample_sl):
        F = GF(q)
        for A in sample_sl(F, n, 6):
            if A.is_scalar():
                continue
            cert = check(nonscalar_factor(A))
            assert cert.pair_count() <= bound, (q, n, cert.route)

    def test_unipotent_split_route(self, sample_sl):
        # GF(5), n = 6: below every 2-pair threshold, must use the split
        F = GF(5)
        for A in sample_sl(F, 6, 3):
            if A.is_scalar():
                continue
            cert = check(nonscalar_factor(A))
            assert cert.pair_count() <= 4
            assert any(r.startswith("prop4.5") for r in cert.route)

    def test_unipotent_split_builds_only_parts_of_several_blocks(
            self, monkeypatch):
        # a part that is one Jordan block is read through the split's
        # triangularizing basis: it is never assembled, and
        # unipotent_jordan does not run on it; the first call of each
        # input fills the memos of the J_k(1) blocks, which do run it
        splits, jordans = [], []

        def split(*args, **kwargs):
            splits.append(sourour_factor(*args, **kwargs))
            return splits[-1]

        def jordan(M):
            jordans.append(M)
            return unipotent_jordan(M)

        monkeypatch.setattr(factor_sln, "sourour_factor", split)
        monkeypatch.setattr(factor_sln, "unipotent_jordan", jordan)
        built_counts = set()
        for q, n in ((5, 4), (5, 6), (7, 5), (9, 6)):
            F = GF(q)
            rng = random.Random(f"prop4.5-parts-{q}-{n}")
            for _ in range(6):
                A = random_sl(F, n, rng)
                if A.is_scalar():
                    continue
                first = factor(A)
                splits.clear()
                jordans.clear()
                f = factor(A)
                assert f == first and f"prop4.5(n={n})" in f.route
                (sp,) = splits
                built = [side for side, R in (("b", sp.L), ("c", sp.U))
                         if single_block_jordan(sp.T, sp.T_inv, R) is None]
                assert [side for side in "bc" if side in vars(sp)] == built
                assert jordans == [getattr(sp, side) for side in built]
                built_counts.add(len(built))
        assert built_counts >= {0, 1}

    def test_two_pair_route_tag(self, sample_sl):
        F = GF(11)
        (A,) = sample_sl(F, 3, 1)
        cert = check(nonscalar_factor(A))
        assert any(r.startswith("prop5.2") for r in cert.route)


class TestDispatcher:
    def test_det_rejected(self):
        F = GF(7)
        A = diagonal(F, [F.element(2), F.one(), F.one()])
        with pytest.raises(NotSLn):
            factor(A)

    def test_n1(self):
        cert = check(factor(identity(GF(5), 1)))
        assert cert.pair_count() == 0

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_identity_over_smallest_fields(self, q, n):
        # I_n has the empty certificate although no route covers SL_n(F_q)
        cert = check(factor(identity(GF(q), n)))
        assert cert.pair_count() == 0 and cert.route == ()

    def test_bound_promise_consistency(self, sample_sl):
        for q, n in ((4, 3), (5, 4), (7, 5), (9, 3), (8, 6), (13, 4)):
            F = GF(q)
            bound = promised_max_pairs(F, n)
            for A in sample_sl(F, n, 5):
                cert = check(factor(A))
                assert cert.pair_count() <= bound

    def test_rationals(self, sample_sl):
        F = rationals()
        for n in (2, 3, 4, 5):
            for A in sample_sl(F, n, 4):
                cert = check(factor(A))
                assert cert.pair_count() <= promised_max_pairs(F, n)

    def test_u2_expansion_bound(self, sample_sl):
        F = GF(7)
        for A in sample_sl(F, 4, 5):
            cert = check(factor(A))
            factors = expand_to_u2_product(cert)
            assert len(factors) <= 8
            acc = identity(F, 4)
            for X in factors:
                acc = acc @ X
            assert acc == A

    def test_small_field_large_n_refused(self):
        F = GF(2)
        A = jordan_block(F, 3, F.one())
        with pytest.raises(UnsupportedFieldSize):
            factor(A)

    def test_promised_bounds_table(self):
        assert promised_max_pairs(GF(2), 2) == 1
        assert promised_max_pairs(GF(3), 2) == 2
        assert promised_max_pairs(GF(5), 2) == 3
        assert promised_max_pairs(GF(7), 2) == 2
        assert promised_max_pairs(GF(4), 2) == 2
        assert promised_max_pairs(GF(8), 6) == 2   # 8 >= 2*3+2
        assert promised_max_pairs(GF(9), 3) == 3   # 9 >= 4*1+5
        assert promised_max_pairs(GF(5), 5) == 4
        assert promised_max_pairs(rationals(), 4) == 3
        with pytest.raises(UnsupportedFieldSize):
            promised_max_pairs(GF(3), 3)


class TestLargeFields:
    """Prime fields far beyond any element table: nothing on the factor
    or verify path may cost O(p)."""

    @pytest.mark.parametrize("p,n", [(1000003, 2), (1000003, 4),
                                     (2 ** 31 - 1, 4)])
    def test_factor_and_verify(self, p, n, table_calls):
        F = GF(p)
        rng = random.Random(f"large:{p}:{n}")
        for _ in range(3):
            A = random_sl(F, n, rng)
            cert = check(factor(A))
            assert cert.target == A
            assert cert.pair_count() <= promised_max_pairs(F, n)
        assert table_calls == []

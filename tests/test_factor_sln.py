import dataclasses
import importlib
import random

import pytest

from u2factor import factor_sln
from u2factor.field import (GF, rationals, parse_field_spec, PrimeArith,
                            ExtensionArith, RationalArith)
from u2factor.linalg import (Matrix, identity, diagonal, jordan_block,
                             direct_sum, unipotent_jordan,
                             single_block_jordan, charpoly)
from u2factor.poly import Poly
from u2factor.unipotent import verify, commutator, is_u2, \
    expand_to_u2_product, factorization_to_json, VerificationFailed
from u2factor.factor_sln import (i_plus_j21, jn1_factor, scalar_factor,
                                 nonscalar_factor, factor, promised_max_pairs,
                                 NotSLn, UnsupportedFieldSize, _jn1_xy)
from u2factor.sampling import random_sl
from u2factor.sourour import sourour_factor

# the module, which the package's factor_sl2 function shadows
sl2_routes = importlib.import_module("u2factor.factor_sl2")


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


# one input per split route: (field spec, n, route tag)
SPLIT_ROUTE_CASES = [("GF(10007)", 8, "prop5.2"), ("Q", 6, "prop5.2"),
                     ("GF(7)", 6, "prop4.5")]
SPLIT_ROUTE_IDS = [f"{spec}-n{n}" for spec, n, _ in SPLIT_ROUTE_CASES]


def _split_route_input(spec, n, route):
    """A seeded input over a freshly parsed field that ``factor`` sends
    through ``route``."""
    F = parse_field_spec(spec)
    A = random_sl(F, n, random.Random(f"split:{spec}:{n}"))
    if A.is_scalar() or f"{route}(n={n})" not in factor(A).route:
        pytest.fail(f"the {spec} input at n = {n} does not take {route}")
    return A


class TestSplitRoutes:
    """prop5.2 and prop4.5 (and prop3.11's generic SL_2 route, through
    the same ``split_into_diagonal_parts``) give each part the
    conjugated pairs of a fixed certificate and nothing else: the
    product is checked once, by ``factor``'s final ``verify``."""

    @pytest.mark.parametrize("spec, n, route", SPLIT_ROUTE_CASES,
                             ids=SPLIT_ROUTE_IDS)
    def test_only_the_final_verify_compares_products(self, monkeypatch,
                                                     spec, n, route):
        A = _split_route_input(spec, n, route)  # warms the memos
        calls = {"inside": 0, "outside": 0}
        in_verify = []

        def spy_is_product(is_product):
            def wrapped(self, mats, target):
                calls["inside" if in_verify else "outside"] += 1
                return is_product(self, mats, target)
            return wrapped

        def spy_verify(f):
            in_verify.append(f)
            try:
                return verify(f)
            finally:
                in_verify.pop()

        for kind in (PrimeArith, ExtensionArith, RationalArith):
            monkeypatch.setattr(kind, "is_product",
                                spy_is_product(kind.is_product))
        monkeypatch.setattr(factor_sln, "verify", spy_verify)
        cert = factor(A)
        # one U2 test per pair member, and one comparison with A
        want = {"inside": 2 * cert.pair_count() + 1, "outside": 0}
        if calls != want:
            pytest.fail(f"is_product calls {calls}, expected {want}")

    @pytest.mark.parametrize("spec, n, route", SPLIT_ROUTE_CASES,
                             ids=SPLIT_ROUTE_IDS)
    def test_no_concatenation(self, monkeypatch, spec, n, route):
        A = _split_route_input(spec, n, route)  # warms the memos
        concats = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                concats.append(args)
                return fn(*args, **kwargs)
            return wrapped

        for module in (sl2_routes, factor_sln):
            monkeypatch.setattr(module, "concat_factorizations",
                                spy(module.concat_factorizations))
        factor(A)
        if concats:
            pytest.fail(f"{route} concatenated {len(concats)} times")
        # the spy does see a route that concatenates: the odd scalar one
        F = GF(7)
        factor(diagonal(F, [F.element(2)] * 3))
        if not concats:
            pytest.fail("the spy saw no concatenation")

    @pytest.mark.parametrize("spec, n, route", SPLIT_ROUTE_CASES,
                             ids=SPLIT_ROUTE_IDS)
    def test_wrong_part_caught(self, monkeypatch, spec, n, route):
        """Each similarity handed to the split route is P scaled by 2
        with the old P^-1, so every conjugated part is wrong; the final
        check raises."""
        A = _split_route_input(spec, n, route)
        F = A.field
        two = diagonal(F, [F.element(2)] * n)
        scaled = []

        def wrong_diagonalize(*args):
            P, Pinv = diagonalize(*args)
            scaled.append(P)
            return P @ two, Pinv

        def wrong_single_block(*args):
            jd = single_block(*args)
            if jd is None:
                return None
            scaled.append(jd.transform)
            return dataclasses.replace(jd, transform=jd.transform @ two)

        diagonalize = sl2_routes.diagonalize_triangular
        single_block = factor_sln.single_block_jordan
        monkeypatch.setattr(sl2_routes, "diagonalize_triangular",
                            wrong_diagonalize)
        monkeypatch.setattr(factor_sln, "single_block_jordan",
                            wrong_single_block)
        with pytest.raises(VerificationFailed) as info:
            factor(A)
        if not scaled:
            pytest.fail("no similarity of the route was scaled")
        failed = {name for name, _ in info.value.report.failures()}
        if "product equals target" not in failed:
            pytest.fail(f"the report names {failed}")

    @pytest.mark.parametrize("spec, n, route", SPLIT_ROUTE_CASES,
                             ids=SPLIT_ROUTE_IDS)
    def test_fixed_certificates_built_once(self, memos, spec, n, route):
        name = {"prop5.2": "u2factor.factor_sln._diagonal_block",
                "prop4.5": "u2factor.factor_sln._partition_factor"}[route]
        if name not in memos:
            pytest.fail(f"{name} is not a memo the fixture finds")
        memo = memos[name]
        texts = []
        # two fields parsed apart, equal but not the same object
        for _ in range(2):
            F = parse_field_spec(spec)
            A = random_sl(F, n, random.Random(f"split:{spec}:{n}"))
            texts.append(factorization_to_json(factor(A)))
        info = memo.cache_info()
        if info.misses < 1 or info.hits < 1:
            pytest.fail(f"{name}: {info}")
        if texts[0] != texts[1] or f'"{route}(n={n})"' not in texts[0]:
            pytest.fail("the two certificates differ")

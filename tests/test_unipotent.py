import json
from itertools import combinations, permutations

import pytest

from u2factor.field import GF, parse_field_spec, rationals
from u2factor.linalg import Matrix, identity, diagonal, jordan_block, \
    direct_sum
from u2factor.unipotent import (is_unipotent_index, is_u2, commutator,
                                CommutatorPair,
                                Factorization, verify, NotU2, CertificateError,
                                invert_factorization, conjugate_factorization,
                                direct_sum_factorization,
                                identity_factorization, embed_factorization,
                                concat_factorizations, expand_to_u2_product,
                                factorization_to_json, factorization_from_json,
                                factorization_to_dict)
from u2factor.factor_sl2 import factor_sl2


def u2_census(f):
    """All U2-matrices in SL_2(F) via the (a, b, c) parameterization."""
    out = set()
    one = f.one()
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                if not (a * a + b * c).is_zero():
                    continue
                A = Matrix(f, [[one + a, b], [c, one - a]])
                if not A.is_identity():
                    out.add(A)
    return out


class TestPredicates:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_census_matches_predicate(self, q):
        f = GF(q)
        census = u2_census(f)
        assert len(census) == q * q - 1
        assert all(is_u2(A) for A in census)
        assert all(A.det() == f.one() for A in census)

    def test_index_edge_cases(self):
        f = GF(5)
        assert not is_u2(identity(f, 2))
        assert is_unipotent_index(identity(f, 3), 1)
        assert is_u2(jordan_block(f, 2, f.one()))
        J3 = jordan_block(f, 3, f.one())
        assert not is_u2(J3) and is_unipotent_index(J3, 3)

    @pytest.mark.parametrize("spec", ["GF(2)", "GF(4)", "GF(31)", "Q"])
    def test_index_matches_element_powers(self, spec):
        """is_unipotent_index(A, k) for k = 1..n against (A - I)^k by
        element operations, on J_m(1) (+) I and on each near miss with
        one extra entry above the diagonal."""
        f = parse_field_spec(spec)
        n, one, zero = 5, f.one(), f.zero()

        def element_product(A, B):
            return [[sum((A[i][t] * B[t][j] for t in range(n)), zero)
                     for j in range(n)] for i in range(n)]

        def element_index_holds(A, k):
            N = [[A[i, j] - (one if i == j else zero) for j in range(n)]
                 for i in range(n)]
            power = [[one if i == j else zero for j in range(n)]
                     for i in range(n)]
            powers = [power]
            for _ in range(k):
                power = element_product(power, N)
                powers.append(power)
            is_zero = [all(e.is_zero() for r in m for e in r)
                       for m in powers[-2:]]
            return is_zero[1] and not is_zero[0]

        for m in range(1, n + 1):
            J = direct_sum(jordan_block(f, m, one), identity(f, n - m))
            cases = [J]
            for i, j in combinations(range(n), 2):
                rows = [list(r) for r in J.rows]
                rows[i][j] = rows[i][j] + one
                cases.append(Matrix(f, rows))
            for A in cases:
                for k in range(1, n + 1):
                    assert is_unipotent_index(A, k) == \
                        element_index_holds(A, k), (A, k)
            assert [k for k in range(1, n + 1)
                    if is_unipotent_index(J, k)] == [m]

    def test_pair_validation(self):
        f = GF(5)
        good = jordan_block(f, 2, f.one())
        bad = diagonal(f, [f.element(2), f.element(3)])
        with pytest.raises(NotU2):
            CommutatorPair(good, bad)


def sample_cert(f):
    return factor_sl2(Matrix.from_ints(f, [[0, -1], [1, 3]]))


def pairwise_direct_sum(f, g):
    """The two-block direct sum as it was folded pairwise: max(r, s)
    pairs, the shorter side padded with identity blocks."""
    im, ig = identity(f.target.field, f.target.n), \
        identity(g.target.field, g.target.n)
    pairs = []
    for i in range(max(len(f.pairs), len(g.pairs))):
        fx, fy = (f.pairs[i].x, f.pairs[i].y) if i < len(f.pairs) else (im, im)
        gx, gy = (g.pairs[i].x, g.pairs[i].y) if i < len(g.pairs) else (ig, ig)
        pairs.append(CommutatorPair.unchecked(direct_sum(fx, gx),
                                              direct_sum(fy, gy)))
    return Factorization(direct_sum(f.target, g.target), pairs,
                         f.route + g.route)


def certs_with_0_1_2_pairs(f):
    """Certificates of sizes 1, 2 and 2 with 0, 1 and 2 pairs, each with
    a route of its own."""
    one = sample_cert(f)
    two = concat_factorizations(one.target @ one.target, [one, one],
                                ("twice",))
    return (Factorization(identity(f, 1), (), ("none",)), one, two)


class TestTransports:
    def test_invert(self):
        f = GF(7)
        cert = sample_cert(f)
        inv = invert_factorization(cert)
        assert inv.target == cert.target.inverse()
        assert verify(inv).passed
        # involution up to route trail
        back = invert_factorization(inv)
        assert back.target == cert.target and back.pairs == cert.pairs

    def test_conjugate(self):
        f = GF(7)
        cert = sample_cert(f)
        P = Matrix.from_ints(f, [[1, 2], [1, 3]])
        conj = conjugate_factorization(cert, P, P.inverse())
        assert conj.target == P @ cert.target @ P.inverse()
        assert verify(conj).passed

    def test_direct_sum_pads_to_max(self):
        f = GF(7)
        one_pair = sample_cert(f)
        empty = identity_factorization(f, 2)
        both = direct_sum_factorization(one_pair, empty)
        assert both.pair_count() == 1  # max(1, 0), not 1 + 0 stacking
        assert verify(both).passed
        assert both.target.n == 4
        other = direct_sum_factorization(one_pair, sample_cert(f))
        assert other.pair_count() == 1
        assert verify(other).passed

    @pytest.mark.parametrize("order", list(permutations(range(3))))
    def test_n_ary_direct_sum_is_the_pairwise_fold(self, order):
        f = GF(7)
        certs = [certs_with_0_1_2_pairs(f)[i] for i in order]
        got = direct_sum_factorization(*certs)
        want = pairwise_direct_sum(pairwise_direct_sum(certs[0], certs[1]),
                                   certs[2])
        assert got.target == want.target
        assert got.pairs == want.pairs and got.pair_count() == 2
        assert got.route == want.route
        assert got.route == sum((c.route for c in certs), ())
        assert verify(got).passed
        assert direct_sum_factorization(certs[0]) is certs[0]

    def test_direct_sum_field_mismatch(self):
        with pytest.raises(CertificateError):
            direct_sum_factorization(sample_cert(GF(7)), sample_cert(GF(5)),
                                     sample_cert(GF(7)))

    @pytest.mark.parametrize("before,after", [(0, 2), (2, 0), (0, 0)])
    def test_embed_at_an_edge(self, before, after):
        f = GF(5)
        cert = sample_cert(f)
        emb = embed_factorization(cert, before, after)
        assert emb.target == direct_sum(identity(f, before), cert.target,
                                        identity(f, after))
        assert emb.route == cert.route
        want = cert
        if before:
            want = pairwise_direct_sum(identity_factorization(f, before), want)
        if after:
            want = pairwise_direct_sum(want, identity_factorization(f, after))
        assert emb.pairs == want.pairs
        assert verify(emb).passed

    def test_embed(self):
        f = GF(5)
        cert = sample_cert(f)
        emb = embed_factorization(cert, 2, 1)
        assert emb.target.n == 5
        assert emb.target[0, 0] == f.one() and emb.target[1, 1] == f.one()
        assert verify(emb).passed

    def test_concat_checks_product(self):
        f = GF(7)
        cert = sample_cert(f)
        target = cert.target @ cert.target
        combined = concat_factorizations(target, [cert, cert])
        assert combined.pair_count() == 2
        assert verify(combined).passed
        with pytest.raises(CertificateError):
            concat_factorizations(cert.target, [cert, cert])

    def test_expand_to_u2_product(self):
        f = GF(7)
        cert = sample_cert(f)
        factors = expand_to_u2_product(cert)
        assert len(factors) == 2 * cert.pair_count()
        acc = identity(f, 2)
        for X in factors:
            assert is_u2(X)
            acc = acc @ X
        assert acc == cert.target


class TestVerification:
    def test_detects_tampering(self):
        f = GF(7)
        cert = sample_cert(f)
        bad = Factorization(cert.target @ cert.target, cert.pairs, cert.route)
        report = verify(bad)
        assert not report.passed
        assert any("product" in name for name, _ in report.failures())

    def test_report_text(self):
        report = verify(sample_cert(GF(7)))
        text = report.text()
        assert text.endswith("PASS")
        assert "is U2" in text


class TestJson:
    @pytest.mark.parametrize("field", [GF(7), GF(9), rationals()])
    def test_round_trip_byte_exact(self, field):
        if field.is_finite:
            cert = sample_cert(field)
        else:
            cert = factor_sl2(Matrix(field, [
                [field.element(4), field.zero()],
                [field.zero(), field.element(4).inverse()]]))
        payload = factorization_to_json(cert)
        again = factorization_from_json(payload)
        assert factorization_to_json(again) == payload
        assert again.target == cert.target and again.pairs == cert.pairs

    def test_round_trip_beyond_int_str_limit(self):
        # sys.get_int_max_str_digits() is 4300 by default; the tokens of
        # this certificate are longer and must still convert both ways.
        F = rationals()
        N = F.element(10 ** 4999 + 3)
        cert = factor_sl2(diagonal(F, [N, N.inverse()]))
        payload = factorization_to_json(cert)
        assert max(len(t) for row in json.loads(payload)["target"]
                   for t in row) >= 5000
        again = factorization_from_json(payload)
        assert again.target == cert.target and again.pairs == cert.pairs
        assert factorization_to_json(again) == payload

    def test_schema(self):
        cert = sample_cert(GF(7))
        d = factorization_to_dict(cert)
        assert set(d) == {"field", "n", "target", "pairs", "route"}
        assert d["field"] == "GF(7)"
        assert all(set(p) == {"x", "y"} for p in d["pairs"])
        json.dumps(d)  # serializable

    def test_corrupt_json_rejected(self):
        cert = sample_cert(GF(7))
        d = factorization_to_dict(cert)
        d["pairs"][0]["x"][0][0] = "3"  # no longer U2
        with pytest.raises(NotU2):
            factorization_from_json(json.dumps(d))

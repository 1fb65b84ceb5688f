import pytest

from u2factor.field import GF, rationals, NotASquare
from u2factor.linalg import Matrix, identity, diagonal, jordan_block, \
    ScalarInput
from u2factor.unipotent import verify
from u2factor.factor_sl2 import (single_commutator_test, trace_construction,
                                 diag_commutator, neg_identity, factor_sl2,
                                 NotSL2, OutsideDerivedSubgroup,
                                 PreconditionViolated, DegenerateValue)
from u2factor import oracle


def check(f):
    report = verify(f)
    assert report.passed, report.text()
    assert f.product() == f.target
    return f


class TestTraceTest:
    def test_companion_example(self):
        F = GF(7)
        A = Matrix.from_ints(F, [[0, 6], [1, 3]])  # tr = 3 = 2 + 1^2
        alpha = single_commutator_test(A)
        assert alpha is not None and alpha * alpha == F.one()
        cert = check(trace_construction(A, alpha))
        assert cert.pair_count() == 1
        assert cert.route[0].startswith("thm3.2(alpha=")

    def test_no_alpha(self):
        F = GF(5)
        A = jordan_block(F, 2, F.one())  # tr - 2 = 0
        assert single_commutator_test(A) is None
        B = Matrix.from_ints(F, [[0, -1], [1, 0]])  # tr - 2 = 3, nonsquare
        assert single_commutator_test(B) is None

    def test_scalar_rejected(self):
        with pytest.raises(ScalarInput):
            single_commutator_test(identity(GF(5), 2))

    def test_precondition_enforced(self):
        F = GF(7)
        A = Matrix.from_ints(F, [[0, 6], [1, 3]])
        with pytest.raises(PreconditionViolated):
            trace_construction(A, F.element(2))  # 2 + 4 != tr

    def test_agrees_with_oracle_length_one(self):
        # light version of the acceptance criterion, single field
        F = GF(5)
        table = oracle.enumerate_group(F, 2)
        lengths = oracle.bfs_lengths(table)
        for eid, A in enumerate(table.elements):
            if A.is_scalar():
                continue
            assert (single_commutator_test(A) is not None) == \
                (lengths[eid] == 1)


class TestDiagCommutator:
    def test_square_value(self):
        F = GF(7)
        cert = check(diag_commutator(F.element(4)))
        assert cert.pair_count() == 1
        assert cert.target == diagonal(F, [F.element(4), F.element(2)])
        assert cert.route[0].startswith("cor3.6(a=4,b=")

    def test_rational(self):
        F = rationals()
        cert = check(diag_commutator(F.element(4)))
        assert cert.pair_count() == 1

    def test_nonsquare_rejected(self):
        with pytest.raises(NotASquare):
            diag_commutator(GF(7).element(3))

    def test_degenerate_rejected(self):
        F = GF(7)
        for v in (0, 1, -1):
            with pytest.raises(DegenerateValue):
                diag_commutator(F.element(v))


class TestNegIdentity:
    @pytest.mark.parametrize("q,pairs", [(3, 2), (5, 3), (7, 2), (9, 2),
                                         (11, 2), (13, 2), (25, 2), (27, 2)])
    def test_finite_fields(self, q, pairs):
        F = GF(q)
        cert = check(neg_identity(F))
        assert cert.target == diagonal(F, [-F.one(), -F.one()])
        assert cert.pair_count() == pairs

    def test_rational_three_pairs(self):
        F = rationals()
        cert = check(neg_identity(F))
        assert cert.pair_count() == 3

    def test_char2_trivial(self):
        F = GF(4)
        cert = check(neg_identity(F))
        assert cert.pair_count() == 0 and cert.target.is_identity()


class TestDispatcher:
    def test_identity(self):
        cert = check(factor_sl2(identity(GF(7), 2)))
        assert cert.pair_count() == 0

    def test_det_rejected(self):
        F = GF(7)
        with pytest.raises(NotSL2):
            factor_sl2(diagonal(F, [F.element(2), F.element(2)]))
        with pytest.raises(NotSL2):
            factor_sl2(identity(F, 3))

    def test_outside_derived_subgroup(self):
        F = GF(2)
        with pytest.raises(OutsideDerivedSubgroup):
            factor_sl2(jordan_block(F, 2, F.one()))
        F3 = GF(3)
        with pytest.raises(OutsideDerivedSubgroup):
            factor_sl2(jordan_block(F3, 2, F3.one()))

    def test_small_field_derived_members(self):
        # SL_2(F_2)' = <[[0,1],[1,1]]>, all nonidentity members 1 pair
        F = GF(2)
        A = Matrix.from_ints(F, [[0, 1], [1, 1]])
        for M in (A, A @ A):
            cert = check(factor_sl2(M))
            assert cert.pair_count() == 1
            assert cert.route[0] == "thm3.8(q=2)"

    def test_quaternion_members(self):
        F = GF(3)
        i = Matrix.from_ints(F, [[1, 1], [1, 2]])
        j = Matrix.from_ints(F, [[0, 1], [2, 0]])
        k = Matrix.from_ints(F, [[2, 1], [1, 1]])
        for M in (i, j, k):
            cert = check(factor_sl2(M))
            assert cert.pair_count() == 1
        minus = check(factor_sl2(diagonal(F, [-F.one(), -F.one()])))
        assert minus.pair_count() == 2

    @pytest.mark.parametrize("q", [2, 3])
    def test_derived_subgroup_by_trace_test(self, q):
        """Over GF(2) and GF(3) factor_sl2 refuses exactly the elements
        the oracle puts outside SL_2(F)', and certifies every member with
        at most q - 1 pairs."""
        F = GF(q)
        table = oracle.enumerate_group(F, 2)
        derived = oracle.derived_subgroup(table)
        for i, A in enumerate(table.elements):
            if i in derived:
                cert = check(factor_sl2(A))
                assert cert.target == A
                assert cert.pair_count() <= q - 1, A.tokens()
            else:
                with pytest.raises(OutsideDerivedSubgroup):
                    factor_sl2(A)

    @pytest.mark.parametrize("q", [4, 5, 7])
    def test_exhaustive_small_fields(self, q):
        F = GF(q)
        bound = 3 if q == 5 else 2
        table = oracle.enumerate_group(F, 2)
        for A in table.elements:
            cert = check(factor_sl2(A))
            assert cert.pair_count() <= bound, A.tokens()

    def test_gf5_two_pair_routes(self):
        F = GF(5)
        # trace 4: tr - 2 = 2 nonsquare mod 5 -> needs two pairs
        A = Matrix.from_ints(F, [[0, -1], [1, 4]])
        cert = check(factor_sl2(A))
        assert cert.pair_count() == 2
        # unipotent J_2(1): also two pairs through the mixed route
        cert2 = check(factor_sl2(jordan_block(F, 2, F.one())))
        assert cert2.pair_count() == 2

    def test_rationals(self, sample_sl):
        F = rationals()
        for A in sample_sl(F, 2, 15):
            cert = check(factor_sl2(A))
            assert cert.pair_count() <= 3

    def test_extension_fields(self, sample_sl):
        for q in (8, 9, 16, 27):
            F = GF(q)
            for A in sample_sl(F, 2, 10):
                cert = check(factor_sl2(A))
                assert cert.pair_count() <= 2

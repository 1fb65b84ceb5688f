import itertools
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from u2factor.field import (GF, rationals, make_field, parse_field_spec,
                            parse_element, _is_prime,
                            sqrt, is_square, sum_of_two_nonzero_squares,
                            square_ne_inverse_witness, square_class_pairing,
                            FieldError, NotPrime, ReducibleModulus,
                            NoBuiltinModulus, DivisionByZero, FieldTooSmall,
                            FieldMismatch)

from reference import coefficients, is_irreducible, poly_mulmod


def _trial_division_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))


# every prime below 600, plus one where p - 1 = 2 * 5003 (p = 3 mod 4)
# and the pairing stream runs far
CROSS_CHECK_PRIMES = [p for p in range(600) if _trial_division_prime(p)] \
    + [10007]
# the extension fields of tests/test_kernel.py, built-in and user moduli
CROSS_CHECK_EXTENSIONS = ["GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(25)",
                          "GF(27)", "GF(8;1,0,1,1)", "GF(9;2,1,1)",
                          "GF(243;1,0,0,0,2,1)",
                          "GF(256;1,1,0,1,1,0,0,0,1)"]


class TestConstruction:
    def test_prime_field(self):
        f = GF(7)
        assert f.size == 7 and f.char == 7
        assert f.spec_string() == "GF(7)"

    def test_not_prime(self):
        with pytest.raises(FieldError):
            GF(6)  # 6 is not a prime power
        with pytest.raises(NotPrime):
            make_field("prime", 9)

    def test_extension_builtin(self):
        f = GF(9)
        assert f.size == 9 and f.char == 3 and f.k == 2
        assert f.spec_string() == "GF(9;1,0,1)"

    def test_extension_custom_modulus(self):
        f = GF(9, (2, 1, 1))  # x^2 + x + 2, irreducible mod 3
        assert f.size == 9
        g = f.generator()
        # g^2 = -g - 2 = 2g + 1
        assert g * g == f.element((1, 2))

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ReducibleModulus):
            GF(9, (1, 2, 1))  # x^2 + 2x + 1 = (x + 1)^2 mod 3

    def test_no_builtin_modulus(self):
        with pytest.raises(NoBuiltinModulus):
            GF(49)

    def test_spec_parsing_round_trip(self):
        for text in ("GF(7)", "GF(9;1,0,1)", "Q", "GF(4;1,1,1)"):
            f = parse_field_spec(text)
            assert f.spec_string() == text
        assert parse_field_spec("GF(8)") == GF(8)
        with pytest.raises(FieldError):
            parse_field_spec("GF(x)")

    def test_prime_field_with_modulus_rejected(self):
        # a modulus names an extension, so a prime q takes none
        for text in ("GF(7;1,2)", "GF(7;5)"):
            with pytest.raises(FieldError, match="takes no modulus"):
                parse_field_spec(text)
        with pytest.raises(FieldError, match="takes no modulus"):
            GF(7, (1, 2))

    def test_field_equality(self):
        assert GF(7) == GF(7)
        assert GF(7) != GF(5)
        assert GF(9) != GF(9, (2, 1, 1))
        assert rationals() == rationals()


class TestPrimality:
    def test_matches_trial_division(self):
        for p in range(-2, 5000):
            assert _is_prime(p) == _trial_division_prime(p), p

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to every prime base up to 7, 23 and 37
        for n in (3215031751, 3825123056546413051,
                  318665857834031151167461):
            assert not _is_prime(n)

    def test_large_primes(self):
        for p in (1000003, 2 ** 31 - 1, 2 ** 61 - 1):
            assert _is_prime(p) and GF(p).kind == "prime"
        assert GF(3 ** 3).k == 3
        with pytest.raises(FieldError):
            GF(10 ** 12)  # not a prime power
        with pytest.raises(FieldError):
            GF(2 ** 127 - 1)  # beyond the deterministic bases


class TestArithmetic:
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_prime_matches_int_mod(self, a, b):
        f = GF(11)
        x, y = f.element(a), f.element(b)
        assert (x + y).rep == (a + b) % 11
        assert (x - y).rep == (a - b) % 11
        assert (x * y).rep == (a * b) % 11

    def test_extension_field_axioms_exhaustive(self):
        f = GF(8)
        elems = f.elements()
        one, zero = f.one(), f.zero()
        for a in elems:
            assert a + zero == a and a * one == a
            if not a.is_zero():
                assert a * a.inverse() == one
        for a in elems[:4]:
            for b in elems:
                assert a * b == b * a
                for c in elems[::3]:
                    assert a * (b + c) == a * b + a * c
                    assert (a * b) * c == a * (b * c)

    def test_rational_arithmetic(self):
        f = rationals()
        a = f.element(Fraction(3, 4))
        b = f.element(Fraction(-2, 3))
        assert (a * b).rep == Fraction(-1, 2)
        assert (a / b).rep == Fraction(-9, 8)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            GF(5).zero().inverse()

    def test_pow_negative(self):
        a = GF(7).element(3)
        assert a ** -1 == a.inverse()
        assert a ** -2 == (a * a).inverse()

    def test_cross_field_mixing_rejected(self):
        with pytest.raises(FieldMismatch):
            GF(5).one() + GF(7).one()

    @pytest.mark.parametrize("spec", ["GF(7)", "GF(9)",
                                      "GF(256;1,1,0,1,1,0,0,0,1)", "Q"])
    def test_matmul_with_empty_inner_dimension(self, spec):
        # an empty right operand has no columns, so every row is empty,
        # in the chain of the factors' forms as in the entry-wise product
        arith = parse_field_spec(spec).arith

        def chain(a, b):
            got = arith.reps(arith.chain([arith.form(a), arith.form(b)]))
            assert got == [[reduce(arith.add, map(arith.mul, r, c),
                                   arith.zero) for c in zip(*b)] for r in a]
            return got

        assert chain([[]], []) == [[]]
        assert chain([[], []], []) == [[], []]
        assert chain([], []) == []

    @pytest.mark.parametrize("spec", ["GF(7)", "GF(9)", "Q"])
    def test_element_takes_fractions_exactly_and_refuses_floats(self, spec):
        f = parse_field_spec(spec)
        assert f.element(Fraction(1, 2)) * f.element(2) == f.one()
        assert f.element(Fraction(-3, 4)) * f.element(4) == f.element(-3)
        assert f.element(Fraction(6, 3)) == f.element(2)
        assert f.element(Fraction(5)) == f.element(5)
        for bad in (2.7, 0.1, 1.0, "1"):
            with pytest.raises(FieldError):
                f.element(bad)
        if f.is_finite:
            with pytest.raises(DivisionByZero):
                f.element(Fraction(1, 2 * f.p))
        if f.kind == "extension":
            assert f.element((Fraction(1, 2), 2)) == \
                f.element((2, 2))  # 1/2 = 2 in GF(3)
            assert f.element([1]) == f.one()
            with pytest.raises(FieldError):
                f.element((1.5, 2))


def code_of(F, coeffs) -> int:
    """The code of a coefficient tuple: its digits in base p, c_0 the
    most significant."""
    return reduce(lambda code, c: code * F.p + c, coeffs, 0)


def prime_factors(n):
    return {d for d in range(2, n + 1) if n % d == 0
            and all(d % e for e in range(2, d))}


class TestExtensionCodes:
    """A GF(p^k) rep is the int code of its coefficient tuple.  Every
    operation of ``ExtensionArith`` is checked on every element, or pair
    of elements, against coefficient-wise arithmetic and polynomial
    products on the coefficient view of ``tests/reference.py``."""

    @pytest.mark.parametrize("spec", CROSS_CHECK_EXTENSIONS)
    def test_every_sum_difference_and_product(self, spec):
        F = parse_field_spec(spec)
        arith, p, q = F.arith, F.p, F.size
        view = [coefficients(F, a) for a in range(q)]
        for a, ca in enumerate(view):
            assert arith.neg(a) == code_of(F, [-x % p for x in ca])
            if a:
                assert poly_mulmod(ca, view[arith.inv(a)], F.modulus, p) \
                    == view[arith.one]
            for b, cb in enumerate(view):
                assert arith.add(a, b) == code_of(
                    F, [(x + y) % p for x, y in zip(ca, cb)])
                assert arith.sub(a, b) == code_of(
                    F, [(x - y) % p for x, y in zip(ca, cb)])
                assert view[arith.mul(a, b)] == poly_mulmod(
                    ca, cb, F.modulus, p)

    @pytest.mark.parametrize("spec", CROSS_CHECK_EXTENSIONS)
    def test_row_operations_match_element_operations(self, spec):
        # every multiplier against rows holding every element, zero
        # among them, so each sum meets zero on either side
        F = parse_field_spec(spec)
        arith, elems = F.arith, F.elements()
        row = [e.rep for e in elems]
        other = row[::-1]
        assert arith.row_negate(row) == [(-e).rep for e in elems]
        for c in elems:
            got = arith.row_sub_scaled(row, c.rep, other)
            if c.is_zero():
                assert got is row
            else:
                assert got == [(e - c * f).rep
                               for e, f in zip(elems, elems[::-1])]
            assert arith.row_scale(row, c.rep) == [(c * e).rep
                                                   for e in elems]

    @pytest.mark.parametrize("spec", CROSS_CHECK_EXTENSIONS)
    def test_codes_are_the_canonical_order(self, spec):
        # code order is sorted tuple order, so the elements are the codes
        # 0, ..., q - 1; one is p^(k-1) and x is p^(k-2)
        F = parse_field_spec(spec)
        q, p, k = F.size, F.p, F.k
        view = [coefficients(F, a) for a in range(q)]
        assert view == sorted(view) == list(
            itertools.product(range(p), repeat=k))
        assert [e.rep for e in F.elements()] == list(range(q))
        assert all(type(e.rep) is int for e in F.elements())
        assert F.one().rep == p ** (k - 1) and F.zero().rep == 0
        assert view[F.generator().rep] == (0, 1) + (0,) * (k - 2)

    @pytest.mark.parametrize("spec", CROSS_CHECK_EXTENSIONS)
    def test_tokens_round_trip_and_coercions_agree(self, spec):
        F = parse_field_spec(spec)
        p, k = F.p, F.k
        for e in F.elements():
            c = coefficients(F, e.rep)
            assert e.token() == "(" + ",".join(map(str, c)) + ")"
            assert parse_element(F, e.token()) == e
            assert F.element(c) == F.element(list(c)) == e
            # trailing zero coefficients may be left out
            short = list(c)
            while short and not short[-1]:
                short.pop()
            assert F.element(tuple(short)) == e
        for m in range(-2 * p, 2 * p):
            want = F.element((m,) + (0,) * (k - 1))
            assert F.element(m) == F.element((m,)) == want
            assert coefficients(F, want.rep) == (m % p,) + (0,) * (k - 1)
            assert parse_element(F, str(m)) == want
            assert F.element(Fraction(m, p + 1)) == want * F.element(
                p + 1).inverse()
        with pytest.raises(FieldError):
            F.element((0,) * (k + 1))

    @pytest.mark.parametrize("spec", CROSS_CHECK_EXTENSIONS)
    def test_log_base_is_the_first_primitive_element(self, spec):
        # the tables are built on the first element of order q - 1 in
        # canonical order
        F = parse_field_spec(spec)
        order, one = F.size - 1, F.one()
        cofactors = [order // r for r in prime_factors(order)]
        g = F.arith._exp[1]
        for e in F.iter_nonzero():
            primitive = all(e ** c != one for c in cofactors)
            assert primitive == (e.rep == g)
            if primitive:
                break


class TestTokens:
    def test_prime_tokens(self):
        f = GF(7)
        assert f.element(3).token() == "3"
        assert parse_element(f, "10") == f.element(3)

    def test_rational_tokens(self):
        f = rationals()
        assert f.element(Fraction(3, 2)).token() == "3/2"
        assert f.element(5).token() == "5"
        assert parse_element(f, "-7/3").rep == Fraction(-7, 3)

    def test_rational_token_grammar(self):
        # An optional sign, digits, and optionally /digits; Fraction()'s
        # exponents, decimals and underscores are refused.
        f = rationals()
        assert parse_element(f, "3").rep == Fraction(3)
        assert parse_element(f, " +3/6 ").rep == Fraction(1, 2)
        for token in ("1e5", "0.5", "1_0", "1/-2", "--1",
                      "3/", "/3", "", "inf", "nan", "\u0663"):
            with pytest.raises(FieldError):
                parse_element(f, token)
        with pytest.raises(FieldError, match="zero denominator"):
            parse_element(f, "1/0")

    def test_rational_tokens_beyond_int_str_limit(self):
        f = rationals()
        for num, den in ((3 ** 10000, 7), (-1, 10 ** 5000 + 1),
                         (2 ** 20000 + 1, 3 ** 9000)):
            e = f.element(Fraction(num, den))
            token = e.token()
            assert len(token) > 4300
            assert parse_element(f, token) == e
        digits = "9" * 4400
        assert parse_element(f, "-" + digits).rep == -(10 ** 4400 - 1)

    @staticmethod
    def _decimal_token(value: Fraction) -> str:
        # the token as printed through ``decimal`` alone
        num, den = value.numerator, value.denominator
        return str(Decimal(num)) + ("" if den == 1 else f"/{Decimal(den)}")

    def _assert_tokens_at(self, digits):
        # numbers of exactly `digits` digits, as integers, numerators and
        # denominators: the same bytes as through ``decimal``, read back
        f = rationals()
        big = 10 ** (digits - 1) + 7
        for value in (Fraction(big), Fraction(-big), Fraction(big, 3),
                      Fraction(-3, big), Fraction(big, big + 2)):
            e = f.element(value)
            token = e.token()
            assert token == self._decimal_token(value)
            assert parse_element(f, token) == e
            assert f.arith.tokens(f.arith.form([[value]])) == [[token]]

    def test_rational_tokens_at_the_int_str_limit(self):
        # str(int) prints at most sys.get_int_max_str_digits() digits
        limit = sys.get_int_max_str_digits()
        for digits in (limit - 1, limit, limit + 1):
            self._assert_tokens_at(digits)

    def test_rational_tokens_under_a_lowered_int_str_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the least limit Python allows
        try:
            for digits in (639, 640, 641, 5000):
                self._assert_tokens_at(digits)
        finally:
            sys.set_int_max_str_digits(old)
        assert sys.get_int_max_str_digits() == old

    def test_extension_tokens(self):
        f = GF(9)
        e = f.element((2, 1))
        assert e.token() == "(2,1)"
        assert parse_element(f, "(2, 1)") == e
        # bare integers embed through the prime subfield
        assert parse_element(f, "2") == f.element(2)
        with pytest.raises(FieldError):
            parse_element(f, "(2;1)")

    def test_integer_token_grammar(self):
        # every integer token is an optional sign and ASCII digits, as in
        # a Q token: no underscores, no non-ASCII digits
        f7, f9 = GF(7), GF(9)
        assert parse_element(f7, "+10") == f7.element(3)
        assert parse_element(f9, "(-1, +2)") == f9.element((2, 2))
        assert parse_field_spec("GF( 9 ; 1 , 0 , 1 )") == GF(9)
        for field, token in ((f7, "1_0"), (f7, "\u0663"), (f7, "3.0"),
                             (f7, "\u00b2"), (f9, "\u0663"), (f9, "1_0"),
                             (f9, "(\u0663,1)"), (f9, "(1_0,1)")):
            with pytest.raises(FieldError):
                parse_element(field, token)
        for spec in ("GF(\u0667)", "GF(1_1)", "GF(9;1,0,\u0661)",
                     "GF(9;1,,1)", "GF(9;1 0 1)"):
            with pytest.raises(FieldError):
                parse_field_spec(spec)

    def test_dimension_line_grammar(self):
        from u2factor.linalg import parse_matrix_text
        assert parse_matrix_text("GF(7)\n+1\n3\n")[0, 0] == GF(7).element(3)
        for dim in ("\u00b2", "\u0661", "1_0"):
            with pytest.raises(FieldError):
                parse_matrix_text(f"GF(7)\n{dim}\n1\n")

    def test_prime_tokens_beyond_int_str_limit(self):
        f = GF(10007)
        digits = "1" + "0" * 5000
        assert parse_element(f, digits) == f.element(pow(10, 5000, 10007))
        assert parse_element(f, "-" + digits) == \
            f.element(-pow(10, 5000, 10007))
        assert parse_element(GF(9), digits) == GF(9).element(1)
        nines = "9" * 4400
        assert parse_element(f, nines) == f.element(10 ** 4400 - 1)
        # 10^4400 = 1 mod 3
        assert parse_field_spec(f"GF(9;1{'0' * 4400},0,1)") == GF(9)


class TestPrimitive:
    """``primitive_columns``, the one eigenvector scale, on one column."""

    def test_rational_vectors_become_primitive_integer_vectors(self):
        arith, F = rationals().arith, Fraction
        for vec, want in (([F(2, 3), F(-4, 3), F(-2)], [-1, 2, 3]),
                          ([F(6), F(0), F(-9), F(0)], [-2, 0, 3, 0]),
                          ([F(1, 6), F(1, 4), F(0)], [2, 3, 0]),
                          ([F(-5, 7)], [1]),
                          ([F(4), F(6)], [2, 3])):
            rows, scales = arith.primitive_columns(
                arith.form([[x] for x in vec]), [0])
            assert rows == [(1, (w,)) for w in want]
            assert arith.reps(rows) == [[w] for w in want]
            assert all(type(r[0]) is Fraction for r in arith.reps(rows))
            assert [x * scales[0] for x in vec] == want

    def test_finite_fields_keep_the_vector(self):
        # a vector is divided by its last nonzero entry, and one that
        # ends in 1, as every kernel vector does, keeps its entries
        for F, vec in ((GF(7), [3, 0, 5]),
                       (GF(9), [GF(9).arith.coerce((1, 2)), 0])):
            arith = F.arith
            rows, scales = arith.primitive_columns([[x] for x in vec], [0])
            last = next(x for x in reversed(vec) if x)
            assert scales == [arith.inv(last)]
            want = [[arith.mul(x, scales[0])] for x in vec]
            assert rows == want
            assert arith.primitive_columns(want, [0]) == (want, [arith.one])


class TestSquareRoots:
    def test_gf7_squares(self):
        f = GF(7)
        sq = {a.rep for a in f.nonzero_elements() if is_square(a)}
        assert sq == {1, 2, 4}
        for a in f.nonzero_elements():
            r = sqrt(a)
            if r is not None:
                assert r * r == a

    def test_char2_all_squares(self):
        f = GF(8)
        assert all(is_square(a) for a in f.elements())

    def test_rational_sqrt_positive_root(self):
        f = rationals()
        r = sqrt(f.element(Fraction(9, 4)))
        assert r.rep == Fraction(3, 2)
        assert sqrt(f.element(2)) is None
        assert sqrt(f.element(-4)) is None

    @pytest.mark.parametrize("q", CROSS_CHECK_PRIMES + CROSS_CHECK_EXTENSIONS)
    def test_fast_sqrt_matches_table(self, q):
        f = GF(q) if isinstance(q, int) else parse_field_spec(q)
        # the reference: the first root of each square in canonical order
        first_root = {}
        for b in f.nonzero_elements():
            first_root.setdefault(b * b, b)
        for a in f.elements():
            root = sqrt(a)
            if a.is_zero():
                assert root == a
                continue
            assert root == first_root.get(a)
            assert is_square(a) == (root is not None)
            if root is not None:
                assert root.rep == min(root.rep, (-root).rep)
                if f.k == 1:
                    assert root.rep == min(root.rep, f.p - root.rep)

    def test_sqrt_deterministic(self):
        f = GF(13)
        a = f.element(4)
        assert sqrt(a) == sqrt(a)
        assert sqrt(a) * sqrt(a) == a


class TestWitnesses:
    def test_sum_of_two_squares(self):
        # -1 is a sum of two nonzero squares mod 3 and mod 7, but not mod 5
        for q in (3, 7, 11, 13):
            f = GF(q)
            pair = sum_of_two_nonzero_squares(-f.one())
            assert pair is not None
            a, b = pair
            assert a * a + b * b == -f.one()
        assert sum_of_two_nonzero_squares(-GF(5).one()) is None
        assert sum_of_two_nonzero_squares(-rationals().one()) is None

    def test_square_ne_inverse_witness(self):
        for q in (7, 8, 9, 11, 13):
            f = GF(q)
            b = square_ne_inverse_witness(f)
            assert b * b != (b * b).inverse()
        for q in (2, 3, 5):
            with pytest.raises(FieldTooSmall):
                square_ne_inverse_witness(GF(q))
        assert square_ne_inverse_witness(rationals()).rep == Fraction(2)
        # the orders 2n, n = 2..6, of the even scalar route: the first
        # nonzero a whose 2n-th power is not 1, FieldTooSmall when q - 1
        # divides 2n (GF(7) at orders 6 and 12, GF(9) at order 8)
        for q in (7, 9, 31):
            f = GF(q)
            for order in range(4, 13, 2):
                if order % (q - 1) == 0:
                    with pytest.raises(FieldTooSmall):
                        square_ne_inverse_witness(f, order)
                    continue
                a = square_ne_inverse_witness(f, order)
                assert a ** order != f.one()
                for b in f.iter_nonzero():
                    if b == a:
                        break
                    assert b ** order == f.one()
        for order in range(4, 13, 2):
            assert square_ne_inverse_witness(rationals(), order).rep == 2


class TestSquareClassPairing:
    @pytest.mark.parametrize("q,k", [(4, 1), (7, 1), (8, 3), (9, 1),
                                     (11, 2), (13, 2), (16, 7), (25, 5),
                                     (27, 6)])
    def test_pair_counts(self, q, k):
        data = square_class_pairing(GF(q))
        assert len(data.pairs) == k
        for a, ainv in data.pairs:
            assert a * ainv == GF(q).one()
            assert a != ainv

    @pytest.mark.parametrize("p", [p for p in CROSS_CHECK_PRIMES if p > 5])
    def test_streamed_pairs_match_sorted_reference(self, p):
        """The stream equals the full sorted scan of the square table,
        and the full build's count check holds on every field."""
        f = GF(p)
        S = f.squares()
        E = {f.one(), -f.one()} & S
        want, used = [], set(E)
        for a in sorted(S - E, key=lambda e: e.rep):
            if a not in used:
                want.append((a, a.inverse()))
                used |= {a, a.inverse()}
        data = square_class_pairing(f)
        assert data.E == E
        assert list(data.iter_pairs()) == want
        assert list(data.pairs) == want and data.S == S
        assert len(data.pairs) == ((p - 3) // 4 if len(E) == 1
                                   else (p - 5) // 4)

    def test_short_pair_count_raises(self, monkeypatch):
        """The count check on the full pairs tuple is a plain check, so
        it also holds under python -O."""
        data = square_class_pairing(GF(13))
        first = next(data.iter_pairs())
        monkeypatch.setattr(data, "iter_pairs", lambda: iter([first]))
        with pytest.raises(FieldError, match="expected 2"):
            data.pairs

    def test_pairs_built_only_when_read(self, table_calls):
        for p in (1000003, 2 ** 31 - 1):
            f = GF(p)
            stream = square_class_pairing(f).iter_pairs()
            (a, ainv), (b, _) = next(stream), next(stream)
            assert 1 < a.rep < b.rep and a * ainv == f.one()
            assert is_square(a) and is_square(b)
        assert table_calls == []

    def test_exceptional_set(self):
        f7 = GF(7)  # -1 not a square mod 7
        assert square_class_pairing(f7).E == frozenset({f7.one()})
        f13 = GF(13)  # -1 = 5^2 mod 13
        assert square_class_pairing(f13).E == \
            frozenset({f13.one(), -f13.one()})
        f8 = GF(8)
        assert square_class_pairing(f8).E == frozenset({f8.one()})

    def test_small_fields_rejected(self):
        for q in (2, 3, 5):
            with pytest.raises(FieldTooSmall):
                square_class_pairing(GF(q))

    def test_rational_stream(self):
        f = rationals()
        data = square_class_pairing(f)
        stream = data.iter_pairs()
        first = [next(stream) for _ in range(3)]
        assert [a.rep for a, _ in first] == [Fraction(4), Fraction(9),
                                             Fraction(16)]
        for a, ainv in first:
            assert a * ainv == f.one()


def _times(factors, p) -> tuple:
    """The product over GF(p) of polynomials given as ascending
    coefficient tuples."""
    out = (1,)
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = tuple(c % p for c in prod)
    return out


def _first_of_full_order(F) -> int:
    """The code of the first nonzero element, in canonical order, whose
    powers by ``poly_mulmod`` first return to 1 after q - 1 steps."""
    p, k, f = F.p, F.k, F.modulus
    one = (1,) + (0,) * (k - 1)
    for code in range(1, F.size):
        e = x = coefficients(F, code)
        steps = 1
        while x != one:
            x = poly_mulmod(x, e, f, p)
            steps += 1
        if steps == F.size - 1:
            return code
    raise AssertionError(f"{F} has no element of order q - 1")


# (p, k): monic moduli of degree k over GF(p), each the product of the
# irreducible factors given, ascending coefficients: powers of a linear
# factor, products of distinct irreducibles, and x^3 (x^5 + x^3 + 1),
# among the slowest reducible degree-8 moduli over GF(2) to refuse
REDUCIBLE = {
    (2, 8): [((1, 1),) * 8, ((0, 1),) * 8,
             ((0, 1),) * 3 + ((1, 0, 0, 1, 0, 1),),
             ((0, 1), (0, 1), (1, 0, 0, 0, 0, 1, 1)),
             ((1, 1, 0, 1), (1, 0, 1, 0, 0, 1)),
             ((1, 1, 0, 0, 1), (1, 0, 0, 1, 1)),
             ((1, 1, 0, 0, 1),) * 2,
             ((0, 1), (1, 1, 0, 0, 0, 0, 0, 1)),
             ((1, 1, 1), (1, 1, 0, 0, 0, 0, 1))],
    (3, 5): [((1, 1),) * 5, ((0, 1),) * 5,
             ((1, 0, 1), (1, 2, 0, 1)),
             ((2, 1), (2, 1, 0, 0, 1)),
             ((2, 1, 1), (2, 2, 0, 1)),
             ((1, 1), (2, 1), (1, 2, 0, 1)),
             ((0, 1), (1, 0, 1), (1, 0, 1))],
}


class TestModulus:
    """The power walk of ``ExtensionArith`` decides irreducibility: a
    modulus builds a field exactly when trial division
    (``tests/reference.py``) finds no factor, and the log base is then
    the first element of order q - 1."""

    @pytest.mark.parametrize("p, k, irreducible",
                             [(2, 2, 1), (2, 3, 2), (3, 2, 3), (2, 4, 3),
                              (5, 2, 10), (3, 3, 8)])
    def test_every_small_modulus(self, p, k, irreducible):
        found = 0
        for tail in itertools.product(range(p), repeat=k):
            modulus = tail + (1,)
            if is_irreducible(modulus, p):
                found += 1
                F = make_field("extension", p, k, modulus)
                assert F.arith._exp[1] == _first_of_full_order(F)
            else:
                message = f"modulus {modulus} reducible mod {p}"
                with pytest.raises(ReducibleModulus,
                                   match=re.escape(message)):
                    make_field("extension", p, k, modulus)
        # the count of monic irreducibles of degree k (Gauss)
        assert found == irreducible

    @pytest.mark.parametrize("spec", ["GF(243;1,0,0,0,2,1)",
                                      "GF(256;1,1,0,1,1,0,0,0,1)"])
    def test_large_irreducible_moduli(self, spec):
        F = parse_field_spec(spec)
        assert is_irreducible(F.modulus, F.p)
        assert F.arith._exp[1] == _first_of_full_order(F)

    @pytest.mark.parametrize("p, k", sorted(REDUCIBLE))
    def test_large_reducible_moduli(self, p, k):
        for factors in REDUCIBLE[(p, k)]:
            assert all(is_irreducible(f, p) for f in factors)
            modulus = _times(factors, p)
            assert len(modulus) == k + 1 and modulus[-1] == 1
            assert not is_irreducible(modulus, p)
            with pytest.raises(ReducibleModulus):
                make_field("extension", p, k, modulus)


class TestExtensionSizeBound:
    def test_user_modulus_above_256_refused(self):
        with pytest.raises(FieldError, match="too large"):
            parse_field_spec("GF(361;2,1,1)")
        with pytest.raises(FieldError, match="too large"):
            GF(2 ** 20, (1,) + (0,) * 19 + (1,))

    def test_degree_8_modulus_for_256(self):
        # x^8 + x^4 + x^3 + x + 1, irreducible over GF(2)
        f = parse_field_spec("GF(256;1,1,0,1,1,0,0,0,1)")
        assert f.size == 256
        x = f.element((0, 1))
        assert x ** 255 == f.one() and x ** 17 != f.one()
        assert x * x.inverse() == f.one()

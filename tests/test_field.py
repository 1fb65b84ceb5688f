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
    def test_rational_vectors_become_primitive_integer_vectors(self):
        arith, F = rationals().arith, Fraction
        for vec, want in (([F(2, 3), F(-4, 3), F(-2)], [-1, 2, 3]),
                          ([F(6), F(0), F(-9), F(0)], [-2, 0, 3, 0]),
                          ([F(1, 6), F(1, 4), F(0)], [2, 3, 0]),
                          ([F(-5, 7)], [1]),
                          ([F(4), F(6)], [2, 3])):
            got = arith.primitive(arith.row(vec))
            assert got == (1, tuple(want))
            assert arith.reps([got]) == [want]
            assert all(type(x) is Fraction for x in arith.reps([got])[0])
        zero = arith.row([F(0), F(0)])
        assert arith.primitive(zero) == zero

    def test_finite_fields_keep_the_vector(self):
        for F, vec in ((GF(7), [3, 0, 5]), (GF(9), [(1, 2), (0, 0)])):
            assert F.arith.primitive(vec) is vec


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

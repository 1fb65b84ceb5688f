"""Constructive factorization routes for SL_2.

Route map: identity (0 pairs), the trace construction (1 pair when
tr(A) - 2 is a nonzero square), diagonal squares (1 pair), -I_2
specializations (2 or 3 pairs depending on the field), and a generic
two-commutator split through prescribed-spectrum factorization for
|F| >= 4.  For |F| <= 3 the trace test alone decides membership: the
nonscalar elements of SL_2(F)' are exactly the single commutators.

The routes build certificates without checking them.  A direct call
returns an unchecked result; ``factor_sln.factor`` is the checked
entry point.
"""

from __future__ import annotations

from functools import lru_cache

from .field import (FieldSpec, FieldElement, NotASquare, sqrt,
                    sum_of_two_nonzero_squares, square_ne_inverse_witness)
from .linalg import (Matrix, diagonal, jordan_block, unipotent_jordan,
                     companion_similarity_2x2, diagonalize_triangular,
                     ScalarInput)
from .unipotent import (Factorization, CommutatorPair,
                        identity_factorization, conjugate_factorization,
                        conjugate_pairs, invert_factorization,
                        concat_factorizations)
from .sourour import sourour_factor


class FactorError(Exception):
    pass


class NotSL2(FactorError):
    pass


class OutsideDerivedSubgroup(FactorError):
    pass


class PreconditionViolated(FactorError):
    pass


class DegenerateValue(FactorError):
    pass


def single_commutator_test(A: Matrix):
    """Nonzero alpha with alpha^2 = tr(A) - 2, or None.

    A nonscalar SL_2 matrix is a single commutator of U2-matrices
    exactly when such an alpha exists.
    """
    if A.n != 2:
        raise NotSL2("expected a 2x2 matrix")
    if A.is_scalar():
        raise ScalarInput("trace test applies to nonscalar matrices")
    field = A.field
    disc = A.trace() - field.element(2)
    if disc.is_zero():
        return None
    return sqrt(disc)


def trace_construction(A: Matrix, alpha: FieldElement) -> Factorization:
    """One-pair certificate for nonscalar A with tr(A) = 2 + alpha^2.

    A is conjugated to its companion form [[0, -1], [1, 2 + alpha^2]],
    which is the commutator of an explicit upper-triangular X and a Y
    depending only on alpha; the pair is transported back.
    """
    field = A.field
    one, zero = field.one(), field.zero()
    two = field.element(2)
    if alpha.is_zero() or A.trace() != two + alpha * alpha:
        raise PreconditionViolated("need nonzero alpha with tr = 2 + alpha^2")
    P, Pinv = companion_similarity_2x2(A)  # P A P^-1 = companion
    a2 = alpha * alpha
    X = Matrix(field, [[one, a2], [zero, one]])
    t = a2 + alpha + one
    ai = alpha.inverse()
    Y = Matrix(field, [[one - ai * t, -(ai * t * t)],
                       [ai, one + ai * t]])
    comp = Matrix(field, [[zero, -one], [one, two + a2]])
    base = Factorization(comp, (CommutatorPair.unchecked(X, Y),),
                         (f"thm3.2(alpha={alpha.token()})",))
    return conjugate_factorization(base, Pinv, P)


@lru_cache(maxsize=256)
def diag_commutator(a: FieldElement) -> Factorization:
    """One-pair certificate for diag(a, a^-1), requiring a to be a
    square outside {-1, 0, 1}.

    Memoised per process, keyed by the value of a (so by its field too):
    callers get a shared, immutable certificate.
    """
    field = a.field
    one = field.one()
    if a.is_zero() or a == one or a == -one:
        raise DegenerateValue(f"a = {a.token()} is degenerate")
    b = sqrt(a)
    if b is None:
        raise NotASquare(f"{a.token()} is not a square")
    alpha = b - b.inverse()
    target = diagonal(field, [a, a.inverse()])
    f = trace_construction(target, alpha)
    return Factorization(f.target, f.pairs,
                         (f"cor3.6(a={a.token()},b={b.token()})",) + f.route[1:])


@lru_cache(maxsize=32)
def neg_identity(F: FieldSpec) -> Factorization:
    """Certificate for -I_2, route chosen by the field's square structure.

    Memoised per process, keyed by the field: callers get a shared,
    immutable certificate.
    """
    one = F.one()
    minus_one = -one
    if F.p == 2:
        return identity_factorization(F, 2)  # -I = I
    target = diagonal(F, [minus_one, minus_one])
    a = sqrt(minus_one)
    if a is not None and F.size != 5:
        # -I = diag(b^2, b^-2) diag((a/b)^2, (a/b)^-2), both single pairs
        b = square_ne_inverse_witness(F)
        c = a * b.inverse()
        f1 = diag_commutator(b * b)
        f2 = diag_commutator(c * c)
        return concat_factorizations(target, [f1, f2],
                                     ("prop3.10(-1 square)",))
    pair = sum_of_two_nonzero_squares(minus_one)
    if pair is not None:
        a1, b1 = pair
        two = F.element(2)
        alpha = two * a1
        a2 = alpha * alpha
        A = Matrix(F, [[two, one], [two * a2 - one, a2]])
        B = Matrix(F, [[-a2, one], [two * a2 - one, -two]])
        beta = two * b1
        fa = trace_construction(A, alpha)
        fb = trace_construction(B, beta)
        return concat_factorizations(target, [fa, fb],
                                     (f"cor3.4(a={a1.token()},b={b1.token()})",))
    if F.is_finite and F.size == 5:
        # -I_2 = J_2(-1) J_2(1): one pair plus the two-pair GF(5) route
        j_minus = jordan_block(F, 2, minus_one)
        j_plus = jordan_block(F, 2, one)
        alpha = single_commutator_test(j_minus)
        f1 = trace_construction(j_minus, alpha)
        f2 = factor_sl2(j_plus)
        return concat_factorizations(target, [f1, f2], ("prop3.12(q=5)",))
    # |F| > 5 (or infinite): diag(b^2, b^-2) * [-diag(b^2, b^-2)]^-1
    b = square_ne_inverse_witness(F)
    d = b * b
    f1 = diag_commutator(d)
    rest = diagonal(F, [-d.inverse(), -d])  # = (-(diag))^{-1}
    f2 = _factor_nonscalar(rest)
    return concat_factorizations(target, [f1, f2], ("prop3.12(generic)",))


def _factor_nonscalar(A: Matrix) -> Factorization:
    """Nonscalar A in SL_2(F), |F| >= 4: one or two pairs."""
    field = A.field
    one = field.one()
    if (A.is_diagonal() and A[1, 1] == A[0, 0].inverse()
            and A[0, 0] not in (one, -one) and sqrt(A[0, 0]) is not None):
        return diag_commutator(A[0, 0])
    alpha = single_commutator_test(A)
    if alpha is not None:
        return trace_construction(A, alpha)
    if field.is_finite and field.size == 5:
        return _factor_nonscalar_gf5(A)
    # split with both spectra {b^2, b^-2}, each part a diagonal commutator
    b = square_ne_inverse_witness(field)
    d = b * b
    spectrum = (d, d.inverse())
    return split_into_diagonal_parts(A, spectrum, diag_commutator(d),
                                     "prop3.11(generic)")


def split_into_diagonal_parts(A: Matrix, spectrum, cert: Factorization,
                              route: str) -> Factorization:
    """A = B C by a split with both spectra ``spectrum``, whose entries
    are distinct, and ``cert`` a certificate for diag(spectrum): each
    part is diagonalized in the split's triangularizing basis and gets
    ``cert``'s pairs, conjugated.  Twice cert's pairs.

    Only the pairs are conjugated: no part target is built, and that
    B C = A is left to ``factor``'s final ``verify``."""
    split = sourour_factor(A, spectrum, spectrum)
    pairs = []
    for R in (split.L, split.U):
        P, Pinv = diagonalize_triangular(split.T, split.T_inv, R, spectrum)
        pairs.extend(conjugate_pairs(cert.pairs, Pinv, P))
    part_route = cert.route + ("transport:conjugate",)
    return Factorization(A, pairs, part_route * 2 + (
        split.route_tag(spectrum, spectrum), route))


def _factor_nonscalar_gf5(A: Matrix) -> Factorization:
    """GF(5) two-pair route: split with spectra {-1, -1} and dispatch on
    the minimal polynomials of the parts."""
    field = A.field
    one = field.one()
    minus_one = -one
    spectrum = (minus_one, minus_one)
    split = sourour_factor(A, spectrum, spectrum)
    b_scalar, c_scalar = split.b.is_scalar(), split.c.is_scalar()
    if not b_scalar and not c_scalar:
        # both similar to J_2(-1); each a single commutator since -1 = 2^2
        parts = []
        for part in (split.b, split.c):
            alpha = single_commutator_test(part)
            parts.append(trace_construction(part, alpha))
        return concat_factorizations(
            A, parts, (split.route_tag(spectrum, spectrum), "prop3.11(q=5)"))
    # mixed case: A = -N with N similar to J_2(-1), so A is similar to
    # J_2(1)^-1 and J_2(1) = D^2 with D = [[-1, 2], [0, -1]] a commutator
    D = Matrix.from_ints(field, [[-1, 2], [0, -1]])
    alpha = single_commutator_test(D)
    fD = trace_construction(D, alpha)
    j1 = jordan_block(field, 2, one)
    fj1 = concat_factorizations(j1, [fD, fD], ("prop3.11(q=5,J2(1)=D^2)",))
    # A^-1 is unipotent of index 2, similar to J_2(1)
    jd = unipotent_jordan(A.inverse())
    cert_inv = conjugate_factorization(fj1, jd.transform_inverse, jd.transform)
    out = invert_factorization(cert_inv)
    return Factorization(A, out.pairs,
                         (split.route_tag(spectrum, spectrum),) + out.route)


def factor_sl2(A: Matrix) -> Factorization:
    """Dispatcher for SL_2: certificate with at most three pairs when
    |F| >= 4, and at most |F| - 1 pairs on the derived subgroup when
    |F| <= 3 (error outside it).  There a nonscalar A is in the derived
    subgroup exactly when tr(A) - 2 is a nonzero square, and is then one
    commutator.

    The result is not checked here; ``factor_sln.factor`` verifies it.
    """
    field = A.field
    if A.n != 2:
        raise NotSL2("expected a 2x2 matrix")
    if A.det() != field.one():
        raise NotSL2("determinant is not 1")
    if A.is_identity():
        return identity_factorization(field, 2)
    if A.is_scalar():
        # det 1 forces the scalar to be -1 (or 1, handled above)
        return neg_identity(field)
    if field.is_finite and field.size <= 3:
        alpha = single_commutator_test(A)
        if alpha is None:
            raise OutsideDerivedSubgroup(
                "not a product of commutators of U2-matrices")
        f = trace_construction(A, alpha)
        return Factorization(A, f.pairs,
                             (f"thm3.8(q={field.size})",) + f.route)
    return _factor_nonscalar(A)

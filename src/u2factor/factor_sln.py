"""Factorization routes for SL_n, n > 2, plus the top-level dispatcher.

Every route assembles its certificate from smaller pieces via the
transport operations (conjugation, direct sums, inversion), none of
which re-checks its pairs.  ``factor`` is the one checked boundary: it
verifies each finished certificate once, with plain checks that also
run under ``python -O``.
"""

from __future__ import annotations

from functools import lru_cache

from .field import FieldSpec, FieldElement, sqrt, sum_of_two_nonzero_squares, \
    square_class_pairing, square_ne_inverse_witness
from .linalg import (Matrix, identity, diagonal, jordan_block, direct_sum,
                     unipotent_jordan, single_block_jordan,
                     find_diagonal_permutation, similarity_to_diagonal,
                     ScalarInput)
from .unipotent import (Factorization, CommutatorPair, VerificationFailed,
                        verify, identity_factorization,
                        conjugate_factorization, invert_factorization,
                        direct_sum_factorization, embed_factorization,
                        concat_factorizations)
from .factor_sl2 import (factor_sl2, diag_commutator, neg_identity,
                         split_into_diagonal_parts, FactorError)
from .sourour import sourour_factor


class NotSLn(FactorError):
    pass


class UnsupportedFieldSize(FactorError):
    pass


# -- promised upper bounds on pair counts -------------------------------------

def promised_max_pairs(F: FieldSpec, n: int) -> int:
    """Maximum commutator-pair count the dispatcher promises for (F, n)."""
    if n < 1:
        raise FactorError(f"need n >= 1, got {n}")
    if n == 1:
        return 0
    q = F.size  # None for Q
    if n == 2:
        if F.is_finite and q <= 3:
            return q - 1
        if F.p == 2:
            return 2
        if sum_of_two_nonzero_squares(-F.one()) is not None:
            return 2
        return 3
    if F.is_finite and q <= 3:
        raise UnsupportedFieldSize("no constructive route for n > 2, |F| <= 3")
    half = n // 2
    if F.p == 2 and (not F.is_finite or q >= 2 * half + 2):
        return 2
    if not F.is_finite or q >= 4 * half + 5:
        return 3
    return 4


# -- explicit small constructions ----------------------------------------------

@lru_cache(maxsize=32)
def i_plus_j21(F: FieldSpec) -> Factorization:
    """One-pair certificate for [1] (+) J_2(1), from an explicit pair of
    3x3 U2-matrices.

    Memoised per process, keyed by the field: callers get a shared,
    immutable certificate.
    """
    X = Matrix.from_ints(F, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    Y = Matrix.from_ints(F, [[1, 0, 0], [-1, 1, 0], [0, 0, 1]])
    target = direct_sum(identity(F, 1), jordan_block(F, 2, F.one()))
    return Factorization(target, (CommutatorPair.unchecked(X, Y),),
                         ("prop4.1",))


def _jn1_xy(F: FieldSpec, n: int):
    """The parity-split pair (X_n, Y_n) whose commutator has Jordan type
    (ceil(n/2), floor(n/2))."""
    one_block = identity(F, 1)
    j2 = jordan_block(F, 2, F.one())
    if n % 2 == 0:
        X = direct_sum(one_block, *[j2] * ((n - 2) // 2), one_block)
        Y = direct_sum(*[j2] * (n // 2))
    else:
        X = direct_sum(one_block, *[j2] * ((n - 1) // 2))
        Y = direct_sum(*[j2] * ((n - 1) // 2), one_block)
    return X, Y


@lru_cache(maxsize=64)
def jn1_factor(n: int, F: FieldSpec) -> Factorization:
    """At most two pairs for the full Jordan block J_n(1), n > 2.

    Memoised per process, keyed by (n, field): callers get a shared,
    immutable certificate.
    """
    if n <= 2:
        raise FactorError("route applies to n > 2 only")
    pair = CommutatorPair.unchecked(*_jn1_xy(F, n))
    M = pair.value()
    jd = unipotent_jordan(M)
    hi, lo = (n + 1) // 2, n // 2
    # first factor: J_hi(1) (+) J_lo(1), via the conjugated explicit pair
    f1 = conjugate_factorization(
        Factorization(M, (pair,), (f"prop4.3(n={n})",)),
        jd.transform, jd.transform_inverse)
    # second factor: I (+) J_2(1) (+) I straddling the block boundary;
    # before >= 1 since n > 2
    before = lo if n % 2 else hi - 1
    after = n - before - 2
    f2 = embed_factorization(i_plus_j21(F), before - 1, after)
    G = f1.target @ f2.target
    fG = concat_factorizations(G, [f1, f2])
    # G is a single Jordan block, so the transform carries it to J_n(1)
    jg = unipotent_jordan(G)
    return conjugate_factorization(fG, jg.transform, jg.transform_inverse)


@lru_cache(maxsize=32)
def j21_factor(F: FieldSpec) -> Factorization:
    """factor_sl2's certificate for J_2(1).

    Memoised per process, keyed by the field: callers get a shared,
    immutable certificate.
    """
    return factor_sl2(jordan_block(F, 2, F.one()))


# -- diagonal-blockwise assembly helpers ----------------------------------------

def _diag_pair_cert(F, a: FieldElement) -> Factorization:
    """Certificate for diag(a, a^-1): empty when a = 1, else one pair."""
    if a.is_one():
        return identity_factorization(F, 2)
    return diag_commutator(a)


def _tagged(tag: str, cert: Factorization) -> Factorization:
    """``cert`` with ``tag`` in front of its route."""
    return Factorization(cert.target, cert.pairs, (tag,) + cert.route)


def _permuted_to(cert: Factorization, D: Matrix) -> Factorization:
    """``cert``, for a diagonal target, conjugated by the permutation
    that carries its target to the diagonal matrix D."""
    P = find_diagonal_permutation(cert.target, D)
    return conjugate_factorization(cert, P, P.transpose())


# -- scalar matrices --------------------------------------------------------------

def scalar_factor(lam: FieldElement, n: int) -> Factorization:
    """Certificate for lam * I_n (requires lam^n = 1)."""
    F = lam.field
    one = F.one()
    if lam ** n != one:
        raise NotSLn("lambda^n != 1")
    if lam == one:
        return identity_factorization(F, n)
    if n == 2:
        return factor_sl2(diagonal(F, [lam, lam]))
    if F.is_finite and F.size <= 3:
        raise UnsupportedFieldSize("no scalar route for |F| <= 3, n > 2")
    target = diagonal(F, [lam] * n)
    if n % 2 == 1:
        return _scalar_odd(lam, n, target)
    if F.is_finite and F.size == 5:
        return _scalar_even_gf5(lam, n)
    if not F.is_finite or F.size > 2 * n + 1:
        return _scalar_even_bigfield(lam, n, target)
    return _scalar_even_general(lam, n, target)


def _scalar_odd(lam, n, target):
    """Odd n: two factors, each one pair; every lambda^i is the square of
    a power of b = lambda^((n+1)/2)."""
    F = lam.field
    k = (n - 1) // 2
    second_entries = []
    for i in range(1, k + 1):
        second_entries.extend([lam ** (n - i + 1), lam ** (i + 1)])
    second_entries.append(lam)
    # diag(lam, lam^(n-1), ..., lam^k, lam^(n-k), 1), one pair
    f1 = direct_sum_factorization(*(
        _diag_pair_cert(F, lam ** i) for i in range(1, k + 1)),
        identity_factorization(F, 1))
    f1 = _tagged(f"prop4.8(odd,n={n})", f1)
    # second factor is permutation similar to the first
    f2 = _permuted_to(f1, diagonal(F, second_entries))
    return concat_factorizations(target, [f1, f2])


def _scalar_even_gf5(lam, n):
    """GF(5), even n: -I_n as blocks of -I_2 (<= 3 pairs); 2I_n and 3I_n
    via the explicit 2I_4 identity (<= 4 pairs, n = 4k forced)."""
    F = lam.field
    if lam == -F.one():
        return _tagged(f"lemma4.6(q=5,lambda=-1,n={n})",
                       direct_sum_factorization(*[neg_identity(F)] * (n // 2)))
    # lam is 2 or 3 (so 4 | n); 3I = (2I)^-1
    if lam == F.element(3):
        return invert_factorization(scalar_factor(F.element(2), n))
    return direct_sum_factorization(*[_two_i4_gf5(F)] * (n // 4))


@lru_cache(maxsize=32)
def _two_i4_gf5(F) -> Factorization:
    """2*I_4 = (B (+) B) C over GF(5) with B = diag(2, 3) and
    C = diag(1, -1, 1, -1); at most four pairs.

    Memoised per process, keyed by the field: callers get a shared,
    immutable certificate.
    """
    one = F.one()
    minus_one = -one
    B = diagonal(F, [F.element(2), F.element(3)])
    fB = factor_sl2(B)
    fBB = direct_sum_factorization(fB, fB)
    # C via D E similar to diag(1, -1, 1, -1)
    j2m = jordan_block(F, 2, minus_one)
    alpha_cert = factor_sl2(j2m)  # single pair (tr = -2 = 2 + 1^2)
    # D = [1] (+) (permutation of J_2(-1) (+) [1])
    perm = Matrix.from_ints(F, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    inner = direct_sum_factorization(alpha_cert, identity_factorization(F, 1))
    inner = conjugate_factorization(inner, perm, perm.transpose())
    fD = embed_factorization(inner, 1, 0)
    fE = embed_factorization(alpha_cert, 1, 1)
    G = fD.target @ fE.target
    fG = concat_factorizations(G, [fD, fE])
    P, Pinv = similarity_to_diagonal(G, [one, minus_one, one, minus_one])
    fC = conjugate_factorization(fG, P, Pinv)
    target = diagonal(F, [F.element(2)] * 4)
    return concat_factorizations(target, [fBB, fC],
                                 ("lemma4.6(q=5,lambda=2)",))


def _scalar_even_bigfield(lam, n, target):
    """Even n, |F| > 2n + 1: at most three pairs, two when every odd
    power of lambda is a square (always in characteristic 2).

    With a^(2n) != 1 and d = a^2, the two diagonal factors with block
    entries (lam^(2i-1) d, lam^(2i-1) d^-1) and (lam^(2-2i) d^-1,
    lam^(2-2i) d) are each permutation similar to direct sums of
    diag(x, x^-1) blocks; the second factor's x values are all squares.
    """
    F = lam.field
    k = n // 2
    a = square_ne_inverse_witness(F, 2 * n)
    d = a * a
    dinv = d.inverse()
    b_entries = []
    c_entries = []
    for i in range(1, k + 1):
        s = lam ** (2 * i - 1)
        t = lam ** (2 - 2 * i)
        b_entries.extend([s * d, s * dinv])
        c_entries.extend([t * dinv, t * d])
    Bmat = diagonal(F, b_entries)
    Cmat = diagonal(F, c_entries)
    # C ~ blocks diag(y, y^-1) with y = lam^(2-2i) d^-1 = (lam^(1-i)/a)^2
    y_vals = [lam ** (2 - 2 * i) * dinv for i in range(1, k + 1)]
    fC = direct_sum_factorization(*(_diag_pair_cert(F, y) for y in y_vals))
    fC = _permuted_to(_tagged(f"prop5.3(n={n},a={a.token()})", fC), Cmat)
    # B ~ blocks diag(x, x^-1) with x = lam^(2i-1) d, never scalar
    x_vals = [lam ** (2 * i - 1) * d for i in range(1, k + 1)]
    fB = direct_sum_factorization(*(
        factor_sl2(diagonal(F, [x, x.inverse()])) for x in x_vals))
    fB = _permuted_to(_tagged(f"prop5.3(blocks,n={n})", fB), Bmat)
    return concat_factorizations(target, [fB, fC])


def _scalar_even_general(lam, n, target):
    """Even n, |F| >= 4 (not 5, not big-field): at most four pairs via the
    odd/even power split; each diagonal SL_2 block through factor_sl2."""
    F = lam.field
    k = n // 2
    Cmat = diagonal(F, [e for i in range(1, k + 1)
                        for e in (lam ** (2 - 2 * i), lam ** (2 * i))])
    fB = direct_sum_factorization(*(
        factor_sl2(diagonal(F, [lam ** (2 * i - 1), lam ** (n - 2 * i + 1)]))
        for i in range(1, k + 1)))
    fB = _tagged(f"prop4.8(even,B,n={n})", fB)
    # C is permutation similar to I_2 (+) diag blocks of even powers
    c_vals = [lam ** (2 * i) for i in range(1, k)]
    fC = direct_sum_factorization(factor_sl2(identity(F, 2)), *(
        factor_sl2(diagonal(F, [c, c.inverse()])) for c in c_vals))
    fC = _permuted_to(_tagged(f"prop4.8(even,C,n={n})", fC), Cmat)
    return concat_factorizations(target, [fB, fC])


# -- nonscalar matrices -------------------------------------------------------------

def _reduced_threshold_met(F: FieldSpec, n: int) -> bool:
    if not F.is_finite:
        return True
    half = n // 2
    q = F.size
    if q in (2, 3, 5):
        return False
    if F.p == 2:
        return q >= 2 * half + 2
    minus_one_square = sqrt(-F.one()) is not None
    return q >= (4 * half + 5 if minus_one_square else 4 * half + 3)


def nonscalar_factor(A: Matrix) -> Factorization:
    """Nonscalar A in SL_n, n > 2, |F| >= 4: two pairs when the
    square-pair supply is large enough, otherwise at most four via
    unipotent splitting."""
    F = A.field
    n = A.n
    if A.is_scalar():
        raise ScalarInput("nonscalar route got a scalar matrix")
    if F.is_finite and F.size <= 3:
        raise UnsupportedFieldSize("|F| >= 4 required")
    if _reduced_threshold_met(F, n):
        return _nonscalar_two_pairs(A)
    return _nonscalar_unipotent_split(A)


def _nonscalar_two_pairs(A: Matrix) -> Factorization:
    """Prop-5.2-style route: split with a distinct all-square spectrum and
    factor both parts as single diagonal commutators."""
    F = A.field
    n = A.n
    k = n // 2
    pairing = square_class_pairing(F)
    alphas = []
    for pair in pairing.iter_pairs():
        alphas.append(pair)
        if len(alphas) == k:
            break
    if len(alphas) < k:
        raise UnsupportedFieldSize("not enough inverse square pairs")
    spectrum = [F.one()] * (n % 2)
    for (a, ainv) in alphas:
        spectrum.extend([a, ainv])
    cert = direct_sum_factorization(
        *[identity_factorization(F, 1)] * (n % 2),
        *(_diag_pair_cert(F, a) for (a, _) in alphas))
    return split_into_diagonal_parts(A, tuple(spectrum), cert,
                                     f"prop5.2(n={n})")


def _nonscalar_unipotent_split(A: Matrix) -> Factorization:
    """General route: A = B C with both parts unipotent; each part's
    Jordan blocks are certified separately and direct-summed.

    A part that is one Jordan block gets its Jordan data by substitution
    in the split's triangularizing basis; only another part is built
    and put through ``unipotent_jordan``."""
    F = A.field
    n = A.n
    ones = tuple([F.one()] * n)
    split = sourour_factor(A, ones, ones)
    parts = []
    for R, side in ((split.L, "b"), (split.U, "c")):
        jd = (single_block_jordan(split.T, split.T_inv, R)
              or unipotent_jordan(getattr(split, side)))
        cert = direct_sum_factorization(*(
            identity_factorization(F, 1) if size == 1
            else j21_factor(F) if size == 2 else jn1_factor(size, F)
            for size in jd.partition))
        parts.append(conjugate_factorization(cert, jd.transform_inverse,
                                             jd.transform))
    return concat_factorizations(
        A, parts, (split.route_tag(ones, ones), f"prop4.5(n={n})"))


# -- top-level dispatcher ---------------------------------------------------------

def factor(A: Matrix) -> Factorization:
    """Certificate for any A in SL_n(F) covered by the constructive
    routes; pair count is bounded by promised_max_pairs(F, n).

    This is the checked entry point.  The certificate is returned only
    if ``verify`` passes, its target is A and its pair count is within
    the promise; otherwise VerificationFailed carries the report.
    """
    F = A.field
    n = A.n
    if A.det() != F.one():
        raise NotSLn("determinant is not 1")
    if A.is_identity():
        # the empty certificate, even where no route (and no bound) exists
        return identity_factorization(F, n)
    if n == 2:
        out = factor_sl2(A)
    elif A.is_scalar():
        out = scalar_factor(A[0, 0], n)
    else:
        out = nonscalar_factor(A)
    bound = promised_max_pairs(F, n)
    report = verify(out)
    report.record("target equals input", out.target == A)
    report.record(f"pair count <= {bound}", out.pair_count() <= bound,
                  f"{out.pair_count()} pairs")
    if not report.passed:
        raise VerificationFailed(report)
    return out

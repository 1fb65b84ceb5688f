"""Exact arithmetic for GF(p), GF(p^k), and the rationals.

Elements carry a reference to their field descriptor and a canonical
representation: a residue in [0, p) for prime fields, for extension
fields the int code in [0, q) of the coefficient tuple (ascending
degree, each in [0, p)), its digits in base p with the constant
coefficient the most significant, and a reduced ``Fraction`` for the
rationals.  So over every finite field the elements in canonical order,
the sorted order of the tuples, are the ints 0, ..., q - 1.  All
witness-producing scans (square roots, sum-of-squares, pairings) walk
elements in that order so results are reproducible run to run.

Arithmetic on those representations lives in one class per field kind
(``PrimeArith``, ``ExtensionArith``, ``RationalArith``), which
``FieldSpec`` chooses when it is made.  Element operators, matrix
products, row operations and determinants (``det``) all call it, so no
algorithm outside this module makes a call per entry.  There is one
elimination for every kind, ``linalg.rref``, written on the row API
below.

A matrix is held as the kind's matrix form: over a finite field its
rows of reps, over Q canonical integer rows, which ``form`` makes from
rows of Fractions and ``reps`` reads back.  Every algorithm on matrices
works on the form's rows through one row API: ``row`` makes a row from
reps and ``row_entry`` reads one entry back; ``row_scale``,
``row_sub_scaled``, ``row_negate`` and ``row_divide`` compute;
``row_cut``, ``row_cat`` and ``row_push`` rearrange; ``lead_product``
and ``augment`` are their small products, besides ``chain``; and
``is_scalar``, ``is_lower``, ``primitive_columns``, ``diagonal`` and
``transpose`` read or make whole matrices.  Over a finite field a row
is a list of reps; over Q it is a row of the form, (d, ints), and no
row operation makes a ``Fraction``.  Their results are forms as they
stand.

Each class has one matrix product, ``chain``: mats[0] @ ... @ mats[-1]
evaluated right to left in one pass, a product of two being a chain of
two, on the form.  ``is_product`` runs the same chain and decides
whether it equals a given matrix without cutting the product into reps.
``shift`` makes X - lam I and lam I - X on the form.  GF(p) and GF(p^k)
share one packed chain and its exact zero test, GF(p) as the k = 1
case; ``_FiniteArith`` describes them.  What is each kind's own:

- Over GF(p) a rep is an int mod p, and a row operation is one
  comprehension of int arithmetic.  A chain of two with fewer than
  ``_PACK_MIN`` rows on the left or columns on the right, a
  matrix-vector product among them, takes one integer dot product per
  entry, reduced once, and ``is_product`` compares those with the
  target.
- Over GF(p^k) element products, inverses and negation go through
  log and antilog lists of a primitive element, indexed by code, O(q)
  entries built with one walk of its powers.  A sum is an XOR of codes
  for p = 2 and one Zech-logarithm lookup for odd p, so a row operation
  is an antilog lookup and an XOR or a Zech lookup per entry.  The
  packed chain maps codes to packed coefficients through one list per
  slot width, reduces each step mod the modulus by folds and cuts the
  coefficient slots back into codes.
- Over Q element operations use ``Fraction``.  A matrix form holds
  each row once as integers over one positive denominator, in lowest
  terms, so equal matrices have equal forms (``RationalArith``).  A
  chain takes the factors' integer rows as they are: the last factor's
  rows over their lcm cut into columns, each earlier factor read by
  row, and each column divided by its gcd between steps, so no chain
  clears an operand and the result's rows, over the first factor's row
  denominators, cost one ``gcd`` each, with no ``Fraction``.
  ``is_product`` compares the chain's columns with the target's rows by
  cross-multiplication.  X - I and 2I - X are one integer operation per
  row, and so is each computing operation of the row API, with one
  ``gcd``.  A determinant runs Bareiss's fraction-free elimination on
  the form's integer rows, one ``Fraction`` in all, and tokens are cut
  from the form too.  Entries are read back as Fractions only by
  ``reps`` and ``row_entry``, so ``linalg.rref`` makes one ``Fraction``
  per entry it reads: each pivot probe and each row's multiplier.

The finite kinds share their determinant, Gaussian elimination through
``row_sub_scaled``.  ``primitive`` is the scale that
``similarity_to_diagonal`` puts on each eigenvector, given as a row:
over Q a primitive integer vector with a positive last nonzero
coordinate, over a finite field the vector as it is.
``primitive_columns`` gives the columns of ``diagonalize_triangular``
the same scale, after dividing each by its last nonzero entry.
``height`` is the size by which the Sourour split ranks its pivots:
over Q the bits of numerator and denominator less the two of 1, over a
finite field 0 for every element.
``FieldSpec.element`` takes an int, a Fraction (a / b is a * b^-1 in a
finite field) or, over GF(p^k), a tuple or list of them as
coefficients; a float or any other type raises FieldError.  Tuples
appear only there and in tokens: every GF(p^k) rep is a code.

Every integer in a token or a field spec is an optional sign and ASCII
digits, and a Q token is such an integer and optionally ``/digits``.
Tokens convert by ``int`` and print by ``str``, and through ``decimal``
past Python's int <-> str digit limit, so they may have any length.

Each arith class answers ``sqrt`` and ``is_square`` with the first
root in canonical order.  Over GF(p) that is min(r, p - r) for the two
roots +-r, by Euler's criterion and Tonelli-Shanks, polylog(p) per
call.  Over GF(p^k) it is read from the log table: a = g^e is a square
iff e is even (p odd), with roots +-g^(e/2), the smaller code first,
and for p = 2 its one root is g^(e q/2).  Over Q it is the nonnegative
root.  ``FieldSpec``
keeps no element or square table, and the witness scans make elements
one at a time and stop at the first hit, so no O(q) table is built on
the factorization path beyond the log tables of GF(p^k).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional


class FieldError(Exception):
    pass


class NotPrime(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


class NoBuiltinModulus(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


class FieldTooSmall(FieldError):
    pass


class NotASquare(FieldError):
    pass


# Fixed irreducible moduli (ascending coefficients, monic) so element
# encodings are stable across runs.
BUILTIN_MODULI = {
    4: (1, 1, 1),          # x^2 + x + 1
    8: (1, 1, 0, 1),       # x^3 + x + 1
    9: (1, 0, 1),          # x^2 + 1
    16: (1, 1, 0, 0, 1),   # x^4 + x + 1
    25: (1, 1, 1),         # x^2 + x + 1
    27: (1, 2, 0, 1),      # x^3 + 2x + 1
}

# Extension fields build O(q) log, antilog and Zech tables when they are
# made, by walking the powers of candidate elements until one has order
# q - 1, and their witness scans may walk all q elements.  Larger q is
# refused up front, before the modulus is tested.
_MAX_EXTENSION_SIZE = 256


# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound (Sorenson & Webster, Math. Comp. 86, 2017; arXiv 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises FieldError for a probable prime
    at or above ``_MR_LIMIT``, where the bases no longer prove primality."""
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_LIMIT:
        raise FieldError(f"cannot certify that {p} is prime")
    return True


def _iroot(q: int, k: int) -> int:
    """Largest r with r**k <= q, for q >= 1."""
    lo, hi = 1, 1 << (q.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= q:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _prime_sqrt(a: int, p: int) -> Optional[int]:
    """Square root of the residue a mod p by Euler's criterion and
    Tonelli-Shanks (Shanks 1973): min(r, p - r), or None for a
    non-square."""
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


# -- dense polynomial helpers over GF(p), coefficients as plain ints --

def _ptrim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _pmod(a, m, p):
    # remainder of a mod monic-normalizable m over GF(p)
    a = list(a)
    dm = len(m) - 1
    lead_inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        a = _ptrim(a)
        if len(a) - 1 < dm:
            break
        coef = (a[-1] * lead_inv) % p
        shift = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * c) % p
        a = _ptrim(a)
    return _ptrim(a)


def _poly_is_irreducible(modulus, p: int) -> bool:
    """Brute-force irreducibility over GF(p): no monic factor of degree
    1..k//2 divides the modulus."""
    k = len(modulus) - 1
    if k < 1 or modulus[-1] % p == 0:
        return False
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            cand = list(tail) + [1]  # monic degree d
            if not _pmod(modulus, cand, p):
                return False
    return True


# -- one arithmetic class per field kind, on canonical reps ---------------
# FieldSpec picks one in __init__.  Every Matrix algorithm runs on the
# matrix form through it; FieldElement's operators hand it reps and wrap
# the result.

def _residue(value, p: int) -> int:
    """The residue of an int mod p, or of a Fraction a/b as a * b^-1;
    DivisionByZero when p divides b, FieldError for any other type."""
    if isinstance(value, int):
        return value % p
    if isinstance(value, Fraction):
        den = value.denominator % p
        if not den:
            raise DivisionByZero(f"{value} has a denominator divisible by {p}")
        return value.numerator * pow(den, -1, p) % p
    raise FieldError(f"cannot coerce {type(value).__name__} {value!r}: "
                     f"expected an int or a Fraction")


# A chain of two whose left factor has fewer rows, or whose right factor
# has fewer columns, than this takes one dot product per entry over GF(p)
# (``PrimeArith.chain``); a larger one is packed.  The packing costs
# about as much as it saves at 4 x 4 (several p, 2-vCPU VM).
_PACK_MIN = 5


def _has_product_shape(mats, target) -> bool:
    """Whether ``target`` has as many rows as mats[0] and, in each, as
    many entries as mats[-1] has columns (none when it has no rows), as
    the rows ``chain`` returns do."""
    last = mats[-1]
    cols = len(last[0]) if last else 0
    return len(target) == len(mats[0]) and all(
        map(cols.__eq__, map(len, target)))


def _dot_sized(a, b) -> bool:
    """Whether GF(p) takes a chain of the two factors a and b by dot
    products: fewer than ``_PACK_MIN`` rows in a or columns in b."""
    return len(a) < _PACK_MIN or not b or len(b[0]) < _PACK_MIN


class _FiniteArith:
    """What GF(p) and GF(p^k) share: eigenvectors keep their scale, the
    determinant is Gaussian elimination through ``row_sub_scaled``, the
    matrix form is the rows of reps (so ``form`` and ``reps`` return
    what they are given), and the product is one packed chain with one
    exact zero test, GF(p) being its k = 1 case.

    ``chain`` evaluates mats[0] @ ... @ mats[-1] right to left with no
    cut between steps (Kronecker substitution).  A rep becomes one int
    with coefficient i in bits [i w, (i+1) w), read from a list per
    width w (``ExtensionArith._pack``), and row t of the last factor
    one int with entry j in the superslot of 2k - 1 slots from bit
    j (2k - 1) w; over GF(p) a rep is its own int and a superslot one
    slot.  Each earlier factor maps the packed rows to new packed
    rows: its row i becomes the integer sum of packed a[i][t] times
    packed row t, so superslot j holds entry (i, j) as a polynomial of
    degree <= 2k - 2 with unreduced integer coefficients.  Over GF(p^k)
    each new row is then reduced mod the modulus f by ``_folds`` folds
    v = (v & LOW) + (v >> k w & HIGH) * G, with G the packed x^k mod f,
    LOW the low k slots and HIGH the low k - 1 slots of every
    superslot, which bring every entry to degree <= k - 1, packed as the
    next step needs it.  GF(p) has no folds.

    The width: a step with inner dimension n multiplies the coefficient
    bound by at most n k (p - 1), and a fold by at most 1 + k (p - 1),
    so ``_growth`` is k (p - 1) (1 + k (p - 1))^folds, p - 1 over GF(p).
    ``_bound`` is (p - 1) times ``_growth`` and the row count of every
    factor but the first, which over GF(p) is (p - 1)^L R for L factors
    and R the product of those row counts.  w is its bit length, so no
    slot of a partial or final product ever carries into the next.
    Only the result is cut, by each kind's ``_cut``: over GF(p) each
    entry is one shift, one mask and one reduction mod p, and over
    GF(p^k) the coefficients become codes.  An empty last factor has no
    columns, so each row of the product is empty, as over Q.

    ``is_product`` runs the same chain with w the bit length of the
    bound B plus p, and one spare bit.  Each packed row v of the product
    gets p in every slot added and the packed target row subtracted, so
    its slot j holds u_j = s_j + p - t_j, with 0 < u_j < 2^(w-1), and p
    divides u_j exactly when s_j = t_j mod p.  The row passes iff p
    divides v and v / p has the top b = bit_length(p) bits of every
    slot clear (HIGH).  If every u_j is p t_j, then t_j < 2^(w-1) / p
    <= 2^(w-b), so v / p has the slots t_j and passes.  Conversely, if
    v / p passes, each of its slots is below 2^(w-b), so p (v / p) does
    not carry and each slot of v is p times a slot of v / p.  Over
    GF(p^k) the test reads the coefficient slots after the folds.  A
    target of another shape is not the product.
    """

    __slots__ = ("p", "k", "zero", "one", "_xk", "_folds", "_growth",
                 "_shapes")

    def __init__(self, p: int, k: int, one: int, xk, folds: int):
        self.p, self.k, self.zero, self.one = p, k, 0, one
        self._xk, self._folds = xk, folds
        self._growth = k * (p - 1) * (1 + k * (p - 1)) ** folds
        self._shapes = {}

    def is_zero(self, a) -> bool:
        return a == 0

    def primitive(self, row):
        """The eigenvector scale over Q; a finite field keeps the row as
        it is."""
        return row

    def height(self, a) -> int:
        """The size the Sourour split ranks its pivots by: 0, the least,
        for every element of a finite field."""
        return 0

    def form(self, rows):
        """The matrix form ``chain`` takes: over a finite field the rows of
        reps as they are."""
        return rows

    def reps(self, form):
        """Rows of reps of a matrix form: the form itself."""
        return form

    # The row API: a row is a list (or tuple) of reps, so a row of a
    # form is one.

    # row_entry(row, i) and row_cut(row, slice) are both row[...]
    row_entry = row_cut = staticmethod(operator.getitem)

    def row(self, reps):
        """The row of a list of reps: the list itself."""
        return reps

    def row_cat(self, a, b) -> list:
        """The row a followed by the row b."""
        return [*a, *b]

    def row_push(self, v, row) -> list:
        """The row of v followed by row's entries."""
        return [v, *row]

    def row_divide(self, row, by) -> list:
        """The row of row[k] / by[k], for a row ``by`` with no zero."""
        mul, inv = self.mul, self.inv
        return [mul(x, inv(y)) for x, y in zip(row, by)]

    def lead_product(self, r, X, i) -> list:
        """The row r[:i] @ X[:i][:i], for X given as at least i rows."""
        return self.chain([[r[:i]], [x[:i] for x in X[:i]]])[0]

    def augment(self, rows, cols, rest, order) -> list:
        """Rows of [rows @ C | rest], for C given by its columns as rows,
        each with its entries taken in ``order``."""
        out = [[*c, *r] for c, r in
               zip(self.chain([rows, list(zip(*cols))]), rest)]
        if len(order) == 1:  # an itemgetter of one index returns no tuple
            return [[r[order[0]]] for r in out]
        return list(map(operator.itemgetter(*order), out))

    def is_scalar(self, rows) -> bool:
        """Whether the square matrix given as rows of reps is scalar."""
        d, is_zero = rows[0][0], self.is_zero
        return all(v == d if i == j else is_zero(v)
                   for i, row in enumerate(rows) for j, v in enumerate(row))

    def is_lower(self, rows) -> bool:
        """Whether the square matrix given as rows has no nonzero entry
        above its diagonal."""
        return all(map(self.is_zero, itertools.chain.from_iterable(
            r[i + 1:] for i, r in enumerate(rows))))

    def primitive_columns(self, rows, order) -> tuple:
        """(rows, scales): the columns ``order`` of the matrix given as
        rows, column order[k] multiplied by scales[k], the inverse of its
        last nonzero entry, so that it ends in 1, as ``primitive`` leaves
        it; no such column may be zero."""
        is_zero, inv = self.is_zero, self.inv
        cols = list(zip(*rows))
        cols = [cols[k] for k in order]
        scales = [inv(next(x for x in reversed(c) if not is_zero(x)))
                  for c in cols]
        cols = map(self.row_scale, cols, scales)
        return [list(r) for r in zip(*cols)], scales

    def tokens(self, form) -> list:
        """Rows of the tokens of a matrix given as its form."""
        token = self.token
        return [[token(x) for x in r] for r in form]

    def zeros(self, n: int) -> list:
        """Rows of the n x n zero matrix, one list shared by every row."""
        return [[self.zero] * n] * n

    def diagonal(self, entries) -> list:
        """Rows of the diagonal matrix with the given reps on its
        diagonal."""
        zero, n = self.zero, len(entries)
        return [[e if i == j else zero for j in range(n)]
                for i, e in enumerate(entries)]

    def transpose(self, rows) -> list:
        """Rows of the transpose of the matrix given as rows."""
        return [list(c) for c in zip(*rows)]

    def shift(self, rows, lam, negate=False) -> list:
        """Rows of X - lam I, or of lam I - X when ``negate``, for X
        given as rows of reps."""
        sub = self.sub
        if negate:
            out = [self.row_negate(r) for r in rows]
            for i, r in enumerate(out):
                r[i] = sub(lam, rows[i][i])
        else:
            out = [list(r) for r in rows]
            for i, r in enumerate(out):
                r[i] = sub(r[i], lam)
        return out

    def det(self, rows):
        """Determinant of square rows of reps.  The first nonzero entry
        in each column is the pivot, and entries left of the pivot
        column are never read again, so they are not updated."""
        work = [list(r) for r in rows]
        n, is_zero, mul = len(work), self.is_zero, self.mul
        det = self.one
        for col in range(n):
            pivot = next((r for r in range(col, n)
                          if not is_zero(work[r][col])), None)
            if pivot is None:
                return self.zero
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = self.neg(det)
            head = work[col][col]
            det = mul(det, head)
            inv = self.inv(head)
            tail = work[col][col + 1:]
            for row in work[col + 1:]:
                if not is_zero(row[col]):
                    row[col + 1:] = self.row_sub_scaled(
                        row[col + 1:], mul(row[col], inv), tail)
        return det

    def chain(self, mats) -> list:
        """Rows of mats[0] @ ... @ mats[-1], for factors given as rows of
        reps: the packed chain, cut once."""
        width = max(self._bound(mats).bit_length(), 1)
        acc, _, shape = self._packed_rows(mats, width)
        return self._cut(acc, width, shape[6])

    def is_product(self, mats, target) -> bool:
        """Whether mats[0] @ ... @ mats[-1] equals ``target``, all given
        as rows of reps, the target's rows lists as ``chain`` returns
        them, by the zero test on the packed rows of the product."""
        if not _has_product_shape(mats, target):
            return False
        p = self.p
        width = (self._bound(mats) + p).bit_length() + 1
        acc, pack, shape = self._packed_rows(mats, width)
        high, ps = shape[7:]
        for v, t in zip(acc, pack(target)):
            q, r = divmod(v + ps - t, p)
            if r or q & high:
                return False
        return True

    def _bound(self, mats) -> int:
        """The largest coefficient slot of the packed product."""
        bound = self.p - 1
        for m in mats[1:]:
            bound *= len(m) * self._growth
        return bound

    def _packed_rows(self, mats, width: int) -> tuple:
        """The rows of the product packed in slots of ``width`` bits and
        folded, the function that packs rows of reps likewise, and the
        ``_shape`` of the product."""
        last = mats[-1]
        key = width, len(last[0]) if last else 0
        shape = self._shapes.get(key) or self._shape(*key)
        at, xk, supers, low, high, kw, _, _, _ = shape
        mul, lshift, folds = operator.mul, operator.lshift, range(self._folds)

        def pack(rows):
            return [sum(map(lshift, r if at is None else map(at, r), supers))
                    for r in rows]

        acc = pack(last)
        for m in mats[-2::-1]:
            acc = [sum(map(mul, r if at is None else map(at, r), acc))
                   for r in m]
            for _ in folds:
                acc = [(v & low) + (v >> kw & high) * xk for v in acc]
        return acc, pack, shape

    def _shape(self, width: int, cols: int) -> tuple:
        """What ``chain`` and ``is_product`` need for slot width w and
        this number of columns, built once per (w, columns) and kept in
        ``_shapes``: the code -> packed int lookup (None over GF(p), where
        a rep packs as itself; over GF(p^k) the list ``_pack`` keeps per
        width), packed x^k mod f, the superslot offsets, the LOW and HIGH
        masks of the folds, the fold shift k w, the bit offsets of each
        coefficient i of every entry, one list per i, and the zero test's
        HIGH mask and p in every slot (None when w is below
        bit_length(p), as only a chain's width can be)."""
        p, k, w = self.p, self.k, width
        span = (2 * k - 1) * w
        supers = range(0, span * cols, span)
        # over GF(p) a superslot is one slot, holding the rep itself
        at = xk = None
        if k > 1:
            at = self._pack(w)[0].__getitem__
            xk = sum(c << i * w for i, c in enumerate(self._xk))
        shifts = [range(i * w, span * cols, span) for i in range(k)]
        # 1 in the lowest slot of every superslot, and in every slot
        full = (1 << span * cols) - 1
        unit, ones = full // ((1 << span) - 1), full // ((1 << w) - 1)
        b = p.bit_length()
        zero_test = ((((1 << b) - 1) << (w - b)) * ones, p * ones) \
            if w >= b else (None, None)
        shape = self._shapes[w, cols] = (
            at, xk, supers, ((1 << k * w) - 1) * unit,
            ((1 << (k - 1) * w) - 1) * unit, k * w, shifts, *zero_test)
        return shape


class PrimeArith(_FiniteArith):
    """GF(p): residues in [0, p), the k = 1 case of ``_FiniteArith``'s
    packed chain.  A chain of two with fewer than ``_PACK_MIN`` rows on
    the left or columns on the right is one integer dot product per
    entry, reduced mod p once, in ``chain`` and ``is_product`` alike:
    there packing costs more than it saves."""

    __slots__ = ()

    def __init__(self, p: int):
        super().__init__(p, 1, 1, None, 0)

    def coerce(self, value) -> int:
        return _residue(value, self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def row_scale(self, row, c) -> list:
        """c * row."""
        p = self.p
        return [x * c % p for x in row]

    def row_sub_scaled(self, row, c, other):
        """row - c * other, or row itself when c is zero."""
        if not c:
            return row
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, other)]

    def row_negate(self, row) -> list:
        """-row."""
        p = self.p
        return [-x % p for x in row]

    def _cut(self, acc, width: int, shifts) -> list:
        """Rows of residues of packed rows: each slot reduced mod p."""
        p, mask = self.p, (1 << width) - 1
        return [[(v >> s & mask) % p for s in shifts[0]] for v in acc]

    def chain(self, mats) -> list:
        """``_FiniteArith.chain``, or dot products for a small chain of
        two."""
        if len(mats) == 2:
            a, b = mats
            if _dot_sized(a, b):
                p, mul = self.p, operator.mul
                cols = list(zip(*b))
                return [[sum(map(mul, r, c)) % p for c in cols] for r in a]
        return _FiniteArith.chain(self, mats)

    def is_product(self, mats, target) -> bool:
        """``_FiniteArith.is_product``, or the dot products compared with
        the target for a small chain of two."""
        if len(mats) == 2 and _dot_sized(*mats):
            return self.chain(mats) == list(map(list, target))
        return _FiniteArith.is_product(self, mats, target)

    def sqrt(self, a):
        """The root min(r, p - r) of a by Tonelli-Shanks, or None."""
        return _prime_sqrt(a, self.p)

    def is_square(self, a) -> bool:
        """Euler's criterion; zero is a square."""
        p = self.p
        return p == 2 or not a or pow(a, (p - 1) // 2, p) == 1

    def token(self, a) -> str:
        return str(a)


class ExtensionArith(_FiniteArith):
    """GF(p^k) modulo the monic irreducible modulus f, each element one
    int, its code: the element c_0 + c_1 x + ... + c_(k-1) x^(k-1) has
    the code c_0 p^(k-1) + c_1 p^(k-2) + ... + c_(k-1), the digits of
    its coefficient tuple in base p with c_0 the most significant.  So
    the codes 0, ..., q - 1 are the tuples in sorted order, the canonical
    order, and comparing codes compares the tuples; one is p^(k-1) and x
    is p^(k-2).

    Element products, inverses, negation, square roots and row
    operations go through log and antilog lists of the first primitive
    element g in canonical order (Lidl & Niederreiter, Finite Fields,
    ch. 2), indexed by code and by exponent.  Zero's log is the sentinel
    S = 3(q - 1) - 2, and the antilog list holds zero from 2(q - 1) - 1
    up to 2S, so log a + log b indexes the product of any a and b
    without a branch on zero.  -a is a * (-1), and log(-1) is 0 for p = 2
    and (q - 1) / 2 otherwise.

    Sums: for p = 2 the digits are bits, so a + b = a - b is a ^ b.  For
    odd p a sum is one lookup in the Zech table Z (Huber, IEEE Trans. IT
    36(4), 1990): g^i + g^t = g^(i + Z(t - i)) with Z(d) = log(1 + g^d),
    the sentinel when 1 + g^d = 0.  ``_zech`` holds Z at every
    difference t - i that can occur with i a log (below q - 1, or S) and
    t below 2(q - 1) - 1 or from S to S + q - 2, as a list that negative
    differences index from its end: Z(d mod (q - 1)) when both are
    nonzero, d when a is zero (so the sum is g^t) and 0 when g^t is zero
    (so the sum is a).  Both zero land at S or above, which is zero.

    The tables are built once, O(q) entries: the walk x -> x g of each
    candidate g in canonical order, a k x k map over GF(p), until it
    returns to 1; the first walk of q - 1 steps is g's, and a candidate
    met in an earlier, shorter walk is skipped, as a power of an element
    of smaller order.  Products are ``_FiniteArith``'s packed chain,
    whose folds run through x^k mod f; ``_packs`` maps codes to the
    packed coefficients, one list per slot width, and ``_cut`` joins
    the coefficient slots back into codes.  Tokens print
    (c_0,...,c_(k-1)) from a list of them made with the tables.
    """

    __slots__ = ("_order", "_log", "_exp", "_neg_log", "_zech", "_tokens",
                 "_packs")

    def __init__(self, p: int, k: int, modulus):
        q, order, one = p ** k, p ** k - 1, p ** (k - 1)
        digits = list(itertools.product(range(p), repeat=k))  # by code
        # x^k mod f
        xk = tuple(-c % p for c in modulus[:k])
        mul, seen = operator.mul, set()
        for g in digits[1:]:  # the nonzero elements in canonical order
            if g in seen:
                continue
            cols = [g]  # x^i g mod f, i < k, the columns of the walk's map
            for _ in range(k - 1):
                c = cols[-1]
                cols.append(tuple([(a + c[-1] * m) % p
                                   for a, m in zip((0, *c[:-1]), xk)]))
            rows = list(zip(*cols))
            powers, x = [digits[one]], g
            while x != powers[0]:
                powers.append(x)
                x = tuple([sum(map(mul, r, x)) % p for r in rows])
            if len(powers) == order:
                break
            seen.update(powers)
        powers = list(map(dict(zip(digits, range(q))).__getitem__, powers))
        sentinel = 3 * order - 2
        self._order = order
        self._log = log = [sentinel, *sorted(range(order),
                                            key=powers.__getitem__)]
        self._exp = exp = powers + powers[:-1]
        exp += [0] * (2 * sentinel + 1 - len(exp))  # zero up to 2S
        self._neg_log = 0 if p == 2 else order // 2
        self._zech = None
        if p > 2:
            # log(1 + g^d): 1 adds one to the most significant digit
            wrap = (p - 1) * one
            zech = [log[c + one if c < wrap else c - wrap] for c in powers]
            # d = 0 .. 2(q-1) - 2, then up to S + q - 2 (b zero); from
            # the end d = -S .. -(q-1) (a zero), then -(q-2) .. -1
            self._zech = (zech + zech[:-1] + [0] * (sentinel - order + 1)
                          + list(range(-sentinel, -order + 1)) + zech[1:])
        self._tokens = [str(d).replace(" ", "") for d in digits]
        self._packs = {}
        # the folds that bring a product of two reps, degree <= 2k - 2,
        # down to degree <= k - 1: a fold maps degree d >= k to at most
        # max(k - 1, d - k + deg(x^k mod f)).
        top = max(i for i, c in enumerate(xk) if c)
        degree, folds = 2 * k - 2, 0
        while degree >= k:
            degree = max(k - 1, degree - k + top)
            folds += 1
        super().__init__(p, k, one, xk, folds)

    def coerce(self, value) -> int:
        """The code of an int or Fraction in the prime subfield, or of a
        tuple or list of them as coefficients, padded with zeros to
        length k."""
        p, k = self.p, self.k
        if not isinstance(value, (tuple, list)):
            return _residue(value, p) * self.one
        if len(value) > k:
            raise FieldError("coefficient vector has wrong length")
        code = 0
        for c in value:
            code = code * p + _residue(c, p)
        return code * p ** (k - len(value))

    def add(self, a, b):
        if self._zech is None:
            return a ^ b
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la]]

    def sub(self, a, b):
        if self._zech is None:
            return a ^ b
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] + self._neg_log - la]]

    def neg(self, a):
        return self._exp[self._log[a] + self._neg_log]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        return self._exp[-self._log[a] % self._order]

    def row_scale(self, row, c) -> list:
        """c * row, one antilog lookup per entry."""
        log, exp = self._log, self._exp
        lc = log[c]
        return [exp[lc + log[x]] for x in row]

    def row_sub_scaled(self, row, c, other):
        """row - c * other, or row itself when c is zero: per entry one
        antilog lookup and an XOR for p = 2, and for odd p x + (-c) y by
        one Zech lookup on log(-c) + log y, below 2(q - 1) - 1 or from
        the sentinel S on."""
        if not c:
            return row
        log, exp, zech = self._log, self._exp, self._zech
        if zech is None:
            lc = log[c]
            return [x ^ exp[lc + log[y]] for x, y in zip(row, other)]
        lc = (log[c] + self._neg_log) % self._order
        # lx is bound on the left of + before the right reads it
        return [exp[(lx := log[x]) + zech[lc + log[y] - lx]]
                for x, y in zip(row, other)]

    def row_negate(self, row) -> list:
        """-row, one antilog lookup per entry, a copy for p = 2."""
        if self._zech is None:
            return list(row)
        log, exp, shift = self._log, self._exp, self._neg_log
        return [exp[log[x] + shift] for x in row]

    def sqrt(self, a):
        """The first root of a = g^e in canonical order, or None.  For odd
        p, a is a square iff e is even, and its roots are g^(e/2) and
        -g^(e/2), the smaller code first.  For p = 2 every element is a
        square with one root, g^(e q/2 mod (q - 1)), as g^(e q) = g^e."""
        if not a:
            return a
        e, exp, order = self._log[a], self._exp, self._order
        if self.p == 2:
            return exp[e * (order + 1) // 2 % order]
        if e % 2:
            return None
        return min(exp[e // 2], exp[e // 2 + self._neg_log])

    def is_square(self, a) -> bool:
        """Whether log a is even; zero is a square, and for p = 2 every
        element is."""
        return self.p == 2 or not a or not self._log[a] % 2

    def token(self, a) -> str:
        return self._tokens[a]

    def _pack(self, width: int) -> tuple:
        """(pack, unpack) for slot width w, kept in ``_packs``: pack[code]
        is the packed int with coefficient i in bits [i w, (i+1) w),
        built digit by digit, c_0 first, with one list comprehension per
        digit; for p = 2 unpack is the dict back from packed ints to
        codes, and None otherwise."""
        out = self._packs.get(width)
        if out is None:
            pack = [0]
            for i in range(self.k):
                digit = [c << i * width for c in range(self.p)]
                pack = [a + b for a in pack for b in digit]
            out = self._packs[width] = pack, (
                dict(zip(pack, range(len(pack)))) if self.p == 2 else None)
        return out

    def _cut(self, acc, width: int, shifts) -> list:
        """Rows of codes of packed rows whose coefficient i of every
        entry sits at the offsets shifts[i].  For p = 2 a coefficient is
        its slot's low bit, so an entry's low bits, masked at once, are
        the packed int of its code, which the width's unpack dict reads
        back.  For odd p each slot is reduced mod p and the digits are
        joined into the code by Horner's rule, the first two in one
        pass."""
        pack, unpack = self._pack(width)
        if unpack is not None:
            low = pack[-1]  # the code of 1 + x + ... + x^(k-1)
            return [[unpack[v >> s & low] for s in shifts[0]] for v in acc]
        p, mask = self.p, (1 << width) - 1
        first, second, *rest = shifts
        out = []
        for v in acc:
            row = [(v >> s & mask) % p * p + (v >> t & mask) % p
                   for s, t in zip(first, second)]
            for offsets in rest:
                row = [c * p + (v >> s & mask) % p
                       for c, s in zip(row, offsets)]
            out.append(row)
        return out


def _clear_denominators(vec):
    """(d, integers) with vec == integers / d, where d is the lcm of the
    entries' denominators: in lowest terms, as for each prime power
    dividing d some entry's denominator has it whole, and that entry's
    integer is prime to it."""
    ratios = [x.as_integer_ratio() for x in vec]
    d = math.lcm(*[e for _, e in ratios])
    return d, [a * (d // e) for a, e in ratios]


def _lowest(d: int, ints) -> tuple:
    """(d, ints) for the vector ints / d, d > 0, in lowest terms: both
    divided by their gcd, ints as a tuple."""
    g = math.gcd(d, *ints)
    if g > 1:
        return d // g, tuple([x // g for x in ints])
    return d, tuple(ints)


def _common(vecs) -> tuple:
    """(L, ints) for vectors given as (d, ints): L the lcm of their
    denominators, and each vector's integers over L."""
    big = math.lcm(*[d for d, _ in vecs])
    return big, [v if d == big else [x * (big // d) for x in v]
                 for d, v in vecs]


def _digits(x: int) -> str:
    """The decimal digits of an int, with its sign: by ``str``, and
    through ``decimal`` past Python's int <-> str digit limit, where
    ``str`` raises ValueError (``_int`` reads them back the same way)."""
    try:
        return str(x)
    except ValueError:
        return str(Decimal(x))


def _ratio_token(num: int, den: int) -> str:
    """The token of num / den, den > 0, in lowest terms."""
    g = math.gcd(num, den)
    if g == den:
        return _digits(num // g)
    return f"{_digits(num // g)}/{_digits(den // g)}"


class RationalArith:
    """Q: reduced Fractions for elements, canonical integer rows for
    matrices and their rows.

    Element operations are ``Fraction``'s.  A matrix form holds each row
    once as integers over one positive denominator, (d, ints) with ints
    a tuple and gcd(d, *ints) = 1, so a zero row is (1, zeros).  A row
    has one such form: d must be the lcm of its entries' reduced
    denominators, since any other d with integer multiples is a
    multiple m > 1 of it, and m then divides d and all the integers.  So
    two matrices are equal iff their forms are equal tuples.  ``form``
    clears rows of Fractions to it (``_clear_denominators``) and
    ``reps`` reads the Fractions back, one per entry.

    ``chain`` and ``is_product`` take each factor's form as it is, so no
    product clears an operand.  ``_columns`` runs right to left on
    integer columns, each over its own denominator, with the last
    factor's rows over their lcm cut into columns and every earlier
    factor read by row; the first factor's row denominators stay with
    the rows of the result.  ``chain`` turns the columns into the
    product's form with one gcd per row and no ``Fraction``, and
    ``is_product`` compares them with the target's rows by
    cross-multiplication.
    ``shift`` makes X - lam I and lam I - X by one integer operation per
    row.  The row API (see the module docstring) works on rows of forms
    and returns them in lowest terms: each operation is one pass over
    the integers and one ``gcd``, where a row of Fractions takes one
    ``Fraction`` operation per entry (about 18 against 5 us for a
    6-entry row - c other with 60-bit entries, 2-vCPU VM).  ``row_cat``
    and ``row_push`` need no ``gcd`` at all, as the lcm of two rows in
    lowest terms keeps them so, and ``linalg.rref`` eliminates on such
    rows with ``row_scale`` and ``row_sub_scaled``.  ``det`` runs
    Bareiss's fraction-free elimination on the form's integer rows, so
    it makes one ``Fraction`` in all, and ``tokens`` prints the form's
    entries.  ``primitive``
    divides a row's integers by their gcd.  Tokens print by ``str``, and
    through ``decimal``, which has no digit limit, only past Python's
    int <-> str digit limit.
    """

    __slots__ = ()
    zero, one = Fraction(0), Fraction(1)

    def coerce(self, value) -> Fraction:
        if not isinstance(value, (int, Fraction)):
            raise FieldError(f"cannot coerce {type(value).__name__} "
                             f"{value!r}: expected an int or a Fraction")
        return Fraction(value)

    def is_zero(self, a) -> bool:
        return a == 0  # an int operand takes Fraction.__eq__'s fast path

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def height(self, a) -> int:
        """The size the Sourour split ranks its pivots by: the bits of a
        nonzero a's numerator and denominator, less the two of +-1, so
        that +-1 has 0, the least."""
        return a.numerator.bit_length() + a.denominator.bit_length() - 2

    def form(self, rows) -> tuple:
        """The form of rows of Fractions or ints: each row cleared to
        integers over the lcm of its entries' denominators."""
        return tuple([(d, tuple(ints))
                      for d, ints in map(_clear_denominators, rows)])

    def reps(self, form) -> list:
        """Rows of reduced Fractions of a matrix given as its form."""
        return [[Fraction(x) for x in r] if d == 1
                else [Fraction(x, d) for x in r] for d, r in form]

    # The row API: a row is a row of a form, (d, ints) in lowest terms,
    # and every operation returns one, so the rows an algorithm ends
    # with are a form as they stand.

    def row(self, reps) -> tuple:
        """The row of a list of Fractions or ints."""
        d, ints = _clear_denominators(reps)
        return d, tuple(ints)

    def row_entry(self, row, i) -> Fraction:
        d, ints = row
        return Fraction(ints[i], d)

    def row_cut(self, row, cols) -> tuple:
        """The row of row's entries in the slice ``cols``, divided by its
        gcd."""
        d, r = row
        return _lowest(d, r[cols])

    def row_cat(self, a, b) -> tuple:
        """The row a followed by the row b, over the lcm L of their
        denominators.  It is in lowest terms as it stands: for a prime
        power p^k exactly dividing L, the row whose denominator it
        divides has an integer prime to p, lifted by a factor prime to
        p."""
        (d, r), (e, s) = a, b
        if d == e:
            return d, r + s
        big = math.lcm(d, e)
        if big != d:
            r = tuple([x * (big // d) for x in r])
        if big != e:
            s = tuple([x * (big // e) for x in s])
        return big, r + s

    def row_push(self, v, row) -> tuple:
        """The row of v followed by row's entries: ``row_cat`` of v's
        row and row."""
        num, den = v.as_integer_ratio()
        d, r = row
        big = math.lcm(den, d)
        if big != d:
            r = tuple([x * (big // d) for x in r])
        return big, (num * (big // den),) + r

    def row_scale(self, row, c) -> tuple:
        """c * row, with one gcd."""
        num, den = c.as_integer_ratio()
        d, r = row
        return _lowest(d * den, [x * num for x in r])

    def row_sub_scaled(self, row, c, other) -> tuple:
        """row - c * other, or row itself when c is zero.  With c = a / b,
        row = r / d and other = o / e, both terms are put over
        lcm(d, b e), and the result is divided by its gcd: one ``gcd``
        besides the lcm's, and no ``Fraction``."""
        if not c:
            return row
        num, den = c.as_integer_ratio()
        (d, r), (e, o) = row, other
        be = den * e
        g = math.gcd(d, be)
        lift, lift_other = be // g, num * (d // g)
        return _lowest(d * lift, [x * lift - y * lift_other
                                  for x, y in zip(r, o)])

    def row_negate(self, row) -> tuple:
        d, r = row
        return d, tuple([-x for x in r])

    def row_divide(self, row, by) -> tuple:
        """The row of row[k] / by[k], for a row ``by`` with no zero: with
        row = s / d and by = g / e, entry k is s_k e / (d g_k), over d
        times the lcm G of the |g_k|."""
        (d, s), (e, g) = row, by
        big = math.lcm(*g)
        return _lowest(d * big, [x * e * (big // y) for x, y in zip(s, g)])

    def lead_product(self, r, X, i) -> tuple:
        """The row r[:i] @ X[:i][:i], for X given as at least i rows: the
        chain takes the cut rows over their denominators as they are,
        and its result is in lowest terms."""
        d, s = r
        return self.chain([[(d, s[:i])], [(e, x[:i]) for e, x in X[:i]]])[0]

    def augment(self, rows, cols, rest, order) -> list:
        """Rows of [rows @ C | rest], for C given by its columns as rows,
        each with its entries taken in ``order``: one pass and one gcd
        per row.  The columns are put over the lcm L of their
        denominators, so row r / d of ``rows`` gives the entries
        (r . c) / (d L), and the row s / e of ``rest`` joins them over
        the lcm of d L and e."""
        big, cols = _common(cols)
        mul, out = operator.mul, []
        for (d, r), (e, s) in zip(rows, rest):
            den = d * big
            lcm = den // math.gcd(den, e) * e
            lift, lift_rest = lcm // den, lcm // e
            ext = [sum(map(mul, r, c)) * lift for c in cols]
            ext += [x * lift_rest for x in s] if lift_rest > 1 else s
            out.append(_lowest(lcm, [ext[j] for j in order]))
        return out

    def is_scalar(self, form) -> bool:
        """Whether the square matrix given as its form is scalar: lam =
        a / b in lowest terms has the rows (b, a e_i), and zero the rows
        (1, 0)."""
        d0, (lam, *_) = form[0]
        return all(d == d0 and all(x == lam if i == j else not x
                                   for j, x in enumerate(r))
                   for i, (d, r) in enumerate(form))

    def is_lower(self, form) -> bool:
        """Whether the square matrix given as its form has no nonzero
        entry above its diagonal."""
        return not any(any(r[i + 1:]) for i, (_, r) in enumerate(form))

    def primitive_columns(self, form, order) -> tuple:
        """(rows, scales): the columns ``order`` of the matrix given as
        its form, column order[k] multiplied by scales[k] so that it is a
        primitive integer vector whose last nonzero entry is positive, as
        ``primitive`` leaves it; no such column may be zero.  The rows
        over the lcm L of their denominators are an integer matrix; each
        of its columns is divided by its gcd, signed, and the rows are
        integers over 1."""
        big, rows = _common(form)
        every = list(zip(*rows))
        scales, cols = [], []
        for c in (every[k] for k in order):
            g = math.gcd(*c)
            if next(x for x in reversed(c) if x) < 0:
                g = -g
            scales.append(Fraction(big, g))
            cols.append([x // g for x in c])
        return [(1, r) for r in zip(*cols)], scales

    def zeros(self, n: int) -> tuple:
        """The form of the n x n zero matrix."""
        return ((1, (0,) * n),) * n

    def diagonal(self, entries) -> list:
        """The form of the diagonal matrix with the given Fractions on
        its diagonal: a / b in lowest terms is the row (b, a e_i)."""
        n, out = len(entries), []
        for i, x in enumerate(entries):
            num, den = x.as_integer_ratio()
            out.append((den, (0,) * i + (num,) + (0,) * (n - 1 - i)))
        return out

    def transpose(self, form) -> list:
        """The form of the transpose: the rows over the lcm of their
        denominators, cut into columns, each divided by its gcd."""
        big, rows = _common(form)
        return [_lowest(big, c) for c in zip(*rows)]

    def shift(self, form, lam, negate=False) -> tuple:
        """The form of X - lam I, or of lam I - X when ``negate``, for X
        given as its form, with lam = a / b: row i becomes
        (b d, +-(b ints - a d e_i)).  For b = 1 that is canonical as it
        stands, as a common divisor of d and the new row divides the old
        row too, and a row that becomes zero was e_i over d = 1;
        otherwise each row is divided by its gcd."""
        num, den = lam.as_integer_ratio()
        sign = -1 if negate else 1
        lift, out = sign * den, []
        for i, (d, r) in enumerate(form):
            ints = [lift * x for x in r]
            ints[i] -= sign * num * d
            out.append(_lowest(den * d, ints) if den > 1 else (d, tuple(ints)))
        return tuple(out)

    def det(self, form) -> Fraction:
        """Determinant of a square matrix given as its form.

        Bareiss's fraction-free elimination (Math. Comp. 22, 1968) takes
        the determinant D of the form's integer rows, each over its own
        denominator d_i: after step k every entry is a (k+1) x (k+1)
        minor, so dividing by the previous pivot is exact and no ``gcd``
        runs.  The pivot is the first nonzero entry in its column, and a
        row swap flips D's sign.  The result is D / (d_0 ... d_(n-1)), one
        reduced ``Fraction``.
        """
        den, work = 1, []
        for d, ints in form:
            den *= d
            work.append(list(ints))
        n, sign, prev = len(work), 1, 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                return self.zero
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                sign = -sign
            tail = work[col][col + 1:]
            head = work[col][col]
            for row in work[col + 1:]:
                f = row[col]
                row[col + 1:] = [(head * x - f * y) // prev
                                 for x, y in zip(row[col + 1:], tail)]
            prev = head
        return Fraction(sign * prev, den)

    def chain(self, mats) -> tuple:
        """The form of mats[0] @ ... @ mats[-1], for factors given as
        forms; one factor is its own product.  With the columns of
        ``_columns`` put over the lcm L of their denominators, row i of
        the result is their integers at i over d_i L, divided by its gcd
        with d_i L: one gcd per row, no ``Fraction``.  An empty last
        factor has no columns, so each row of the product is empty.

        A row r / d times a matrix with rows s_j / e_j lifts r's entries
        instead, r_j L / e_j, and takes each column's dot product with
        them over d L: k lifts for a k-row matrix, not one per entry."""
        if len(mats) == 1:
            return mats[0]
        if len(mats) == 2 and len(mats[0]) == 1:
            ((d, r),), last = mats
            big = math.lcm(*[e for e, _ in last])
            lifted = [x * (big // e) for x, (e, _) in zip(r, last)]
            mul = operator.mul
            return (_lowest(d * big, [sum(map(mul, lifted, c)) for c in
                                      zip(*[s for _, s in last])]),)
        dens, cols = self._columns(mats)
        if not cols:
            return ((1, ()),) * len(dens)
        big, cols = _common(cols)
        return tuple([_lowest(d * big, r) for d, r in zip(dens, zip(*cols))])

    def is_product(self, mats, target) -> bool:
        """Whether mats[0] @ ... @ mats[-1] equals ``target``, all given as
        forms, with no ``Fraction`` built: entry c / (d_i e) of the
        product from ``_columns`` equals entry t / d of the target, all
        denominators positive, iff c d = t d_i e.  A target of another
        shape is not the product."""
        last = mats[-1]
        width = len(last[0][1]) if last else 0
        if len(target) != len(mats[0]) or any(
                len(t) != width for _, t in target):
            return False
        dens, cols = self._columns(mats)
        for j, (e, c) in enumerate(cols):
            for (d, t), di, x in zip(target, dens, c):
                if x * d != t[j] * di * e:
                    return False
        return True

    def _columns(self, mats) -> tuple:
        """(dens, cols) with entry (i, j) of mats[0] @ ... @ mats[-1] equal
        to c[i] / (dens[i] e) for cols[j] = (e, c), e > 0, for factors
        given as forms.

        The last factor's rows are put over the lcm of their
        denominators and cut into columns.  An earlier factor with rows
        r_i / d_i maps a column c / e to the column with entries
        (r_i . c) / (d_i e): integer dot products on the rows as the
        form holds them.  Between steps the entries are lifted to D / d_i
        over D e, D the lcm of the d_i (not at all when every d_i is D),
        and every column is divided by the gcd of its integers and its
        denominator, which keeps the integers as small as the column's
        value allows.  The first factor's row denominators are returned
        as ``dens`` instead, which the caller divides by once per row;
        with one factor they are all 1.
        """
        big, rows = _common(mats[-1])
        cols = [(big, c) for c in zip(*rows)]
        mul = operator.mul
        for m in mats[-2:0:-1]:
            big = math.lcm(*[d for d, _ in m])
            lifts = [big // d for d, _ in m]
            even = lifts.count(1) == len(lifts)
            rows = [r for _, r in m]
            step = []
            for e, c in cols:
                v = [sum(map(mul, r, c)) for r in rows]
                if not even:
                    v = list(map(mul, v, lifts))
                step.append(_lowest(big * e, v))
            cols = step
        if len(mats) == 1:
            return [1] * len(rows), cols
        rows = [r for _, r in mats[0]]
        return [d for d, _ in mats[0]], [
            (e, [sum(map(mul, r, c)) for r in rows]) for e, c in cols]

    def primitive(self, row) -> tuple:
        """The row scaled to a primitive integer vector (coprime integer
        coordinates) whose last nonzero coordinate is positive: its
        integers divided by their gcd, over 1.  A zero row is returned
        as is."""
        _, ints = row
        g = math.gcd(*ints)
        if not g:
            return row
        if next(x for x in reversed(ints) if x) < 0:
            g = -g
        return 1, tuple([x // g for x in ints])

    def sqrt(self, a):
        """The nonnegative root of a, or None."""
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        return Fraction(rn, rd) if rn * rn == num and rd * rd == den else None

    def is_square(self, a) -> bool:
        return self.sqrt(a) is not None

    def token(self, a) -> str:
        return _ratio_token(a.numerator, a.denominator)

    def tokens(self, form) -> list:
        """Rows of the tokens of a matrix given as its form, entry x / d
        printed in lowest terms as ``token`` prints it."""
        return [[_ratio_token(x, d) for x in r] for d, r in form]


class FieldSpec:
    """Descriptor for GF(p), GF(p^k), or Q: a plain value, immutable
    after construction.  ``arith`` is the field kind's arithmetic class,
    chosen here; it answers square roots too.  No element or square
    table is kept: ``elements``, ``nonzero_elements`` and ``squares``
    build theirs when asked, and ``iter_nonzero`` makes the elements one
    at a time.
    """

    __slots__ = ("kind", "p", "k", "modulus", "size", "arith", "_hash")

    def __init__(self, kind: str, p: int = 0, k: int = 1, modulus=None):
        if kind == "rational":
            self.kind, self.p, self.k = "rational", 0, 1
            self.modulus = None
            self.size = None
            self.arith = RationalArith()
        elif kind == "prime":
            if not _is_prime(p):
                raise NotPrime(f"{p} is not prime")
            self.kind, self.p, self.k = "prime", p, 1
            self.modulus = None
            self.size = p
            self.arith = PrimeArith(p)
        elif kind == "extension":
            if not _is_prime(p):
                raise NotPrime(f"{p} is not prime")
            if k < 2:
                raise FieldError("extension degree must be >= 2")
            q = p ** k
            if q > _MAX_EXTENSION_SIZE:
                raise FieldError(f"GF({q}) is too large: extension fields "
                                 f"need q <= {_MAX_EXTENSION_SIZE}")
            if modulus is None:
                if q not in BUILTIN_MODULI:
                    raise NoBuiltinModulus(f"no built-in modulus for GF({q})")
                modulus = BUILTIN_MODULI[q]
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree k")
            if not _poly_is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} reducible mod {p}")
            self.kind, self.p, self.k = "extension", p, k
            self.modulus = modulus
            self.size = q
            self.arith = ExtensionArith(p, k, modulus)
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self._hash = hash((self.kind, self.p, self.k, self.modulus))

    # identity -------------------------------------------------------
    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FieldSpec)
                and self.kind == other.kind and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FieldSpec({self.spec_string()})"

    @property
    def char(self) -> int:
        return self.p

    @property
    def is_finite(self) -> bool:
        return self.kind != "rational"

    def spec_string(self) -> str:
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"GF({self.p})"
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"GF({self.size};{coeffs})"

    # element construction -------------------------------------------
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.arith.zero)

    def one(self) -> "FieldElement":
        return FieldElement(self, self.arith.one)

    def element(self, value) -> "FieldElement":
        """Coerce an int, a Fraction, or over GF(p^k) a tuple or list of
        them as coefficients.  Over a finite field a / b is a * b^-1,
        DivisionByZero when p divides b; any other type, a float among
        them, raises FieldError."""
        return FieldElement(self, self.arith.coerce(value))

    def generator(self) -> "FieldElement":
        """The class of x in GF(p)[x]/(modulus), whose code is p^(k-2)."""
        if self.kind != "extension":
            raise FieldError("generator only defined for extension fields")
        return FieldElement(self, self.p ** (self.k - 2))

    # enumeration in canonical order ----------------------------------
    def elements(self) -> tuple:
        """Every element in canonical order, zero first."""
        return (self.zero(), *self.iter_nonzero())

    def nonzero_elements(self) -> tuple:
        return tuple(self.iter_nonzero())

    def iter_nonzero(self) -> Iterator["FieldElement"]:
        """Nonzero elements in canonical order, made one at a time: the
        reps 1, ..., q - 1, residues over GF(p) and codes over GF(p^k),
        whose order is the sorted order of the coefficient tuples."""
        if not self.is_finite:
            raise FieldError("cannot enumerate an infinite field")
        return (FieldElement(self, r) for r in range(1, self.size))

    def squares(self) -> frozenset:
        """S = {a^2 : a nonzero}, computed when asked."""
        return frozenset(a * a for a in self.iter_nonzero())


class FieldElement:
    """A canonical element of a FieldSpec; arithmetic is pure and exact."""

    __slots__ = ("field", "rep")

    def __init__(self, field: FieldSpec, rep):
        self.field = field
        self.rep = rep

    # helpers ----------------------------------------------------------
    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other)}")
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("elements belong to different fields")

    def is_zero(self) -> bool:
        return self.field.arith.is_zero(self.rep)

    def is_one(self) -> bool:
        return self == self.field.one()

    # arithmetic: each operator hands the reps to the field's arith class -
    def __add__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f.arith.add(self.rep, other.rep))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f.arith.sub(self.rep, other.rep))

    def __neg__(self):
        f = self.field
        return FieldElement(f, f.arith.neg(self.rep))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        return FieldElement(f, f.arith.mul(self.rep, other.rep))

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        f = self.field
        return FieldElement(f, f.arith.inv(self.rep))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = self.field.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    # identity ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.field._hash, self.rep))

    def __repr__(self):
        return f"<{self.token()} in {self.field.spec_string()}>"

    # serialization -------------------------------------------------------
    def token(self) -> str:
        return self.field.arith.token(self.rep)


def make_field(kind: str, p: int = 0, k: int = 1, modulus=None) -> FieldSpec:
    return FieldSpec(kind, p, k, modulus)


def GF(q: int, modulus=None) -> FieldSpec:
    """Convenience: GF(q) for prime or built-in prime-power q.  A modulus
    names an extension, so a prime q with one raises FieldError."""
    if _is_prime(q):
        if modulus is not None:
            raise FieldError(f"GF({q}) is a prime field and takes no modulus")
        return FieldSpec("prime", q)
    for k in range(2, max(q, 1).bit_length()):
        p = _iroot(q, k)
        if p ** k == q and _is_prime(p):
            return FieldSpec("extension", p, k, modulus)
    raise FieldError(f"{q} is not a prime power")


def rationals() -> FieldSpec:
    return FieldSpec("rational")


# -- token grammar ------------------------------------------------------------
# One integer pattern, an optional sign and ASCII digits, serves every
# integer in a field spec, an element token and a matrix file's dimension
# line.

_INT = r"[+-]?[0-9]+"
_INT_LIST = rf"({_INT}(?:\s*,\s*{_INT})*)"
_INT_RE = re.compile(_INT)
# GF(7), GF(9;1,0,1)
_SPEC_RE = re.compile(rf"GF\(\s*({_INT})\s*(?:;\s*{_INT_LIST}\s*)?\)")
# An extension element: a coefficient tuple such as (1,2).
_EXT_TOKEN_RE = re.compile(rf"\(\s*{_INT_LIST}\s*\)")
# A Q token: an integer, and optionally "/" and digits.
_Q_TOKEN_RE = re.compile(rf"({_INT})(?:/([0-9]+))?")


def is_int_token(text: str) -> bool:
    return _INT_RE.fullmatch(text) is not None


def parse_int(token: str) -> int:
    """The value of an integer token; FieldError for any other text."""
    if not is_int_token(token):
        raise FieldError(f"bad integer token {token!r}: expected ASCII "
                         f"digits with an optional sign")
    return _int(token)


def _int(digits: str) -> int:
    """The value of text the integer grammar has accepted: by ``int``,
    and through ``decimal`` past Python's int <-> str digit limit."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _parse_ints(text: str) -> tuple:
    return tuple(map(_int, _INT_RE.findall(text)))


def parse_field_spec(text: str) -> FieldSpec:
    text = text.strip()
    if text == "Q":
        return rationals()
    m = _SPEC_RE.fullmatch(text)
    if not m:
        raise FieldError(f"cannot parse field spec {text!r}")
    q = _int(m.group(1))
    if m.group(2) is None:
        return GF(q)
    return GF(q, _parse_ints(m.group(2)))


def parse_rep(field: FieldSpec, token: str):
    """The canonical rep of an element token; FieldError for any text
    outside the token grammar."""
    token = token.strip()
    arith = field.arith
    if field.kind == "rational":
        m = _Q_TOKEN_RE.fullmatch(token)
        if not m:
            raise FieldError(f"bad rational token {token!r}: expected an "
                             f"integer or p/q")
        den = 1 if m.group(2) is None else _int(m.group(2))
        if den == 0:
            raise FieldError(f"zero denominator in {token!r}")
        return arith.coerce(Fraction(_int(m.group(1)), den))
    if field.kind == "prime" or is_int_token(token):
        # over GF(p^k), an integer is the prime-subfield embedding
        return arith.coerce(parse_int(token))
    m = _EXT_TOKEN_RE.fullmatch(token)
    if not m:
        raise FieldError(f"bad extension element token {token!r}")
    return arith.coerce(_parse_ints(m.group(1)))


def parse_element(field: FieldSpec, token: str) -> FieldElement:
    return FieldElement(field, parse_rep(field, token))


# -- number-theoretic predicates the factorization routes branch on -------

def sqrt(a: FieldElement) -> Optional[FieldElement]:
    """Some b with b*b == a, or None, from the field's arith class:
    deterministically the first root in canonical order for finite
    fields, which over GF(p) is min(r, p - r), and the nonnegative root
    over Q."""
    root = a.field.arith.sqrt(a.rep)
    return None if root is None else FieldElement(a.field, root)


def is_square(a: FieldElement) -> bool:
    """Whether a is a square, zero included, from the field's arith
    class."""
    return a.field.arith.is_square(a.rep)


def sum_of_two_nonzero_squares(target: FieldElement):
    """Nonzero (a, b) with a^2 + b^2 == target, or None.

    Canonical scan over a, stopping at the first a for which
    target - a^2 is a nonzero square.  Over Q the only supported use is
    target = -1, which has no solution (ordered field).
    """
    f = target.field
    if f.kind == "rational":
        return None
    for a in f.iter_nonzero():
        need = target - a * a
        if need.is_zero():
            continue
        b = sqrt(need)
        if b is not None:
            return (a, b)
    return None


def square_ne_inverse_witness(F: FieldSpec, order: int = 4) -> FieldElement:
    """First nonzero b (canonical order) with b^order != 1, and 2 over Q.

    At the default order 4 that is b^2 != b^-2.  FieldTooSmall when
    x^order = 1 on all of GF(q)^x, that is when q - 1 divides order.
    """
    if F.kind == "rational":
        return F.element(2)
    one = F.one()
    for b in F.iter_nonzero():
        if b ** order != one:
            return b
    raise FieldTooSmall(f"no such witness in GF({F.size})")


class SquareClassData:
    """Partition of the nonzero squares S into exceptional set E and
    mutually-inverse pairs (alpha, alpha^-1).

    ``iter_pairs`` streams the pairs: it scans the nonzero elements in
    canonical order, keeps the squares outside E that are not the
    inverse of an earlier alpha, and yields (alpha, alpha^-1).  ``S``
    and the full ``pairs`` tuple are built only when read (None over Q).
    """

    def __init__(self, field: FieldSpec, E: frozenset):
        self.field = field
        self.E = E

    def iter_pairs(self) -> Iterator[tuple]:
        F = self.field
        if not F.is_finite:
            for m in itertools.count(2):
                a = F.element(Fraction(m * m))
                yield (a, a.inverse())
        used = set()
        for a in F.iter_nonzero():
            if a in self.E or not is_square(a):
                continue
            if a in used:
                used.discard(a)
                continue
            inv = a.inverse()
            used.add(inv)
            yield (a, inv)

    @cached_property
    def S(self) -> Optional[frozenset]:
        return self.field.squares() if self.field.is_finite else None

    @cached_property
    def pairs(self) -> Optional[tuple]:
        F = self.field
        if not F.is_finite:
            return None
        pairs = tuple(self.iter_pairs())
        q = F.size
        expected = (q - 2) // 2 if F.p == 2 else \
            ((q - 3) // 4 if len(self.E) == 1 else (q - 5) // 4)
        if len(pairs) != expected:
            raise FieldError(f"GF({q}) gave {len(pairs)} inverse square "
                             f"pairs, expected {expected}")
        return pairs


def square_class_pairing(F: FieldSpec) -> SquareClassData:
    if F.kind == "rational":
        # -1 is not a rational square, so E = {1}.
        return SquareClassData(F, frozenset({F.one()}))
    if F.size in (2, 3, 5):
        raise FieldTooSmall(f"GF({F.size}) has no inverse-pair decomposition")
    one = F.one()
    if F.p == 2 or not is_square(-one):
        return SquareClassData(F, frozenset({one}))
    return SquareClassData(F, frozenset({one, -one}))

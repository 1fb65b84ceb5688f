"""Exact arithmetic for GF(p), GF(p^k), and the rationals.

Elements carry a reference to their field descriptor and a canonical
representation: a residue in [0, p) for prime fields, a coefficient
tuple (ascending degree, each in [0, p)) for extension fields, and a
reduced ``Fraction`` for the rationals.  All witness-producing scans
(square roots, sum-of-squares, pairings) walk elements in a fixed
canonical order so results are reproducible run to run.

Arithmetic on those representations lives in one class per field kind
(``PrimeArith``, ``ExtensionArith``, ``RationalArith``), which
``FieldSpec`` chooses when it is made.  Element operators, matrix
products, row operations (``scale``, ``sub_scaled``) and determinants
(``det``) all call it, so no elimination outside this module makes a
call per entry.

Each class has one matrix product, ``chain``: mats[0] @ ... @ mats[-1]
evaluated right to left in one pass, a product of two being a chain of
two, on the kind's matrix form.  Over a finite field the form is the
rows of reps; over Q it is canonical integer rows, which ``form`` makes
from rows of Fractions and ``reps`` reads back.  ``is_product`` runs the
same chain and decides whether it equals a given matrix without cutting
the product into reps.  ``shift`` makes X - lam I and lam I - X on the
form, and ``product_reps`` multiplies two matrices given as rows of
reps, as the entry-level algorithms hold them.  GF(p) and GF(p^k) share
one packed chain and its exact zero test, GF(p) as the k = 1 case;
``_FiniteArith`` describes both.  What is each kind's own:

- Over GF(p) a rep is an int mod p, and a row operation is one
  comprehension of int arithmetic.  A chain of two with fewer than
  ``_PACK_MIN`` rows on the left or columns on the right, a
  matrix-vector product among them, takes one integer dot product per
  entry, reduced once, and ``is_product`` compares those with the
  target.
- Over GF(p^k) element products, inverses and negation go through
  log/antilog tables of a primitive element, O(q) entries built from
  q - 1 polynomial products; a row operation is one antilog lookup and
  one coefficient-wise difference per entry.  The packed chain reduces
  each step mod the modulus by folds.
- Over Q element operations and row operations use ``Fraction``.  A
  matrix form holds each row once as integers over one positive
  denominator, in lowest terms, so equal matrices have equal forms
  (``RationalArith``).  A chain takes the factors' integer rows as they
  are: the last factor's rows over their lcm cut into columns, each
  earlier factor read by row, and each column divided by its gcd
  between steps, so no chain clears an operand and the result's rows,
  over the first factor's row denominators, cost one ``gcd`` each, with
  no ``Fraction``.  ``is_product`` compares
  the chain's columns with the target's rows by cross-multiplication.
  X - I and 2I - X are one integer operation per row.
  ``product_reps`` clears each row of its left factor and each column
  of its right one over their own common denominator, one ``Fraction``
  per entry.  A determinant clears each row of reps and runs Bareiss's
  fraction-free elimination, one ``Fraction`` in all.

The finite kinds share their determinant, Gaussian elimination through
``sub_scaled``.  ``primitive`` is the scale that
``similarity_to_diagonal`` and ``diagonalize_triangular`` put on each
eigenvector: over Q a primitive integer vector with a positive last
nonzero coordinate, over a finite field the vector as it is.
``FieldSpec.element`` takes an int, a Fraction (a / b is a * b^-1 in a
finite field) or, over GF(p^k), a tuple or list of them as
coefficients; a float or any other type raises FieldError.

Every integer in a token or a field spec is an optional sign and ASCII
digits, and a Q token is such an integer and optionally ``/digits``.
Tokens convert by ``int``, and through ``decimal`` past Python's
int <-> str digit limit, so they may have any length.

Over GF(p) the square root of a is min(r, p - r) for the two roots
+-r, which is the first root in canonical order.  Prime-field
predicates (primality, squareness, square roots) cost polylog(p) per
call, and the witness scans make elements one at a time and stop at
the first hit, so no GF(p) element table is built on the
factorization path.  Extension fields (q <= 27 built in, q up to
``_MAX_EXTENSION_SIZE`` with a user modulus) keep their element and
square tables.
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

# Extension fields build O(q) log/antilog tables when they are made, from
# q - 1 polynomial products (about 5 ms at q = 256 and 2.7 s at q = 2^16 on
# a 2-vCPU VM), and their square roots and witness scans walk all q
# elements.  Larger q is refused up front, before the modulus is tested.
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


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


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


def _pmulmod(a, b, modulus, p) -> tuple:
    """a * b mod the monic modulus over GF(p), as a coefficient tuple of
    length deg(modulus)."""
    prod = _pmod(_pmul(_ptrim(list(a)), _ptrim(list(b)), p), modulus, p)
    return tuple(prod) + (0,) * (len(modulus) - 1 - len(prod))


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
# FieldSpec picks one in __init__.  Every Matrix algorithm runs on reps
# through it; FieldElement's operators hand it reps and wrap the result.

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
    determinant is Gaussian elimination through ``sub_scaled``, the
    matrix form is the rows of reps (``reps_are_form``, so ``form`` and
    ``reps`` return what they are given), and the product is one packed
    chain with one exact zero test, GF(p) being its k = 1 case.

    ``chain`` evaluates mats[0] @ ... @ mats[-1] right to left with no
    cut between steps (Kronecker substitution).  A rep becomes one int
    with coefficient i in bits [i w, (i+1) w), and row t of the last
    factor one int with entry j in the superslot of 2k - 1 slots from
    bit j (2k - 1) w; over GF(p) a rep is its own int and a superslot
    one slot.  Each earlier factor maps the packed rows to new packed
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
    Only the result is cut: each coefficient is one shift, one mask and
    one reduction mod p.  An empty last factor has no columns, so each
    row of the product is empty, as over Q.

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
    reps_are_form = True

    def __init__(self, p: int, k: int, zero, one, xk, folds: int):
        self.p, self.k, self.zero, self.one = p, k, zero, one
        self._xk, self._folds = xk, folds
        self._growth = k * (p - 1) * (1 + k * (p - 1)) ** folds
        self._shapes = {}

    def primitive(self, vec):
        """The eigenvector scale over Q; a finite field keeps vec as is."""
        return vec

    def form(self, rows):
        """The matrix form ``chain`` takes: over a finite field the rows of
        reps as they are."""
        return rows

    def reps(self, form):
        """Rows of reps of a matrix form: the form itself."""
        return form

    def product_reps(self, a, b) -> list:
        """Rows of reps of a @ b, for a and b given as rows of reps: the
        chain of two."""
        return self.chain([a, b])

    def zeros(self, n: int) -> list:
        """Rows of the n x n zero matrix, one list shared by every row."""
        return [[self.zero] * n] * n

    def shift(self, rows, lam, negate=False) -> list:
        """Rows of X - lam I, or of lam I - X when ``negate``."""
        sub = self.sub
        if negate:
            out = [self.negate(r) for r in rows]
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
                    row[col + 1:] = self.sub_scaled(
                        row[col + 1:], mul(row[col], inv), tail)
        return det

    def chain(self, mats) -> list:
        """Rows of mats[0] @ ... @ mats[-1], for factors given as rows of
        reps: the packed chain, cut once."""
        width = max(self._bound(mats).bit_length(), 1)
        acc, _, shape = self._packed_rows(mats, width)
        p, k, mask, shifts = self.p, self.k, (1 << width) - 1, shape[6]
        if k == 1:
            return [[(v >> s & mask) % p for s in shifts] for v in acc]
        # each row's coefficients in order, cut into consecutive k-tuples
        return [list(zip(*[iter([(v >> s & mask) % p for s in shifts])] * k))
                for v in acc]

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
        ``_shapes``: the rep -> packed int lookup (None over GF(p), where
        a rep packs as itself), packed x^k mod f, the superslot offsets,
        the LOW and HIGH masks of the folds, the fold shift k w, the bit
        offset of every coefficient, and the zero test's HIGH mask and p
        in every slot (None when w is below bit_length(p), as only a
        chain's width can be)."""
        p, k, w = self.p, self.k, width
        span = (2 * k - 1) * w
        supers = range(0, span * cols, span)
        # over GF(p) a superslot is one slot, holding the rep itself
        at = xk = None
        shifts = supers
        if k > 1:
            offsets = range(0, k * w, w)
            table = {x: sum(map(operator.lshift, x, offsets))
                     for x in self._log}
            at, xk = table.__getitem__, table[self._xk]
            shifts = [s + i for s in supers for i in offsets]
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
        super().__init__(p, 1, 0, 1, None, 0)

    def coerce(self, value) -> int:
        return _residue(value, self.p)

    def is_zero(self, a) -> bool:
        return a == 0

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

    def scale(self, row, c) -> list:
        """c * row."""
        p = self.p
        return [x * c % p for x in row]

    def sub_scaled(self, row, c, other):
        """row - c * other, or row itself when c is zero."""
        if not c:
            return row
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, other)]

    def negate(self, row) -> list:
        """-row."""
        p = self.p
        return [-x % p for x in row]

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

    def token(self, a) -> str:
        return str(a)


class ExtensionArith(_FiniteArith):
    """GF(p^k): coefficient tuples (ascending degree) modulo the monic
    irreducible modulus f.

    Element products, inverses, negation and row operations go through
    log/antilog tables of the first primitive element g in canonical
    order (Lidl & Niederreiter, Finite Fields, ch. 2), built once with
    q - 1 polynomial products.  Zero's log is the sentinel 2(q - 1) - 1
    and the antilog table holds zero from that index on, so log a +
    log b indexes the product of any a and b without a branch on zero.
    -a is a * (-1), and log(-1) is 0 for p = 2 and (q - 1) / 2 otherwise.
    Sums stay coefficient-wise mod p.  Products are ``_FiniteArith``'s
    packed chain, whose folds run through x^k mod f.
    """

    __slots__ = ("_order", "_log", "_exp", "_neg_log")

    def __init__(self, p: int, k: int, modulus):
        order = p ** k - 1
        zero, one = (0,) * k, (1,) + (0,) * (k - 1)
        for g in itertools.product(range(p), repeat=k):
            if g == zero:
                continue
            powers, x = [one], g
            while x != one:
                powers.append(x)
                x = _pmulmod(x, g, modulus, p)
            if len(powers) == order:
                break
        self._order = order
        self._log = {x: i for i, x in enumerate(powers)}
        self._log[zero] = 2 * order - 1
        self._exp = powers + powers[:-1] + [zero] * (2 * order)
        self._neg_log = 0 if p == 2 else order // 2
        # x^k mod f, and the folds that bring a product of two reps,
        # degree <= 2k - 2, down to degree <= k - 1: a fold maps degree
        # d >= k to at most max(k - 1, d - k + deg(x^k mod f)).
        xk = tuple(-c % p for c in modulus[:k])
        top = max(i for i, c in enumerate(xk) if c)
        degree, folds = 2 * k - 2, 0
        while degree >= k:
            degree = max(k - 1, degree - k + top)
            folds += 1
        super().__init__(p, k, zero, one, xk, folds)

    def coerce(self, value) -> tuple:
        """An int or Fraction in the prime subfield, or a tuple or list
        of them as coefficients, padded with zeros to length k."""
        if not isinstance(value, (tuple, list)):
            return (_residue(value, self.p),) + self.zero[1:]
        rep = tuple(_residue(c, self.p) for c in value)
        if len(rep) < self.k:
            rep = rep + self.zero[len(rep):]
        if len(rep) != self.k:
            raise FieldError("coefficient vector has wrong length")
        return rep

    def is_zero(self, a) -> bool:
        return a == self.zero

    def add(self, a, b):
        return tuple(map(self.p.__rmod__, map(operator.add, a, b)))

    def sub(self, a, b):
        return tuple(map(self.p.__rmod__, map(operator.sub, a, b)))

    def neg(self, a):
        return self._exp[self._log[a] + self._neg_log]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        return self._exp[-self._log[a] % self._order]

    def scale(self, row, c) -> list:
        """c * row, one antilog lookup per entry."""
        log, exp = self._log, self._exp
        lc = log[c]
        return [exp[lc + log[x]] for x in row]

    def sub_scaled(self, row, c, other):
        """row - c * other, or row itself when c is zero: one antilog
        lookup and one coefficient-wise difference per entry."""
        if c == self.zero:
            return row
        log, exp, sub = self._log, self._exp, operator.sub
        mod_p = self.p.__rmod__  # mod_p(x) is x % p
        lc = log[c]
        return [tuple(map(mod_p, map(sub, x, exp[lc + log[y]])))
                for x, y in zip(row, other)]

    def negate(self, row) -> list:
        """-row, one antilog lookup per entry."""
        log, exp, shift = self._log, self._exp, self._neg_log
        return [exp[log[x] + shift] for x in row]

    def token(self, a) -> str:
        return "(" + ",".join(str(c) for c in a) + ")"


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


class RationalArith:
    """Q: reduced Fractions for elements and rows, canonical integer rows
    for matrices.

    Element operations and row operations (``scale``, ``sub_scaled``,
    ``negate``) are ``Fraction``'s.  A matrix form holds each row once as
    integers over one positive denominator, (d, ints) with ints a tuple
    and gcd(d, *ints) = 1, so a zero row is (1, zeros).  A row has one
    such form: d must be the lcm of its entries' reduced denominators,
    since any other d with integer multiples is a multiple m > 1 of it,
    and m then divides d and all the integers.  So two matrices are
    equal iff their forms are equal tuples.  ``form`` clears rows of
    Fractions to it (``_clear_denominators``) and ``reps`` reads the
    Fractions back, one per entry.

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
    row.  ``product_reps`` multiplies rows of Fractions as the
    entry-level algorithms hold them, without forms: going through
    ``form`` and ``reps`` costs 1.6 to 2.1 times as much on their small
    vector products.  ``det`` clears each row of reps to integers and
    runs Bareiss's fraction-free elimination, so it makes one
    ``Fraction`` in all.  ``primitive`` clears a vector's denominators
    and divides out the gcd of its coordinates.  Tokens convert through
    ``decimal``, which has no digit limit.
    """

    __slots__ = ()
    zero, one = Fraction(0), Fraction(1)
    reps_are_form = False

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

    def scale(self, row, c) -> list:
        """c * row."""
        return [x * c for x in row]

    def sub_scaled(self, row, c, other):
        """row - c * other, or row itself when c is zero."""
        if c == 0:
            return row
        return [x - c * y for x, y in zip(row, other)]

    def negate(self, row) -> list:
        """-row."""
        return [-x for x in row]

    def form(self, rows) -> tuple:
        """The form of rows of Fractions or ints: each row cleared to
        integers over the lcm of its entries' denominators."""
        return tuple([(d, tuple(ints))
                      for d, ints in map(_clear_denominators, rows)])

    def reps(self, form) -> list:
        """Rows of reduced Fractions of a matrix given as its form."""
        return [[Fraction(x) for x in r] if d == 1
                else [Fraction(x, d) for x in r] for d, r in form]

    def product_reps(self, a, b) -> list:
        """Rows of reps of a @ b, for a and b given as rows of reps, as the
        entry-level algorithms hold them: each row of a and each column
        of b is cleared to integers over the lcm of its own
        denominators, so entry (i, j) is one integer dot product over
        d_i d_j, one reduced ``Fraction``.  A form would clear b by rows
        and then cut it into columns, which costs 1.6 to 2.1 times as
        much on the vector products these algorithms make."""
        rows = [_clear_denominators(r) for r in a]
        cols = [_clear_denominators(c) for c in zip(*b)]
        mul = operator.mul
        return [[Fraction(sum(map(mul, r, c)), dr * dc) for dc, c in cols]
                for dr, r in rows]

    def zeros(self, n: int) -> tuple:
        """The form of the n x n zero matrix."""
        return ((1, (0,) * n),) * n

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

    def det(self, rows) -> Fraction:
        """Determinant of square rows of reps.

        Row i is cleared to integers over its own denominator d_i, and
        Bareiss's fraction-free elimination (Math. Comp. 22, 1968) takes
        the determinant D of the integer rows: after step k every entry
        is a (k+1) x (k+1) minor, so dividing by the previous pivot is
        exact and no ``gcd`` runs.  The pivot is the first nonzero entry
        in its column, and a row swap flips D's sign.  The result is
        D / (d_0 ... d_(n-1)), one reduced ``Fraction``.
        """
        den, work = 1, []
        for r in rows:
            d, ints = _clear_denominators(r)
            den *= d
            work.append(ints)
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
        factor has no columns, so each row of the product is empty."""
        if len(mats) == 1:
            return mats[0]
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

    def primitive(self, vec) -> list:
        """vec scaled to a primitive integer vector (coprime integer
        coordinates) whose last nonzero coordinate is positive; a zero
        vec is returned as is."""
        _, ints = _clear_denominators(vec)
        g = math.gcd(*ints)
        if not g:
            return vec
        if next(x for x in reversed(ints) if x) < 0:
            g = -g
        return [Fraction(x // g) for x in ints]

    def token(self, a) -> str:
        if a.denominator == 1:
            return str(Decimal(a.numerator))
        return f"{Decimal(a.numerator)}/{Decimal(a.denominator)}"


class FieldSpec:
    """Descriptor for GF(p), GF(p^k), or Q.

    Immutable after construction.  ``arith`` is the field kind's
    arithmetic class, chosen here; element and square tables are built
    lazily.
    """

    __slots__ = ("kind", "p", "k", "modulus", "size", "arith", "_elements",
                 "_squares", "_sqrt_of", "_hash")

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
        self._elements = None
        self._squares = None
        self._sqrt_of = None
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
        """The class of x in GF(p)[x]/(modulus)."""
        if self.kind != "extension":
            raise FieldError("generator only defined for extension fields")
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    # enumeration in canonical order ----------------------------------
    def elements(self):
        if not self.is_finite:
            raise FieldError("cannot enumerate an infinite field")
        if self._elements is None:
            if self.kind == "prime":
                elems = [FieldElement(self, r) for r in range(self.p)]
            else:
                elems = [FieldElement(self, rep) for rep in
                         sorted(itertools.product(range(self.p),
                                                  repeat=self.k))]
            self._elements = tuple(elems)
        return self._elements

    def nonzero_elements(self):
        return tuple(e for e in self.elements() if not e.is_zero())

    def iter_nonzero(self) -> Iterator["FieldElement"]:
        """Nonzero elements in canonical order; over GF(p) they are made
        one at a time, without the element table."""
        if self.kind == "prime":
            return (FieldElement(self, r) for r in range(1, self.p))
        return iter(self.nonzero_elements())

    def squares(self) -> frozenset:
        """S = {a^2 : a nonzero}, with a canonical root recorded per entry."""
        if self._squares is None:
            sqrt_of = {}
            for a in self.nonzero_elements():
                s = a * a
                sqrt_of.setdefault(s, a)
            self._squares = frozenset(sqrt_of)
            self._sqrt_of = sqrt_of
        return self._squares


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
    """Some b with b*b == a, or None.  Deterministic: the first root in
    canonical order for finite fields, which over GF(p) is min(r, p - r)
    (Tonelli-Shanks, polylog(p) per call); the positive root over Q."""
    f = a.field
    if a.is_zero():
        return f.zero()
    if f.kind == "rational":
        fr = a.rep
        if fr < 0:
            return None
        rn, rd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
        if rn * rn == fr.numerator and rd * rd == fr.denominator:
            return f.element(Fraction(rn, rd))
        return None
    if f.kind == "prime":
        r = _prime_sqrt(a.rep, f.p)
        return None if r is None else FieldElement(f, r)
    f.squares()
    return f._sqrt_of.get(a)


def is_square(a: FieldElement) -> bool:
    """Zero counts as a square; over GF(p) this is Euler's criterion."""
    if a.is_zero():
        return True
    f = a.field
    if f.kind == "prime":
        return f.p == 2 or pow(a.rep, (f.p - 1) // 2, f.p) == 1
    return sqrt(a) is not None


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

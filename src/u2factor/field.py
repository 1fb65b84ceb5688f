"""Exact arithmetic for GF(p), GF(p^k), and the rationals.

Elements carry a reference to their field descriptor and a canonical
representation: a residue in [0, p) for prime fields, a coefficient
tuple (ascending degree, each in [0, p)) for extension fields, and a
reduced ``Fraction`` for the rationals.  All witness-producing scans
(square roots, sum-of-squares, pairings) walk elements in a fixed
canonical order so results are reproducible run to run.

Over GF(p) the square root of a is min(r, p - r) for the two roots
+-r, which is the first root in canonical order.  Prime-field
predicates (primality, squareness, square roots) cost polylog(p) per
call, and the witness scans make elements one at a time and stop at
the first hit, so no GF(p) element table is built on the
factorization path.  Extension fields (q <= 27 built in, q up to
``_MAX_EXTENSION_SIZE`` with a user modulus) keep their full tables.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import cached_property
from fractions import Fraction
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

# Extension-field arithmetic builds a table of all q^2 products on first
# use: 0.8 s at q = 256, 4 s at q = 361.  Larger q is refused up front.
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


class FieldSpec:
    """Descriptor for GF(p), GF(p^k), or Q.

    Immutable after construction; arithmetic tables for small extension
    fields are cached lazily.
    """

    __slots__ = ("kind", "p", "k", "modulus", "size", "_elements",
                 "_squares", "_sqrt_of", "_mul_table", "_inv_table",
                 "_hash")

    def __init__(self, kind: str, p: int = 0, k: int = 1, modulus=None):
        if kind == "rational":
            self.kind, self.p, self.k = "rational", 0, 1
            self.modulus = None
            self.size = None
        elif kind == "prime":
            if not _is_prime(p):
                raise NotPrime(f"{p} is not prime")
            self.kind, self.p, self.k = "prime", p, 1
            self.modulus = None
            self.size = p
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
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self._elements = None
        self._squares = None
        self._sqrt_of = None
        self._mul_table = None
        self._inv_table = None
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
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def element(self, value) -> "FieldElement":
        """Coerce an int, Fraction, or coefficient sequence."""
        if self.kind == "prime":
            return FieldElement(self, int(value) % self.p)
        if self.kind == "rational":
            return FieldElement(self, Fraction(value))
        if isinstance(value, int):
            rep = (value % self.p,) + (0,) * (self.k - 1)
            return FieldElement(self, rep)
        rep = tuple(int(c) % self.p for c in value)
        if len(rep) < self.k:
            rep = rep + (0,) * (self.k - len(rep))
        if len(rep) != self.k:
            raise FieldError("coefficient vector has wrong length")
        return FieldElement(self, rep)

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

    # small-field extension arithmetic tables -------------------------
    def _tables(self):
        if self._mul_table is None:
            mul = {}
            inv = {}
            p, mod = self.p, self.modulus
            reps = [e.rep for e in self.elements()]
            for ra in reps:
                for rb in reps:
                    prod = _pmod(_pmul(_ptrim(list(ra)), _ptrim(list(rb)), p),
                                 mod, p)
                    res = tuple(prod) + (0,) * (self.k - len(prod))
                    mul[(ra, rb)] = res
            one = (1,) + (0,) * (self.k - 1)
            for ra in reps:
                for rb in reps:
                    if mul[(ra, rb)] == one:
                        inv[ra] = rb
            self._mul_table, self._inv_table = mul, inv
        return self._mul_table, self._inv_table


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
        f = self.field
        if f.kind == "prime":
            return self.rep == 0
        if f.kind == "rational":
            return self.rep == 0
        return not any(self.rep)

    def is_one(self) -> bool:
        return self == self.field.one()

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        self._check(other)
        f = self.field
        if f.kind == "prime":
            return FieldElement(f, (self.rep + other.rep) % f.p)
        if f.kind == "rational":
            return FieldElement(f, self.rep + other.rep)
        return FieldElement(f, tuple((a + b) % f.p
                                     for a, b in zip(self.rep, other.rep)))

    def __sub__(self, other):
        self._check(other)
        f = self.field
        if f.kind == "prime":
            return FieldElement(f, (self.rep - other.rep) % f.p)
        if f.kind == "rational":
            return FieldElement(f, self.rep - other.rep)
        return FieldElement(f, tuple((a - b) % f.p
                                     for a, b in zip(self.rep, other.rep)))

    def __neg__(self):
        f = self.field
        if f.kind == "prime":
            return FieldElement(f, (-self.rep) % f.p)
        if f.kind == "rational":
            return FieldElement(f, -self.rep)
        return FieldElement(f, tuple((-a) % f.p for a in self.rep))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if f.kind == "prime":
            return FieldElement(f, (self.rep * other.rep) % f.p)
        if f.kind == "rational":
            return FieldElement(f, self.rep * other.rep)
        mul, _ = f._tables()
        return FieldElement(f, mul[(self.rep, other.rep)])

    def inverse(self):
        f = self.field
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if f.kind == "prime":
            return FieldElement(f, pow(self.rep, -1, f.p))
        if f.kind == "rational":
            return FieldElement(f, 1 / self.rep)
        _, inv = f._tables()
        return FieldElement(f, inv[self.rep])

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
        f = self.field
        if f.kind == "prime":
            return str(self.rep)
        if f.kind == "rational":
            if self.rep.denominator == 1:
                return str(self.rep.numerator)
            return f"{self.rep.numerator}/{self.rep.denominator}"
        return "(" + ",".join(str(c) for c in self.rep) + ")"


def make_field(kind: str, p: int = 0, k: int = 1, modulus=None) -> FieldSpec:
    return FieldSpec(kind, p, k, modulus)


def GF(q: int, modulus=None) -> FieldSpec:
    """Convenience: GF(q) for prime or built-in prime-power q."""
    if _is_prime(q):
        return FieldSpec("prime", q)
    for k in range(2, max(q, 1).bit_length()):
        p = _iroot(q, k)
        if p ** k == q and _is_prime(p):
            return FieldSpec("extension", p, k, modulus)
    raise FieldError(f"{q} is not a prime power")


def rationals() -> FieldSpec:
    return FieldSpec("rational")


# -- spec grammar: GF(7), GF(9;1,0,1), Q ---------------------------------

_SPEC_RE = re.compile(r"^GF\(\s*(\d+)\s*(?:;\s*([0-9,\s]+))?\)$")


def parse_field_spec(text: str) -> FieldSpec:
    text = text.strip()
    if text == "Q":
        return rationals()
    m = _SPEC_RE.match(text)
    if not m:
        raise FieldError(f"cannot parse field spec {text!r}")
    q = int(m.group(1))
    if m.group(2) is None:
        return GF(q)
    coeffs = tuple(int(c) for c in m.group(2).replace(" ", "").split(","))
    return GF(q, coeffs)


_EXT_TOKEN_RE = re.compile(r"^\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)$")


def parse_element(field: FieldSpec, token: str) -> FieldElement:
    token = token.strip()
    if field.kind == "rational":
        try:
            return field.element(Fraction(token))
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in {token!r}")
    if field.kind == "prime":
        return field.element(int(token))
    if token.lstrip("-").isdigit():
        return field.element(int(token))  # prime-subfield embedding
    m = _EXT_TOKEN_RE.match(token)
    if not m:
        raise FieldError(f"bad extension element token {token!r}")
    return field.element(tuple(int(c) for c in
                               m.group(1).replace(" ", "").split(",")))


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


def square_ne_inverse_witness(F: FieldSpec) -> FieldElement:
    """First nonzero b (canonical order) with b^2 != b^-2, i.e. b^4 != 1."""
    if F.kind == "rational":
        return F.element(2)
    if F.size in (2, 3, 5):
        raise FieldTooSmall(f"no such witness in GF({F.size})")
    one = F.one()
    for b in F.iter_nonzero():
        if b ** 4 != one:
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
        assert len(pairs) == expected, (len(pairs), expected, q)
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

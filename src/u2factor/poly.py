"""Dense univariate polynomials with FieldElement coefficients.

Used for characteristic/minimal polynomial work; coefficient lists are
ascending degree and normalized (no trailing zeros, zero poly = ()).
"""

from __future__ import annotations

from .field import FieldSpec, FieldElement


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, c: FieldElement):
        return cls(c.field, (c,))

    @classmethod
    def from_roots(cls, field, roots):
        p = cls.one(field)
        for r in roots:
            p = p * cls(field, (-r, field.one()))
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def leading(self) -> FieldElement:
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.coeffs[-1].inverse()
        return Poly(self.field, (c * inv for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        zero = self.field.zero()
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Poly(self.field, (c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(field), self
        quot = [field.zero()] * (dq + 1)
        lead_inv = other.coeffs[-1].inverse()
        for shift in range(dq, -1, -1):
            top = rem[shift + other.degree]
            if top.is_zero():
                continue
            coef = top * lead_inv
            quot[shift] = coef
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - coef * c
        return Poly(field, quot), Poly(field, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __call__(self, x):
        """Evaluate by Horner; x may be a FieldElement or a Matrix."""
        if not self.coeffs:
            try:
                return x * self.field.zero()  # FieldElement path
            except Exception:
                return x.scalar_mul(self.field.zero())
        if isinstance(x, FieldElement):
            acc = self.field.zero()
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        # matrix argument
        from .linalg import identity
        acc = identity(self.field, x.n).scalar_mul(self.field.zero())
        ident = identity(self.field, x.n)
        for c in reversed(self.coeffs):
            acc = acc @ x + ident.scalar_mul(c)
        return acc

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = [f"{c.token()}*x^{i}" for i, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return "Poly(" + " + ".join(terms) + ")"

"""Unipotent-matrix predicates, the commutator calculus, and the
self-verifying certificate data model.

A certificate stores the pair (X, Y) for every factor rather than the
product [X, Y], so verification is an independent recomputation.
Every factor is U2, (X - I)^2 = 0, so it inverts as X^-1 = 2I - X.
The transports build pairs without re-checking them; ``verify`` checks
a finished certificate once.

The U2 test, the commutator and the running product exist once, as
helpers on the field's matrix form (``Matrix.form``: the rows of reps
over a finite field, canonical integer rows over Q) that run through
the field's arith class: X - I and 2I - X are its ``shift``, one integer
operation per row over Q.  Products of several factors (a commutator,
the running product folded in one pair at a time, a conjugation
P X P^-1) are one ``chain`` each.  The equalities a certificate rests
on, (X - I)^2 = 0 for every member and the product of the values
[X, Y] = target, and the part-target check of
``concat_factorizations``, are decided by the arith class's
``is_product`` without cutting the product into reps: an exact zero
test on packed rows over a finite field, described once in
``field._FiniteArith``, and a cross-multiplied comparison of integer
columns with integer rows over Q (``RationalArith.is_product``).  Over
Q the zero test of N N on N's integer rows M, N = D^-1 M with D the
diagonal of row denominators, is exact: N N = D^-1 (M D^-1 M), and
scaling rows by nonzero denominators keeps a matrix zero or nonzero.
``verify`` reads the target and each pair's X and Y once and builds no
FieldElement or Matrix in between, and over Q no Fraction unless a
pair fails the U2 test.  It computes the det of [X, Y] only
for a pair with a member that fails the U2 test: when both pass, 2I - X
and 2I - Y are the true inverses, so the det is exactly 1.
``is_u2``, ``CommutatorPair.value``, ``u2_inverse``,
``Factorization.product`` and ``Matrix.det`` wrap the same helpers.
``factorization_from_json`` raises NotU2 for a pair that is not U2,
while ``unchecked_factorization_from_json`` checks the shape only and
leaves that finding to ``verify``'s report.  Certificates are written
as compact JSON; the loaders read any layout of the same object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import chain

from .field import FieldSpec, parse_field_spec, parse_rep
from .linalg import Matrix, identity, chain_product, direct_sum, det_reps, \
    diagonal_reps


class CertificateError(Exception):
    pass


class NotU2(CertificateError):
    pass


class VerificationFailed(CertificateError):
    """A built certificate failed its final check; ``report`` says which."""

    def __init__(self, report: "Report"):
        failed = ", ".join(name for name, _ in report.failures())
        super().__init__(f"certificate failed its final check: {failed}")
        self.report = report


# -- the certificate kernel, on matrix forms -------------------------------

def _identity_form(arith, n: int):
    """The form of I_n."""
    return arith.form(diagonal_reps(arith, [arith.one] * n))


def _index_form(arith, form, k: int) -> bool:
    """(A - I)^k == 0 and (A - I)^(k-1) != 0, for A given as its form:
    the first by ``is_product`` on (A - I)^(k-1) and A - I against the
    zero matrix, with no product cut into reps."""
    N = arith.shift(form, arith.one)
    n = len(N)
    power = N if k > 1 else _identity_form(arith, n)
    for _ in range(k - 2):
        power = arith.chain([power, N])
    zeros = arith.zeros(n)
    return power != zeros and arith.is_product([power, N], zeros)


def _pair_factors(arith, x, y) -> list:
    """X, Y, 2I - X, 2I - Y: the factors of [X, Y] with the U2
    inverses, as forms."""
    two = arith.add(arith.one, arith.one)
    return [x, y, arith.shift(x, two, negate=True),
            arith.shift(y, two, negate=True)]


def _product_form(arith, n: int, pairs: list):
    """The product of the values [X, Y] of the pairs (X, Y), given as
    forms, in order; I_n for none.  It is folded right to left, one
    ``chain`` per pair with the running product as its last factor, so
    the four factors of a pair are multiplied with no reduction between
    them."""
    if not pairs:
        return _identity_form(arith, n)
    acc = arith.chain(_pair_factors(arith, *pairs[-1]))
    for x, y in reversed(pairs[:-1]):
        acc = arith.chain(_pair_factors(arith, x, y) + [acc])
    return acc


def _pair_forms(target: Matrix, pair) -> tuple:
    """X and Y of a pair as forms; raises as ``target @ X`` would when a
    member is over another field or of another size."""
    target.check_operand(pair.x)
    target.check_operand(pair.y)
    return pair.x.form(), pair.y.form()


def _is_product_of_values(arith, target, pairs: list) -> bool:
    """Whether the product of the values [X, Y] of the pairs equals the
    target, all given as forms: every pair but the first folded as in
    ``_product_form``, then one ``is_product`` of the first pair's
    factors and that fold, so the full product is never cut into reps."""
    if not pairs:
        return arith.is_product([_identity_form(arith, len(target))], target)
    mats = _pair_factors(arith, *pairs[0])
    if len(pairs) > 1:
        mats.append(_product_form(arith, len(target), pairs[1:]))
    return arith.is_product(mats, target)


def is_unipotent_index(A: Matrix, k: int) -> bool:
    """(A - I)^k == 0 and (A - I)^(k-1) != 0, both checked exactly."""
    if k < 1:
        raise ValueError("index must be >= 1")
    return _index_form(A.field.arith, A.form(), k)


def is_u2(A: Matrix) -> bool:
    return _index_form(A.field.arith, A.form(), 2)


def commutator(X: Matrix, Y: Matrix) -> Matrix:
    """[X, Y] = X Y X^-1 Y^-1, for any invertible X and Y."""
    return X @ Y @ X.inverse() @ Y.inverse()


def u2_inverse(X: Matrix) -> Matrix:
    """2I - X, which is X^-1 exactly when X is U2."""
    arith = X.field.arith
    return Matrix.from_form(X.field, arith.shift(
        X.form(), arith.add(arith.one, arith.one), negate=True))


@dataclass(frozen=True)
class CommutatorPair:
    """A pair of U2-matrices; the factor it certifies is [X, Y].

    The constructor checks both members; ``unchecked`` is for pairs the
    routes and transports build, which ``verify`` checks later.
    """

    x: Matrix
    y: Matrix

    def __post_init__(self):
        for name, m in (("X", self.x), ("Y", self.y)):
            if not is_u2(m):
                raise NotU2(f"{name} is not a U2-matrix")

    @classmethod
    def unchecked(cls, x: Matrix, y: Matrix) -> "CommutatorPair":
        pair = object.__new__(cls)
        object.__setattr__(pair, "x", x)
        object.__setattr__(pair, "y", y)
        return pair

    def value(self) -> Matrix:
        """[X, Y], with the U2 inverses 2I - X and 2I - Y."""
        self.x.check_operand(self.y)
        arith = self.x.field.arith
        return Matrix.from_form(self.x.field, arith.chain(_pair_factors(
            arith, self.x.form(), self.y.form())))


@dataclass(frozen=True)
class Factorization:
    """Target matrix, ordered commutator pairs, and a route trail."""

    target: Matrix
    pairs: tuple
    route: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "route", tuple(self.route))

    def product(self) -> Matrix:
        target = self.target
        return Matrix.from_form(target.field, _product_form(
            target.field.arith, target.n,
            [_pair_forms(target, pair) for pair in self.pairs]))

    def pair_count(self) -> int:
        return len(self.pairs)


@dataclass
class Report:
    """Per-check verification report; failures are entries, not exceptions."""

    entries: list = dc_field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.entries.append((name, ok, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self):
        return [(n, d) for n, ok, d in self.entries if not ok]

    def text(self) -> str:
        lines = []
        for name, ok, detail in self.entries:
            status = "ok" if ok else "FAIL"
            lines.append(f"{status:4s} {name}" + (f" ({detail})" if detail else ""))
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def verify(f: Factorization) -> Report:
    """Check a certificate on raw reps: read the target and each pair's
    X and Y once, test both for U2, then fold the product of the values
    [X, Y] right to left, one chain X Y (2I - X) (2I - Y) acc per pair,
    the last of them an ``is_product`` against the target, so neither
    the U2 tests nor the final comparison cut a product into reps.  A
    pair over another field or of another size raises.

    The det of [X, Y] is computed, from its own chain, only for a pair
    with a member that fails the U2 test: when both pass,
    X (2I - X) = I - N^2 = I with N = X - I, and likewise for Y, so the
    value is X Y X^-1 Y^-1 and its det is exactly 1 in every field."""
    report = Report()
    target = f.target
    arith = target.field.arith
    pairs = []
    for i, pair in enumerate(f.pairs):
        x, y = _pair_forms(target, pair)
        both_u2 = True
        for name, m in ((f"pair[{i}].X", x), (f"pair[{i}].Y", y)):
            ok = _index_form(arith, m, 2)
            both_u2 = both_u2 and ok
            report.record(f"{name} is U2", ok,
                          "" if ok else "index condition fails")
        det = arith.one if both_u2 else det_reps(
            arith, arith.reps(arith.chain(_pair_factors(arith, x, y))))
        ok = det == arith.one
        report.record(f"pair[{i}] value det=1", ok,
                      "" if ok else f"det={arith.token(det)}")
        pairs.append((x, y))
    prod_ok = _is_product_of_values(arith, target.form(), pairs)
    report.record("product equals target", prod_ok,
                  "" if prod_ok else "recomposition mismatch")
    return report


# -- transport operations ----------------------------------------------------

def invert_factorization(f: Factorization) -> Factorization:
    """Certificate for target^-1: pairs reversed, each (X, Y) -> (Y, X)."""
    pairs = tuple(CommutatorPair.unchecked(p.y, p.x)
                  for p in reversed(f.pairs))
    return Factorization(f.target.inverse(), pairs,
                         f.route + ("transport:invert",))


def conjugate_factorization(f: Factorization, P: Matrix,
                            Pinv: Matrix) -> Factorization:
    """Certificate for P target P^-1, given P^-1 as ``Pinv``.

    ``Pinv`` is not checked against P (the similarity helpers return
    the inverse they built); ``verify`` catches a wrong one.
    """
    pairs = tuple(CommutatorPair.unchecked(chain_product(P, p.x, Pinv),
                                           chain_product(P, p.y, Pinv))
                  for p in f.pairs)
    return Factorization(chain_product(P, f.target, Pinv), pairs,
                         f.route + ("transport:conjugate",))


def direct_sum_factorization(*fs: Factorization) -> Factorization:
    """Certificate for the direct sum of the targets, in order, with as
    many pairs as the longest certificate.

    Pair i is the direct sum of each block's pair i, with I on the side
    of a block that has fewer pairs; a padded pair is still U2 because
    another block's members are.  The route is the blocks' routes in
    order.  The direct sum of one certificate is that certificate.
    """
    field = fs[0].target.field
    if any(f.target.field != field for f in fs):
        raise CertificateError("direct sum over different fields")
    if len(fs) == 1:
        return fs[0]
    pads = [identity(field, f.target.n) for f in fs]
    pairs = []
    for i in range(max(len(f.pairs) for f in fs)):
        xs, ys = zip(*((f.pairs[i].x, f.pairs[i].y) if i < len(f.pairs)
                       else (pad, pad) for f, pad in zip(fs, pads)))
        pairs.append(CommutatorPair.unchecked(direct_sum(*xs),
                                              direct_sum(*ys)))
    return Factorization(direct_sum(*(f.target for f in fs)), tuple(pairs),
                         tuple(chain.from_iterable(f.route for f in fs)))


def identity_factorization(field: FieldSpec, n: int) -> Factorization:
    return Factorization(identity(field, n), (), ())


def embed_factorization(f: Factorization, before: int, after: int) -> Factorization:
    """Certificate for I_before (+) target (+) I_after."""
    field = f.target.field
    return direct_sum_factorization(identity_factorization(field, before), f,
                                    identity_factorization(field, after))


def concat_factorizations(target: Matrix, parts, route_extra=()) -> Factorization:
    """Certificate for a product target = part_1 ... part_k by pair
    concatenation; raises CertificateError unless the parts' targets
    multiply to target, and as ``@`` would for a part over another field
    or of another size."""
    parts = list(parts)
    for part in parts:
        target.check_operand(part.target)
    arith = target.field.arith
    factors = ([part.target.form() for part in parts] if parts
               else [_identity_form(arith, target.n)])
    if not arith.is_product(factors, target.form()):
        raise CertificateError("part targets do not multiply to the target")
    return Factorization(
        target, tuple(chain.from_iterable(part.pairs for part in parts)),
        tuple(chain.from_iterable(part.route for part in parts))
        + tuple(route_extra))


def expand_to_u2_product(f: Factorization):
    """Ordered U2-matrices (at most two per pair) whose product is the
    target: [X, Y] = X * (Y X^-1 Y^-1)."""
    out = []
    for pair in f.pairs:
        second = chain_product(pair.y, u2_inverse(pair.x), u2_inverse(pair.y))
        if not is_u2(second):
            raise CertificateError("conjugated inverse lost the U2 property")
        out.append(pair.x)
        out.append(second)
    return out


# -- certificate JSON ----------------------------------------------------------

def factorization_to_dict(f: Factorization) -> dict:
    return {
        "field": f.target.field.spec_string(),
        "n": f.target.n,
        "target": f.target.tokens(),
        "pairs": [{"x": p.x.tokens(), "y": p.y.tokens()} for p in f.pairs],
        "route": list(f.route),
    }


def unchecked_factorization_from_dict(d: dict) -> Factorization:
    """Certificate from its JSON object, checked for shape only:
    CertificateError when the object does not have the shape
    ``factorization_to_dict`` writes.  The pairs are not tested for U2;
    ``verify`` reports that."""
    if not isinstance(d, dict):
        raise CertificateError("certificate must be a JSON object")
    spec, n, pairs, route = (d.get("field"), d.get("n"), d.get("pairs"),
                             d.get("route", []))
    if not isinstance(spec, str) or type(n) is not int or n < 1:
        raise CertificateError("certificate needs a field string and n >= 1")
    if (not isinstance(pairs, list)
            or not all(isinstance(p, dict) for p in pairs)):
        raise CertificateError("certificate pairs must be a list of objects")
    if (not isinstance(route, list)
            or not all(isinstance(t, str) for t in route)):
        raise CertificateError("certificate route must be a list of strings")
    field = parse_field_spec(spec)

    def mat(tokens):
        if (not isinstance(tokens, list) or len(tokens) != n
                or any(not isinstance(r, list) or len(r) != n
                       or not all(isinstance(t, str) for t in r)
                       for r in tokens)):
            raise CertificateError("matrix token block has wrong shape")
        return Matrix.from_reps(field, [[parse_rep(field, t) for t in row]
                                        for row in tokens])

    target = mat(d.get("target"))
    pairs = tuple(CommutatorPair.unchecked(mat(p.get("x")), mat(p.get("y")))
                  for p in pairs)
    return Factorization(target, pairs, tuple(route))


def factorization_from_dict(d: dict) -> Factorization:
    """Certificate from its JSON object: CertificateError for a wrong
    shape, and NotU2 when a pair member is not U2."""
    f = unchecked_factorization_from_dict(d)
    return Factorization(f.target, tuple(CommutatorPair(p.x, p.y)
                                         for p in f.pairs), f.route)


def factorization_to_json(f: Factorization) -> str:
    """The certificate as compact JSON on one line; the loaders read any
    JSON layout of the same object."""
    return json.dumps(factorization_to_dict(f), separators=(",", ":")) + "\n"


def factorization_from_json(text: str) -> Factorization:
    return factorization_from_dict(json.loads(text))


def unchecked_factorization_from_json(text: str) -> Factorization:
    return unchecked_factorization_from_dict(json.loads(text))

"""Exact dense matrix arithmetic and canonical forms.

Everything here is pure and value-semantic: operations return new
matrices, pivoting is "first nonzero in column order" (the only
deterministic choice in exact arithmetic), and the canonical-form
transforms are constructed so identical inputs always give identical
outputs.

A ``Matrix`` holds rows of canonical reps, and every algorithm here
runs on them through the field's arith class, with rep helpers
(``*_reps``) that ``unipotent`` and ``sourour`` share.  The arith class
does the per-entry work: products (``chain``, one pass over any number
of factors on the field's matrix form, which ``@`` and
``chain_product`` wrap, and ``product_reps`` on rows of reps; ``field``
describes them per kind), row operations (``scale``, ``sub_scaled``,
``negate``) and the determinant (``det``, Bareiss over Q).  So
``_rref``, ``IndependentSet`` and ``charpoly`` make one call per row
operation, not one per entry, and ``det_reps`` is one call.
Over Q a ``Matrix`` also holds the form, canonical integer rows.  A
product's result has only the form, and a matrix made from rows of
reps only those, until the other view is first read: products and the
certificate checks run on the form, and the ``Fraction`` rows are made
only for the entry-level algorithms (the eliminations, the
substitutions, Jordan data) and for tokens.
FieldElements are checked where a matrix is built from them, and made
only where a caller reads a scalar: ``A[i, j]``, ``rows``,
``diagonal()``, ``trace()``, ``det()`` and the results of
``kernel_basis``, ``apply`` and ``charpoly``.

Two similarities diagonalize a matrix.  ``similarity_to_diagonal``
takes each eigenspace as a kernel, one elimination per eigenvalue, and
allows repeated eigenvalues.  ``diagonalize_triangular`` is given the
matrix as T R T^-1 with R triangular and a distinct spectrum, as a
Sourour split provides it, and runs no elimination: triangular
substitution and two products, O(n^3) in all.  Both scale eigenvectors
the same way, so for a distinct spectrum they give the same P and P^-1.

Two functions give the Jordan data of a unipotent matrix.
``unipotent_jordan`` takes the kernels of the powers of A - I, one
elimination per level that can still start a chain, which is O(n^4) when
A is one Jordan block, and picks the tops of the Jordan chains against
one growing set of chain bottoms.
``single_block_jordan`` is given A as T R T^-1 with R unit triangular,
as a unipotent Sourour split provides it; when A is one block it gives
the same data with no elimination, by a chain in the basis T and
triangular substitution, O(n^3) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain

from .field import FieldSpec, FieldElement, FieldMismatch, parse_field_spec, \
    parse_rep, parse_int, is_int_token
from .poly import Poly


class LinalgError(Exception):
    pass


class Singular(LinalgError):
    pass


class SizeMismatch(LinalgError):
    pass


class NotUnipotent(LinalgError):
    pass


class ScalarInput(LinalgError):
    pass


class SpectrumMismatch(LinalgError):
    pass


def _reps_of(field: FieldSpec, entries) -> tuple:
    """The reps of FieldElements, each of which must belong to field."""
    entries = tuple(entries)
    if any(e.field != field for e in entries):
        raise FieldMismatch("entry from a different field")
    return tuple(e.rep for e in entries)


class Matrix:
    """Immutable square matrix over a field; entries read through the API
    are FieldElements.  The determinant is kept once computed.

    A matrix has two views: ``_reps``, rows of canonical reps, which the
    entry-level algorithms read, and ``_form``, the field's matrix form,
    which its arith class's ``chain`` and ``is_product`` take and return.
    Over a finite field they are one tuple.  Over Q the form is the
    canonical integer rows (``field.RationalArith``): the constructor
    makes both views, and ``from_reps`` and ``from_form`` make a
    ``_RationalMatrix``, which has one of them and makes the other when
    it is first read.  Equality and the hash are the form's.
    """

    __slots__ = ("field", "n", "_reps", "_form", "_det")

    def __init__(self, field: FieldSpec, rows):
        reps = tuple(_reps_of(field, r) for r in rows)
        n = len(reps)
        if any(len(r) != n for r in reps):
            raise SizeMismatch("matrix must be square")
        self.field = field
        self.n = n
        self._reps = reps
        self._form = reps if field.arith.reps_are_form else \
            field.arith.form(reps)
        self._det = None

    # -- construction helpers --

    @classmethod
    def from_ints(cls, field: FieldSpec, rows):
        return cls(field, [[field.element(v) for v in r] for r in rows])

    @classmethod
    def from_reps(cls, field: FieldSpec, rows) -> "Matrix":
        """Square rows of canonical reps, taken without checking them."""
        reps = tuple(map(tuple, rows))
        if field.arith.reps_are_form:
            out = object.__new__(cls)
            out._form = reps
        else:
            out = object.__new__(_RationalMatrix)
        out.field, out.n, out._reps, out._det = field, len(reps), reps, None
        return out

    @classmethod
    def from_form(cls, field: FieldSpec, form) -> "Matrix":
        """A square matrix given as the field's matrix form, as its arith
        class's ``chain`` returns it, taken without checking it."""
        if field.arith.reps_are_form:
            out = object.__new__(cls)
            out._reps = out._form = tuple(map(tuple, form))
        else:
            out = object.__new__(_RationalMatrix)
            out._form = form
        out.field, out.n, out._det = field, len(form), None
        return out

    def reps(self) -> list:
        """Rows of raw reps, for the field's arith class."""
        return [list(r) for r in self._reps]

    def form(self):
        """The field's matrix form, for its arith class's ``chain`` and
        ``is_product``; immutable, so it is not copied."""
        return self._form

    @property
    def rows(self) -> tuple:
        """Rows of FieldElements."""
        f = self.field
        return tuple(tuple(FieldElement(f, x) for x in r) for r in self._reps)

    def __getitem__(self, ij):
        i, j = ij
        return FieldElement(self.field, self._reps[i][j])

    def check_operand(self, other):
        """Raise as an arithmetic operation with ``other`` would: TypeError
        for a non-matrix, FieldMismatch or SizeMismatch for another field
        or size."""
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if other.field != self.field:
            raise FieldMismatch("matrices over different fields")
        if other.n != self.n:
            raise SizeMismatch(f"{self.n}x{self.n} vs {other.n}x{other.n}")

    # -- arithmetic --

    def _entrywise(self, op, other):
        self.check_operand(other)
        return Matrix.from_reps(self.field, [
            list(map(op, ra, rb)) for ra, rb in zip(self._reps, other._reps)])

    def __add__(self, other):
        return self._entrywise(self.field.arith.add, other)

    def __sub__(self, other):
        return self._entrywise(self.field.arith.sub, other)

    def __neg__(self):
        negate = self.field.arith.negate
        return Matrix.from_reps(self.field, [negate(r) for r in self._reps])

    def __matmul__(self, other):
        """The product, a ``chain`` of two forms."""
        self.check_operand(other)
        return Matrix.from_form(self.field, self.field.arith.chain(
            [self._form, other._form]))

    def scalar_mul(self, c: FieldElement):
        (c,) = _reps_of(self.field, (c,))
        scale = self.field.arith.scale
        return Matrix.from_reps(self.field, [scale(r, c)
                                             for r in self._reps])

    def transpose(self):
        return Matrix.from_reps(self.field, list(zip(*self._reps)))

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = identity(self.field, self.n)
        base = self
        while exp:
            if exp & 1:
                result = result @ base
            base = base @ base
            exp >>= 1
        return result

    def apply(self, vec):
        """Matrix-vector product; vec is a tuple of FieldElements."""
        f = self.field
        return tuple(FieldElement(f, x) for x in
                     apply_reps(f.arith, self._reps, _reps_of(f, vec)))

    # -- scalar invariants --

    def trace(self) -> FieldElement:
        return FieldElement(self.field, reduce(
            self.field.arith.add, (r[i] for i, r in enumerate(self._reps))))

    def det(self) -> FieldElement:
        if self._det is None:
            self._det = det_reps(self.field.arith, self._reps)
        return FieldElement(self.field, self._det)

    def inverse(self) -> "Matrix":
        arith, n = self.field.arith, self.n
        eye = diagonal_reps(arith, [arith.one] * n)
        work, pivots = _rref(arith, [list(r) + e
                                     for r, e in zip(self._reps, eye)],
                             limit=n)
        if len(pivots) != n:
            raise Singular("matrix is not invertible")
        return Matrix.from_reps(self.field, [r[n:] for r in work])

    # -- predicates --

    def is_zero(self) -> bool:
        return all(map(self.field.arith.is_zero,
                       chain.from_iterable(self._reps)))

    def is_identity(self) -> bool:
        return self == identity(self.field, self.n)

    def is_scalar(self) -> bool:
        return is_scalar_reps(self.field.arith, self._reps)

    def is_diagonal(self) -> bool:
        is_zero = self.field.arith.is_zero
        return all(is_zero(v) for i, r in enumerate(self._reps)
                   for j, v in enumerate(r) if i != j)

    def diagonal(self):
        f = self.field
        return tuple(FieldElement(f, r[i]) for i, r in enumerate(self._reps))

    # -- identity / io --

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Matrix) and self.field == other.field
            and self._form == other._form)

    def __hash__(self):
        return hash((self.field, self._form))

    def __repr__(self):
        body = "; ".join(" ".join(r) for r in self.tokens())
        return f"Matrix({self.field.spec_string()}, [{body}])"

    def tokens(self):
        token = self.field.arith.token
        return [[token(x) for x in r] for r in self._reps]


class _RationalMatrix(Matrix):
    """A Matrix over Q made by ``from_reps`` or ``from_form``, with one of
    its two views, ``_reps`` or ``_form``; ``__getattr__`` makes the
    other from it when it is first read and keeps it, so a product that
    is only multiplied again, compared or verified never builds a
    ``Fraction``.  A class of its own, as a ``__getattr__`` on ``Matrix``
    would slow every attribute read of every matrix over a finite field
    (CPython then gives up its fast path for slot reads)."""

    __slots__ = ()

    def __getattr__(self, name):
        if name == "_reps":
            self._reps = tuple(map(tuple, self.field.arith.reps(self._form)))
            return self._reps
        if name == "_form":
            self._form = self.field.arith.form(self._reps)
            return self._form
        raise AttributeError(name)


# -- helpers on rows of reps ----------------------------------------------

def diagonal_reps(arith, entries) -> list:
    """Rows of the diagonal matrix with the given reps on its diagonal."""
    zero, m = arith.zero, len(entries)
    return [[e if i == j else zero for j in range(m)]
            for i, e in enumerate(entries)]


def is_scalar_reps(arith, rows) -> bool:
    d = rows[0][0]
    return all(v == d if i == j else arith.is_zero(v)
               for i, row in enumerate(rows) for j, v in enumerate(row))


def shift_reps(arith, rows, lam) -> list:
    """Rows of A - lam I, for A given as rows of reps: the arith class's
    ``shift`` on their form."""
    return arith.reps(arith.shift(arith.form(rows), lam))


def apply_reps(arith, rows, vec) -> list:
    """rows @ vec, also when vec is empty."""
    if not vec:
        return [arith.zero] * len(rows)
    return [r[0] for r in arith.product_reps(rows, [[v] for v in vec])]


# -- constructors ---------------------------------------------------------

def identity(field: FieldSpec, n: int) -> Matrix:
    arith = field.arith
    return Matrix.from_reps(field, diagonal_reps(arith, [arith.one] * n))


def diagonal(field: FieldSpec, entries) -> Matrix:
    return Matrix.from_reps(field, diagonal_reps(field.arith,
                                                 _reps_of(field, entries)))


def jordan_block(field: FieldSpec, n: int, lam: FieldElement) -> Matrix:
    rows = diagonal_reps(field.arith, _reps_of(field, [lam]) * n)
    for i in range(n - 1):
        rows[i][i + 1] = field.arith.one
    return Matrix.from_reps(field, rows)


def chain_product(*mats: Matrix) -> Matrix:
    """mats[0] @ ... @ mats[-1] in one right-to-left pass of the field's
    arith class (``chain``); raises as ``@`` would for an operand over
    another field or of another size."""
    first = mats[0]
    for m in mats[1:]:
        first.check_operand(m)
    return Matrix.from_form(first.field, first.field.arith.chain(
        [m._form for m in mats]))


def direct_sum(*mats: Matrix) -> Matrix:
    """The block-diagonal matrix of the given blocks, in order."""
    field = mats[0].field
    if any(m.field != field for m in mats):
        raise FieldMismatch("direct sum over different fields")
    zero = field.arith.zero
    n = sum(m.n for m in mats)
    rows, before = [], 0
    for m in mats:
        left, right = (zero,) * before, (zero,) * (n - before - m.n)
        rows.extend(left + r + right for r in m._reps)
        before += m.n
    return Matrix.from_reps(field, rows)


# -- elimination core ------------------------------------------------------

def det_reps(arith, rows):
    """Determinant of a square matrix given as rows of reps, by the
    field's arith class: Gaussian elimination over a finite field,
    Bareiss's fraction-free elimination over Q."""
    return arith.det(rows)


def _rref(arith, work, limit=None):
    """In-place reduced row echelon form of rows of reps; returns (rows,
    pivot_columns).

    Pivot choice: first nonzero entry scanning rows top-down within each
    column, columns left to right (deterministic in exact arithmetic).
    Left of the pivot column the pivot row is zero, so only the columns
    from the pivot on are scaled and subtracted.
    """
    if not work:
        return work, []
    is_zero, sub_scaled = arith.is_zero, arith.sub_scaled
    nrows = len(work)
    ncols = len(work[0]) if limit is None else limit
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = next((r for r in range(row, nrows)
                      if not is_zero(work[r][col])), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        head = work[row]
        head[col:] = tail = arith.scale(head[col:], arith.inv(head[col]))
        for r in range(nrows):
            factor = work[r][col]
            if r != row and not is_zero(factor):
                work[r][col:] = sub_scaled(work[r][col:], factor, tail)
        pivots.append(col)
        row += 1
    return work, pivots


def _kernel_reps(arith, rows) -> list:
    """Basis of the right kernel of square rows of reps, in canonical
    (free-column) order: each vector has a 1 at its free column."""
    n = len(rows)
    work, pivots = _rref(arith, [list(r) for r in rows])
    pivot_set = set(pivots)
    basis = []
    for f in (j for j in range(n) if j not in pivot_set):
        vec = [arith.zero] * n
        vec[f] = arith.one
        for rowi, pj in enumerate(pivots):
            vec[pj] = arith.neg(work[rowi][f])
        basis.append(vec)
    return basis


def kernel_basis(A: Matrix):
    """Basis of the right kernel, as tuples, in canonical (free-column)
    order."""
    f = A.field
    return [tuple(FieldElement(f, x) for x in v)
            for v in _kernel_reps(f.arith, A._reps)]


class IndependentSet:
    """Incremental linear-independence tracker over a field, on vectors
    of reps."""

    def __init__(self, field: FieldSpec, dim: int):
        self.arith = field.arith
        self.dim = dim
        self.rows = []       # reduced, each with a recorded pivot column
        self.pivots = []

    def reduce(self, vec) -> list:
        sub_scaled = self.arith.sub_scaled
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            vec = sub_scaled(vec, vec[p], row)
        return vec

    def add(self, vec) -> bool:
        """Add vec if independent of the current span; returns True if added."""
        arith = self.arith
        red = self.reduce(vec)
        pivot = next((i for i, c in enumerate(red) if not arith.is_zero(c)),
                     None)
        if pivot is None:
            return False
        self.rows.append(arith.scale(red, arith.inv(red[pivot])))
        self.pivots.append(pivot)
        return True


# -- characteristic polynomial --------------------------------------------

def charpoly(A: Matrix) -> Poly:
    """det(xI - A) in O(n^3) field operations.

    A is reduced to upper Hessenberg form H by similarity, pivoting on
    the first nonzero entry below the subdiagonal; then the leading
    principal minors p_k = det(xI - H[:k, :k]) follow the standard
    recurrence (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9).  Valid in any characteristic.  Both run on
    reps; the minors are ascending coefficient lists.
    """
    field, n = A.field, A.n
    arith = field.arith
    is_zero, mul, sub_scaled = arith.is_zero, arith.mul, arith.sub_scaled
    H = [list(r) for r in A._reps]
    for m in range(1, n - 1):
        i = next((r for r in range(m, n) if not is_zero(H[r][m - 1])), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        inv = arith.inv(H[m][m - 1])
        for r in range(m + 1, n):
            u = mul(H[r][m - 1], inv)
            if is_zero(u):
                continue
            # row_r -= u row_m, then col_m += u col_r keeps the similarity
            H[r] = sub_scaled(H[r], u, H[m])
            col = sub_scaled([row[m] for row in H], arith.neg(u),
                             [row[r] for row in H])
            for row, v in zip(H, col):
                row[m] = v
    minors = [[arith.one]]
    for k in range(n):
        # p_{k+1} = (x - H[k][k]) p_k - sum_i t_i H[i][k] p_i
        prev = minors[k]
        p = [arith.zero] + prev
        p[:k + 1] = sub_scaled(p[:k + 1], H[k][k], prev)
        t = arith.one
        for i in range(k - 1, -1, -1):
            t = mul(t, H[i + 1][i])
            if is_zero(t):
                break
            p[:i + 1] = sub_scaled(p[:i + 1], mul(t, H[i][k]), minors[i])
        minors.append(p)
    return Poly(field, [FieldElement(field, c) for c in minors[n]])


# -- unipotent Jordan form --------------------------------------------------

@dataclass(frozen=True)
class JordanData:
    """Partition and transform P with P A P^-1 = direct sum of J_{n_i}(1);
    ``transform_inverse`` is P^-1, the column matrix P was inverted from."""

    partition: tuple
    transform: Matrix
    transform_inverse: Matrix

    @property
    def form(self) -> Matrix:
        """The direct sum of the J_{n_i}(1), P A P^-1."""
        field = self.transform.field
        return direct_sum(*(jordan_block(field, h, field.one())
                            for h in self.partition))


def unipotent_jordan(A: Matrix) -> JordanData:
    """Jordan data for a unipotent matrix (all eigenvalues 1).

    Chains are built largest block first.  A vector v of ker N^j, N = A - I,
    tops a new chain of height j exactly when its bottom N^(j-1) v is
    independent of the bottoms of the chains already chosen; candidates
    are scanned in the deterministic order of each kernel basis, so
    transforms are reproducible.  A level j larger than the blocks left
    uncovered can start no chain, so its kernel is not computed.
    """
    field, n = A.field, A.n
    arith = field.arith
    N = shift_reps(arith, A._reps, arith.one)
    npowers = [diagonal_reps(arith, [arith.one] * n), N]
    while not all(map(arith.is_zero, chain.from_iterable(npowers[-1]))):
        if len(npowers) > n:
            raise NotUnipotent("matrix is not unipotent")
        npowers.append(arith.product_reps(npowers[-1], N))
    index = len(npowers) - 1
    bottoms = IndependentSet(field, n)
    tops = []  # (vector, height), heights non-increasing by construction
    rest = n  # total size of the blocks no chosen chain covers
    for j in range(index, 0, -1):
        if j > rest:
            continue  # no block of size j is left; none at all once rest = 0
        kernel = _kernel_reps(arith, npowers[j])
        # the bottom N^(j-1) v of every kernel vector v, in one product
        images = zip(*arith.product_reps(npowers[j - 1], list(zip(*kernel))))
        for v, bottom in zip(kernel, images):
            if bottoms.add(bottom):
                tops.append((v, j))
                rest -= j
    cols = []
    for (v, h) in tops:
        cols.extend(apply_reps(arith, npowers[h - 1 - i], v) for i in range(h))
    Q = Matrix.from_reps(field, list(zip(*cols)))
    return JordanData(tuple(h for (_, h) in tops), Q.inverse(), Q)


def single_block_jordan(T: Matrix, T_inv: Matrix, R: Matrix):
    """``unipotent_jordan(T R T^-1)`` when that is one Jordan block, for R
    unit lower or upper triangular and T_inv the inverse of T; None when
    it is not one block.

    No elimination runs.  An upper R is turned by 180 degrees (J R J,
    with T J and J T^-1 in place of T and T^-1), so let R be lower and
    N = R - I.  The part is one block exactly when N's subdiagonal has
    no zero, and then N^(n-1) = c e_(n-1) e_0^T with c != 0, so
    (T R T^-1 - I)^(n-1) = c T[:, n-1] T^-1[0, :].  The top vector that
    ``unipotent_jordan`` picks, the first unit vector outside that
    power's kernel, is therefore e_f for the first nonzero T^-1[0, f].
    Its chain, columns (T R T^-1 - I)^(n-1-j) e_f, is T K with K's
    columns the chain of N on w = T^-1 e_f.  N^k w has its first
    nonzero at k, so K reversed in column order is lower triangular:
    P^-1 = T K, and P = K^-1 T^-1 with K^-1 by substitution.
    """
    field, n = R.field, R.n
    arith = field.arith
    rows, Tr, Tinv = R._reps, T._reps, T_inv._reps
    if any(r[i] != arith.one for i, r in enumerate(rows)):
        raise NotUnipotent("matrix is not unit triangular")
    if _has_upper(arith, rows):
        rows, Tr, Tinv = _flip(rows), [r[::-1] for r in Tr], Tinv[::-1]
    N = shift_reps(arith, rows, arith.one)
    if any(arith.is_zero(N[i + 1][i]) for i in range(n - 1)):
        return None
    f = next(j for j, v in enumerate(Tinv[0]) if not arith.is_zero(v))
    powers = [[r[f] for r in Tinv]]
    for _ in range(n - 1):
        powers.append(apply_reps(arith, N, powers[-1]))
    K_rev = [list(r) for r in zip(*powers)]  # K J, lower triangular
    Q = [r[::-1] for r in arith.product_reps(Tr, K_rev)]
    P = arith.product_reps(_lower_inverse(arith, K_rev)[::-1], Tinv)
    return JordanData((n,), Matrix.from_reps(field, P),
                      Matrix.from_reps(field, Q))


# -- similarity transforms ---------------------------------------------------

def companion_similarity_2x2(A: Matrix):
    """(P, P^-1) with P A P^-1 = [[0, -det A], [1, tr A]] for nonscalar
    2x2 A."""
    if A.n != 2:
        raise SizeMismatch("companion form is for 2x2 input")
    if A.is_scalar():
        raise ScalarInput("scalar matrices have no companion form")
    arith = A.field.arith
    one, zero, mul = arith.one, arith.zero, arith.mul
    for v in ((one, zero), (zero, one), (one, one)):
        av = apply_reps(arith, A._reps, v)
        # independent iff the 2x2 det [v | Av] is nonzero
        if not arith.is_zero(arith.sub(mul(v[0], av[1]), mul(v[1], av[0]))):
            Q = Matrix.from_reps(A.field, list(zip(v, av)))
            return Q.inverse(), Q
    raise ScalarInput("no non-eigenvector found; matrix is scalar")


def similarity_to_diagonal(A: Matrix, entries):
    """(P, P^-1) with P A P^-1 = diag(entries), for diagonalizable A whose
    eigenvalue multiset equals the requested entries (repeats allowed).

    Column i of P^-1 is taken from ker(A - entries[i] I), so an
    invertible P^-1 already proves P A P^-1 = diag(entries) exactly;
    a spectrum that does not match leaves some eigenspace too small.
    Over a finite field the column is the ``kernel_basis`` vector as it
    is (last nonzero coordinate 1).  Over Q it is that vector scaled to
    a primitive integer vector whose last nonzero coordinate is
    positive, which keeps the entries of P and of the certificates
    built from it short.
    """
    field, n = A.field, A.n
    arith = field.arith
    entries = _reps_of(field, entries)
    if len(entries) != n:
        raise SpectrumMismatch("entry count != dimension")
    pools = {}
    cols = [None] * n
    for i, lam in enumerate(entries):
        if lam not in pools:
            pools[lam] = list(map(arith.primitive, _kernel_reps(
                arith, shift_reps(arith, A._reps, lam))))
        if not pools[lam]:
            raise SpectrumMismatch(
                f"eigenspace of {arith.token(lam)} too small")
        cols[i] = pools[lam].pop(0)
    Q = Matrix.from_reps(field, list(zip(*cols)))
    try:
        P = Q.inverse()
    except Singular:
        raise SpectrumMismatch("matrix is not diagonalizable")
    return P, Q


def diagonalize_triangular(T: Matrix, T_inv: Matrix, R: Matrix, spectrum):
    """(P, P^-1) with P (T R T^-1) P^-1 = diag(spectrum), for R lower or
    upper triangular with the distinct spectrum on its diagonal, in any
    order, and T_inv the inverse of T.

    No elimination runs.  The eigenvectors of R are the columns of a
    unit triangular W, by substitution, and W^-1, whose rows are the
    left eigenvectors, follows by substitution too.  Column i of P^-1 is T w for the column w of
    spectrum[i], scaled as ``similarity_to_diagonal`` scales its kernel
    vectors: last nonzero coordinate 1, then ``primitive``.  An
    eigenspace of a distinct spectrum is a line, so both give the same
    column, and the same P: the matching row of W^-1, divided by that
    column's scale, times T^-1.
    """
    field, n = R.field, R.n
    arith = field.arith
    zero, one, mul, is_zero = arith.zero, arith.one, arith.mul, arith.is_zero
    spectrum = _reps_of(field, spectrum)
    rows = R._reps
    upper = _has_upper(arith, rows)
    if upper:
        rows = _flip(rows)  # J R J, with J the reversal, is lower
    diag = [r[i] for i, r in enumerate(rows)]
    if len(set(spectrum)) != n or set(spectrum) != set(diag):
        raise SpectrumMismatch("spectrum must be distinct and equal the "
                               "diagonal of R")
    # row i of R W = W diag: (d_k - d_i) W[i][k] = R[i][:i] . W[:i][k],
    # and W[:i] is zero right of column i - 1, so the product reads only
    # W's leading i x i block
    W = []
    for i, r in enumerate(rows):
        s = arith.product_reps([r[:i]], [w[:i] for w in W])[0]
        W.append([mul(s[k], arith.inv(arith.sub(diag[k], diag[i])))
                  for k in range(i)] + [one] + [zero] * (n - 1 - i))
    W_inv = _lower_inverse(arith, W)
    if upper:
        W, W_inv, diag = _flip(W), _flip(W_inv), diag[::-1]
    where = {lam: k for k, lam in enumerate(diag)}
    TW = arith.product_reps(T._reps, W)
    cols, P_rows = [], []
    for lam in spectrum:
        k = where[lam]
        v = [r[k] for r in TW]
        last = next(j for j in range(n - 1, -1, -1) if not is_zero(v[j]))
        col = arith.primitive(arith.scale(v, arith.inv(v[last])))
        cols.append(col)
        # col = c v with c = col[last] / v[last]; P's row is W^-1[k] / c
        back = mul(v[last], arith.inv(col[last]))
        P_rows.append(arith.scale(W_inv[k], back))
    return (Matrix.from_form(field, arith.chain([arith.form(P_rows),
                                                 T_inv._form])),
            Matrix.from_reps(field, list(zip(*cols))))


def _flip(rows) -> list:
    """Rows of J X J, J the reversal permutation: X turned by 180 degrees."""
    return [list(r[::-1]) for r in reversed(rows)]


def _has_upper(arith, rows) -> bool:
    """Whether a square matrix given as rows has a nonzero entry above
    its diagonal."""
    return not all(map(arith.is_zero, chain.from_iterable(
        r[i + 1:] for i, r in enumerate(rows))))


def _lower_inverse(arith, rows) -> list:
    """Rows of X^-1, for X lower triangular with no zero on its diagonal,
    by substitution: row i of X X^-1 = I gives
    X^-1[i] = (e_i - X[i][:i] . X^-1[:i]) / X[i][i].  X^-1 is lower
    triangular too, so the product reads only its leading i x i block
    and is zero from column i on."""
    zero, one = arith.zero, arith.one
    n = len(rows)
    out = []
    for i, r in enumerate(rows):
        head = arith.product_reps([r[:i]], [x[:i] for x in out])[0]
        e = arith.negate(head) + [one] + [zero] * (n - 1 - i)
        out.append(arith.scale(e, arith.inv(r[i])))
    return out


def find_diagonal_permutation(source: Matrix, target: Matrix) -> Matrix:
    """Permutation P with P source P^-1 == target, for diagonal matrices
    with equal entry multisets; greedy first-unused matching.  P^-1 is
    P's transpose."""
    if not (source.is_diagonal() and target.is_diagonal()):
        raise LinalgError("both matrices must be diagonal")
    unused = [r[i] for i, r in enumerate(source._reps)]
    eye = identity(source.field, source.n)._reps
    rows = []
    for i, r in enumerate(target._reps):
        j = next((j for j, s in enumerate(unused) if s == r[i]), None)
        if j is None:
            raise LinalgError("diagonal multisets differ")
        unused[j] = None  # no rep equals None
        rows.append(eye[j])
    return Matrix.from_reps(source.field, rows)


# -- matrix file format -------------------------------------------------------
# line 1: field spec (or omitted when a field is supplied by the caller),
# line 2: dimension n, then n rows of whitespace-separated entry tokens.
# '#' starts a comment.

def parse_matrix_text(text: str, field: FieldSpec = None) -> Matrix:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise LinalgError("empty matrix file")
    pos = 0
    first = lines[0]
    if not is_int_token(first):
        file_field = parse_field_spec(first)
        if field is not None and field != file_field:
            raise FieldMismatch("matrix file field disagrees with --field")
        field = file_field
        pos = 1
    if field is None:
        raise LinalgError("no field spec in file and none supplied")
    if pos == len(lines):
        raise LinalgError("no dimension line")
    n = parse_int(lines[pos])
    pos += 1
    if n < 1:
        raise LinalgError(f"dimension must be positive, got {n}")
    if len(lines) - pos != n:
        raise LinalgError(f"expected {n} rows, got {len(lines) - pos}")
    rows = []
    for i in range(n):
        tokens = lines[pos + i].split()
        if len(tokens) != n:
            raise LinalgError(f"row {i} has {len(tokens)} entries, expected {n}")
        rows.append([parse_rep(field, t) for t in tokens])
    return Matrix.from_reps(field, rows)


def matrix_to_text(A: Matrix) -> str:
    lines = [A.field.spec_string(), str(A.n)]
    lines += [" ".join(r) for r in A.tokens()]
    return "\n".join(lines) + "\n"

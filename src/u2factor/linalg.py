"""Exact dense matrix arithmetic and canonical forms.

Everything here is pure and value-semantic: operations return new
matrices, pivoting is "first nonzero in column order" (the only
deterministic choice in exact arithmetic), and the canonical-form
transforms are constructed so identical inputs always give identical
outputs.

A ``Matrix`` holds its entries once, as the field's matrix form: rows
of reps over a finite field, canonical integer rows over Q.  Every
algorithm here runs on the form's rows through the field's arith class
(``field`` describes it per kind): the product (``chain``, one pass over
any number of factors, which ``@`` and ``chain_product`` wrap), the row
API and the determinant (``det``, Bareiss over Q).  The one elimination,
``rref``, is written here once for every kind, on the row API alone;
``inverse``, the kernels and the independence test of
``unipotent_jordan`` share it.  So no algorithm makes a call per entry,
and over Q only ``rref`` makes a ``Fraction`` per entry it reads (each
pivot probe and each row's multiplier); ``charpoly`` alone reads the
entries as reps and updates them element by element.
FieldElements are checked where a matrix is built from them, and made
only where a caller reads a scalar: ``A[i, j]``, ``rows``,
``diagonal()``, ``trace()``, ``det()`` and the results of
``kernel_basis``, ``apply`` and ``charpoly``, read through the arith
class's ``reps`` or ``row_entry``.

Two similarities diagonalize a matrix.  ``similarity_to_diagonal``
takes each eigenspace as a kernel, one elimination per eigenvalue, and
allows repeated eigenvalues.  ``diagonalize_triangular`` is given the
matrix as T R T^-1 with R triangular and a distinct spectrum, as a
Sourour split provides it, and runs no elimination: triangular
substitution and two products, O(n^3) in all.  Both scale eigenvectors
by the arith class's ``primitive_columns``, so for a distinct spectrum
they give the same P and P^-1.

Two functions give the Jordan data of a unipotent matrix.
``unipotent_jordan`` takes the kernels of the powers of A - I, one
elimination per level that can still start a chain, which is O(n^4) when
A is one Jordan block, and picks the tops of the Jordan chains by one
more elimination per level, of the chain bottoms so far and the level's
new ones.
``single_block_jordan`` is given A as T R T^-1 with R unit triangular,
as a unipotent Sourour split provides it; when A is one block it gives
the same data with no elimination, by a chain in the basis T and
triangular substitution, O(n^3) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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

    A matrix holds its entries once, as ``_form``, the field's matrix
    form, which its arith class's ``chain``, ``is_product`` and row API
    take and return: over a finite field the rows of reps, over Q the
    canonical integer rows (``field.RationalArith``).  The constructor
    and ``from_reps`` make the form at once, and equality and the hash
    are the form's.
    """

    __slots__ = ("field", "n", "_form", "_det")

    def __init__(self, field: FieldSpec, rows):
        reps = tuple(_reps_of(field, r) for r in rows)
        n = len(reps)
        if any(len(r) != n for r in reps):
            raise SizeMismatch("matrix must be square")
        self.field = field
        self.n = n
        self._form = field.arith.form(reps)
        self._det = None

    # -- construction helpers --

    @classmethod
    def from_ints(cls, field: FieldSpec, rows):
        return cls(field, [[field.element(v) for v in r] for r in rows])

    @classmethod
    def from_reps(cls, field: FieldSpec, rows) -> "Matrix":
        """Square rows of canonical reps, taken without checking them."""
        return cls.from_form(field, field.arith.form(rows))

    @classmethod
    def from_form(cls, field: FieldSpec, form) -> "Matrix":
        """A square matrix given as the field's matrix form, as its arith
        class's ``chain`` and row API return it, taken without checking
        it."""
        out = object.__new__(cls)
        out._form = form = tuple(map(tuple, form))
        out.field, out.n, out._det = field, len(form), None
        return out

    def reps(self) -> list:
        """Rows of raw reps, for the field's arith class."""
        return [list(r) for r in self.field.arith.reps(self._form)]

    def form(self):
        """The field's matrix form, for its arith class's ``chain`` and
        ``is_product``; immutable, so it is not copied."""
        return self._form

    @property
    def rows(self) -> tuple:
        """Rows of FieldElements."""
        f = self.field
        return tuple(tuple(FieldElement(f, x) for x in r)
                     for r in f.arith.reps(self._form))

    def __getitem__(self, ij):
        i, j = ij
        return FieldElement(self.field,
                            self.field.arith.row_entry(self._form[i], j))

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
        reps = self.field.arith.reps
        return Matrix.from_reps(self.field, [
            list(map(op, ra, rb))
            for ra, rb in zip(reps(self._form), reps(other._form))])

    def __add__(self, other):
        return self._entrywise(self.field.arith.add, other)

    def __sub__(self, other):
        return self._entrywise(self.field.arith.sub, other)

    def __neg__(self):
        negate = self.field.arith.row_negate
        return Matrix.from_form(self.field, [negate(r) for r in self._form])

    def __matmul__(self, other):
        """The product, a ``chain`` of two forms."""
        self.check_operand(other)
        return Matrix.from_form(self.field, self.field.arith.chain(
            [self._form, other._form]))

    def scalar_mul(self, c: FieldElement):
        (c,) = _reps_of(self.field, (c,))
        scale = self.field.arith.row_scale
        return Matrix.from_form(self.field, [scale(r, c) for r in self._form])

    def transpose(self):
        return Matrix.from_form(self.field,
                                self.field.arith.transpose(self._form))

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
                     _apply(f.arith, self._form, _reps_of(f, vec)))

    # -- scalar invariants --

    def trace(self) -> FieldElement:
        return FieldElement(self.field, reduce(self.field.arith.add,
                                               self._diagonal()))

    def det(self) -> FieldElement:
        if self._det is None:
            self._det = self.field.arith.det(self._form)
        return FieldElement(self.field, self._det)

    def inverse(self) -> "Matrix":
        """[A | I] eliminated over its first n columns: its right half."""
        arith, n = self.field.arith, self.n
        work, pivots = rref(arith, map(arith.row_cat, self._form,
                                       arith.diagonal([arith.one] * n)), n)
        if len(pivots) != n:
            raise Singular("matrix is not invertible")
        right = slice(n, None)
        return Matrix.from_form(self.field,
                                [arith.row_cut(r, right) for r in work])

    # -- predicates --

    def is_zero(self) -> bool:
        return self == Matrix.from_form(self.field,
                                        self.field.arith.zeros(self.n))

    def is_identity(self) -> bool:
        return self == identity(self.field, self.n)

    def is_scalar(self) -> bool:
        return self.field.arith.is_scalar(self._form)

    def is_diagonal(self) -> bool:
        is_zero = self.field.arith.is_zero
        return all(is_zero(v)
                   for i, r in enumerate(self.field.arith.reps(self._form))
                   for j, v in enumerate(r) if i != j)

    def diagonal(self):
        f = self.field
        return tuple(FieldElement(f, x) for x in self._diagonal())

    def _diagonal(self) -> list:
        """The reps on the diagonal."""
        entry = self.field.arith.row_entry
        return [entry(r, i) for i, r in enumerate(self._form)]

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
        return self.field.arith.tokens(self._form)


def _apply(arith, form, vec) -> list:
    """The reps of X vec, for X given as its form and vec as reps: the
    chain of X and vec as one column, read at column 0."""
    return [arith.row_entry(r, 0)
            for r in arith.chain([form, arith.form([[x] for x in vec])])]


# -- constructors ---------------------------------------------------------

def identity(field: FieldSpec, n: int) -> Matrix:
    arith = field.arith
    return Matrix.from_form(field, arith.diagonal([arith.one] * n))


def diagonal(field: FieldSpec, entries) -> Matrix:
    return Matrix.from_form(field, field.arith.diagonal(
        _reps_of(field, entries)))


def jordan_block(field: FieldSpec, n: int, lam: FieldElement) -> Matrix:
    """J_n(lam): lam on the diagonal and 1 right above it."""
    (lam,) = _reps_of(field, [lam])
    one, zero = field.arith.one, field.arith.zero
    return Matrix.from_reps(field, [
        [lam if j == i else one if j == i + 1 else zero for j in range(n)]
        for i in range(n)])


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
    """The block-diagonal matrix of the given blocks, in order: each
    block's rows between zero rows, by ``row_cat``."""
    field = mats[0].field
    if any(m.field != field for m in mats):
        raise FieldMismatch("direct sum over different fields")
    arith = field.arith
    cat, zero = arith.row_cat, arith.zero
    n = sum(m.n for m in mats)
    rows, before = [], 0
    for m in mats:
        left = arith.row([zero] * before)
        right = arith.row([zero] * (n - before - m.n))
        rows.extend(cat(cat(left, r), right) for r in m._form)
        before += m.n
    return Matrix.from_form(field, rows)


# -- elimination and kernels -------------------------------------------------

def rref(arith, rows, limit: int) -> tuple:
    """(rows, pivots): the reduced row echelon form of rows of the row
    API, and its pivot columns among the first ``limit`` columns.  The
    given rows are not changed.

    Pivot choice: the first nonzero entry, scanning the rows not yet
    pivoted top-down, of each column, columns left to right
    (deterministic in exact arithmetic).  The pivot row is scaled to 1
    at its pivot and every other row takes off its multiple; both are
    whole-row operations, ``row_scale`` and ``row_sub_scaled``, so this
    is the one elimination of every field kind.
    """
    work = list(rows)
    entry, is_zero = arith.row_entry, arith.is_zero
    scale, sub_scaled = arith.row_scale, arith.row_sub_scaled
    pivots = []
    for col in range(limit):
        row = len(pivots)
        if row == len(work):
            break
        pivot = next((r for r in range(row, len(work))
                      if not is_zero(entry(work[r], col))), None)
        if pivot is None:
            continue
        top, work[pivot] = work[pivot], work[row]
        work[row] = head = scale(top, arith.inv(entry(top, col)))
        for r, other in enumerate(work):
            if r != row:
                work[r] = sub_scaled(other, entry(other, col), head)
        pivots.append(col)
    return work, pivots


def _kernel(arith, rows) -> list:
    """Basis of the right kernel of the square matrix given as rows of
    its form, as rows, in canonical (free-column) order: each vector has
    a 1 at its free column."""
    n = len(rows)
    work, pivots = rref(arith, rows, n)
    entry, neg = arith.row_entry, arith.neg
    pivot_set = set(pivots)
    basis = []
    for f in (j for j in range(n) if j not in pivot_set):
        vec = [arith.zero] * n
        vec[f] = arith.one
        for rowi, pj in enumerate(pivots):
            vec[pj] = neg(entry(work[rowi], f))
        basis.append(arith.row(vec))
    return basis


def kernel_basis(A: Matrix):
    """Basis of the right kernel, as tuples, in canonical (free-column)
    order."""
    f = A.field
    return [tuple(FieldElement(f, x) for x in v)
            for v in f.arith.reps(_kernel(f.arith, A._form))]


# -- characteristic polynomial --------------------------------------------

def charpoly(A: Matrix) -> Poly:
    """det(xI - A) in O(n^3) field operations.

    A is reduced to upper Hessenberg form H by similarity, pivoting on
    the first nonzero entry below the subdiagonal; then the leading
    principal minors p_k = det(xI - H[:k, :k]) follow the standard
    recurrence (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9).  Valid in any characteristic.  Both run on
    reps, with element operations; the minors are ascending coefficient
    lists.
    """
    field, n = A.field, A.n
    arith = field.arith
    is_zero, mul, sub = arith.is_zero, arith.mul, arith.sub

    def sub_scaled(row, c, other):
        return [sub(x, mul(c, y)) for x, y in zip(row, other)]

    H = [list(r) for r in arith.reps(A._form)]
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
    transforms are reproducible.  At each level that test is one
    ``rref`` of the matrix whose columns are the earlier levels' bottoms,
    then this level's: the pivot columns of an RREF are the columns
    independent of those before them, so the new chains start at its
    pivot columns past the old bottoms.  A level j larger than the
    blocks left uncovered can start no chain, so its kernel is not
    computed.
    """
    field, n = A.field, A.n
    arith = field.arith
    N = arith.shift(A._form, arith.one)
    npowers = [arith.diagonal([arith.one] * n), N]
    zeros = arith.zeros(n)
    while npowers[-1] != zeros:
        if len(npowers) > n:
            raise NotUnipotent("matrix is not unipotent")
        npowers.append(arith.chain([npowers[-1], N]))
    index = len(npowers) - 1
    bottoms = []  # of the chains chosen so far, as rows
    tops = []  # (vector, height), heights non-increasing by construction
    rest = n  # total size of the blocks no chosen chain covers
    for j in range(index, 0, -1):
        if j > rest:
            continue  # no block of size j is left; none at all once rest = 0
        kernel = _kernel(arith, npowers[j])
        # the bottoms N^(j-1) v of the kernel vectors v, as rows, in one
        # product: (N^(j-1) v)^T = v^T (N^(j-1))^T
        images = arith.chain([kernel, arith.transpose(npowers[j - 1])])
        # new chains start at the pivot columns past the old bottoms
        old = len(bottoms)
        _, pivots = rref(arith, arith.transpose([*bottoms, *images]),
                         old + len(images))
        for p in pivots[old:]:
            tops.append((kernel[p - old], j))
            bottoms.append(images[p - old])
            rest -= j
    # the columns N^(h-1) v, ..., N v, v of each chain, as rows
    Nt, cols = arith.transpose(N), []
    for v, h in tops:
        links = [v]
        for _ in range(h - 1):
            links.append(arith.chain([[links[-1]], Nt])[0])
        cols.extend(reversed(links))
    Q = Matrix.from_form(field, arith.transpose(cols))
    return JordanData(tuple(h for _, h in tops), Q.inverse(), Q)


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

    T, T^-1 and R are read as forms and K is built as one, so over Q
    the chains and the substitution run on integer rows, and P and P^-1
    are the forms they return.
    """
    field, n = R.field, R.n
    arith = field.arith
    one, is_zero, entry = arith.one, arith.is_zero, arith.row_entry
    rows, Tr, Tinv = R.form(), T.form(), T_inv.form()
    if any(entry(r, i) != one for i, r in enumerate(rows)):
        raise NotUnipotent("matrix is not unit triangular")
    if not arith.is_lower(rows):
        rows, Tr, Tinv = _flip(arith, rows), _reversed(arith, Tr), Tinv[::-1]
    N = arith.shift(rows, one)
    if any(is_zero(entry(N[i + 1], i)) for i in range(n - 1)):
        return None
    f = next(j for j in range(n) if not is_zero(entry(Tinv[0], j)))
    powers = [[entry(r, f) for r in Tinv]]
    for _ in range(n - 1):
        powers.append(_apply(arith, N, powers[-1]))
    # K J, lower triangular
    K_rev = arith.form([list(r) for r in zip(*powers)])
    Q = _reversed(arith, arith.chain([Tr, K_rev]))
    P = arith.chain([_lower_inverse(arith, K_rev)[::-1], Tinv])
    return JordanData((n,), Matrix.from_form(field, P),
                      Matrix.from_form(field, Q))


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
        av = _apply(arith, A._form, v)
        # independent iff the 2x2 det [v | Av] is nonzero
        if not arith.is_zero(arith.sub(mul(v[0], av[1]), mul(v[1], av[0]))):
            Q = Matrix.from_reps(A.field, zip(v, av))
            return Q.inverse(), Q
    raise ScalarInput("no non-eigenvector found; matrix is scalar")


def similarity_to_diagonal(A: Matrix, entries):
    """(P, P^-1) with P A P^-1 = diag(entries), for diagonalizable A whose
    eigenvalue multiset equals the requested entries (repeats allowed).

    Column i of P^-1 is taken from ker(A - entries[i] I), so an
    invertible P^-1 already proves P A P^-1 = diag(entries) exactly;
    a spectrum that does not match leaves some eigenspace too small.
    The arith class's ``primitive_columns`` scales the ``kernel_basis``
    vectors: over a finite field each already ends in 1 at its free
    column and keeps its scale; over Q it becomes a primitive integer
    vector whose last nonzero coordinate is positive, which keeps the
    entries of P and of the certificates built from it short.
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
            pools[lam] = _kernel(arith, arith.shift(A._form, lam))
        if not pools[lam]:
            raise SpectrumMismatch(
                f"eigenspace of {arith.token(lam)} too small")
        cols[i] = pools[lam].pop(0)
    form, _ = arith.primitive_columns(arith.transpose(cols), range(n))
    Q = Matrix.from_form(field, form)
    try:
        P = Q.inverse()
    except Singular:
        raise SpectrumMismatch("matrix is not diagonalizable")
    return P, Q


def diagonalize_triangular(T: Matrix, T_inv: Matrix, R: Matrix, spectrum):
    """(P, P^-1) with P (T R T^-1) P^-1 = diag(spectrum), for R lower or
    upper triangular with the distinct spectrum on its diagonal, in any
    order, and T_inv the inverse of T.

    No elimination runs.  An upper R is turned by 180 degrees (J R J,
    with T J and J T^-1 in place of T and T^-1), as in
    ``single_block_jordan``, so let R be lower.  The eigenvectors of R
    are the columns of a unit lower triangular W, by substitution, and
    W^-1, whose rows are the left eigenvectors, follows by substitution
    too.  Column i of P^-1 is T w for the column w of spectrum[i],
    scaled by ``primitive_columns``, as ``similarity_to_diagonal``
    scales its kernel vectors.  An eigenspace of a distinct spectrum is
    a line, so both give the same column, and the same P: the matching
    row of W^-1, divided by that column's scale, times T^-1.

    All of it runs on rows of forms (the arith class's row API): row i
    of W is the product of R[i][:i] with W's leading block, divided
    entry by entry by the gaps d_k - d_i and followed by a unit tail;
    ``primitive_columns`` scales the columns of T W; and P is the chain
    of the scaled rows of W^-1 with T^-1's form.  Over Q that is one
    integer pass and one ``gcd`` per row, and P and P^-1 go to
    ``Matrix.from_form`` as they are.
    """
    field, n = R.field, R.n
    arith = field.arith
    zero, one = arith.zero, arith.one
    spectrum = _reps_of(field, spectrum)
    rows, Tr, Tinv = R.form(), T.form(), T_inv.form()
    if not arith.is_lower(rows):
        # J R J, with J the reversal, is lower, in the basis T J
        rows, Tr, Tinv = _flip(arith, rows), _reversed(arith, Tr), Tinv[::-1]
    diag = [arith.row_entry(r, i) for i, r in enumerate(rows)]
    # order[i] is the column of spectrum[i]; a permutation exactly when
    # the spectrum is distinct and equals the diagonal
    where = {lam: k for k, lam in enumerate(diag)}
    order = [where.get(lam, n) for lam in spectrum]
    if sorted(order) != list(range(n)):
        raise SpectrumMismatch("spectrum must be distinct and equal the "
                               "diagonal of R")
    # row i of R W = W diag: (d_k - d_i) W[i][k] = R[i][:i] . W[:i][k],
    # and W[:i] is zero right of column i - 1, so the product reads only
    # W's leading i x i block
    sub = arith.sub
    W = []
    for i, r in enumerate(rows):
        gaps = arith.row([sub(d, diag[i]) for d in diag[:i]])
        W.append(arith.row_cat(
            arith.row_divide(arith.lead_product(r, W, i), gaps),
            arith.row([one] + [zero] * (n - 1 - i))))
    W_inv = _lower_inverse(arith, W)
    # column i of P^-1 is T w for the column w of spectrum[i], put to the
    # eigenvector scale: c T w, and P's row i is W^-1's row for w over c
    Q, scales = arith.primitive_columns(arith.chain([Tr, W]), order)
    P_rows = [arith.row_scale(W_inv[k], arith.inv(c))
              for k, c in zip(order, scales)]
    return (Matrix.from_form(field, arith.chain([P_rows, Tinv])),
            Matrix.from_form(field, Q))


def _flip(arith, rows) -> list:
    """Rows of J X J, J the reversal permutation: X turned by 180 degrees."""
    return _reversed(arith, rows[::-1])


def _reversed(arith, rows) -> list:
    """Rows of X J, J the reversal permutation: each row reversed."""
    back, cut = slice(None, None, -1), arith.row_cut
    return [cut(r, back) for r in rows]


def _lower_inverse(arith, rows) -> list:
    """Rows of X^-1, for X given as rows of the arith class's row type,
    lower triangular with no zero on its diagonal, by substitution: row
    i of X X^-1 = I gives X^-1[i] = (e_i - X[i][:i] . X^-1[:i]) / X[i][i].
    X^-1 is lower triangular too, so the product reads only its leading
    i x i block (``lead_product``) and is zero from column i on."""
    zero, one = arith.zero, arith.one
    n = len(rows)
    out = []
    for i, r in enumerate(rows):
        head = arith.lead_product(r, out, i)
        e = arith.row_cat(arith.row_negate(head),
                          arith.row([one] + [zero] * (n - 1 - i)))
        pivot = arith.row_entry(r, i)
        out.append(e if pivot == one else arith.row_scale(e, arith.inv(pivot)))
    return out


def find_diagonal_permutation(source: Matrix, target: Matrix) -> Matrix:
    """Permutation P with P source P^-1 == target, for diagonal matrices
    with equal entry multisets; greedy first-unused matching.  P^-1 is
    P's transpose."""
    if not (source.is_diagonal() and target.is_diagonal()):
        raise LinalgError("both matrices must be diagonal")
    unused = source._diagonal()
    eye = identity(source.field, source.n).form()
    rows = []
    for x in target._diagonal():
        j = next((j for j, s in enumerate(unused) if s == x), None)
        if j is None:
            raise LinalgError("diagonal multisets differ")
        unused[j] = None  # no rep equals None
        rows.append(eye[j])
    return Matrix.from_form(source.field, rows)


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

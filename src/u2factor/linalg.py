"""Exact dense matrix arithmetic and canonical forms.

Everything here is pure and value-semantic: operations return new
matrices, pivoting is "first nonzero in column order" (the only
deterministic choice in exact arithmetic), and the canonical-form
transforms are constructed so identical inputs always give identical
outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .field import FieldSpec, FieldElement, FieldMismatch, parse_field_spec, \
    parse_element
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


class Matrix:
    """Immutable square matrix of FieldElements."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise SizeMismatch("matrix must be square")
            for e in r:
                if e.field != field:
                    raise FieldMismatch("entry from a different field")
        self.field = field
        self.n = n
        self.rows = rows

    # -- construction helpers --

    @classmethod
    def from_ints(cls, field: FieldSpec, rows):
        return cls(field, [[field.element(v) for v in r] for r in rows])

    @classmethod
    def from_reps(cls, field: FieldSpec, rows) -> "Matrix":
        """Wrap square rows of canonical reps, as the field's arith class
        returns them, without checking them."""
        out = object.__new__(cls)
        out.field, out.n = field, len(rows)
        out.rows = tuple(tuple(FieldElement(field, x) for x in r)
                         for r in rows)
        return out

    def reps(self) -> list:
        """Rows of raw reps, for the field's arith class."""
        return [[e.rep for e in r] for r in self.rows]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

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

    def __add__(self, other):
        self.check_operand(other)
        return Matrix(self.field,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self.check_operand(other)
        return Matrix(self.field,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def __matmul__(self, other):
        """The product, computed on raw reps by the field's arith class:
        each operand's reps are read once and each entry is wrapped once."""
        self.check_operand(other)
        return Matrix.from_reps(self.field, self.field.arith.matmul(
            self.reps(), other.reps()))

    def scalar_mul(self, c: FieldElement):
        return Matrix(self.field, [[a * c for a in r] for r in self.rows])

    def transpose(self):
        return Matrix(self.field, zip(*self.rows))

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
        out = []
        for r in self.rows:
            acc = r[0] * vec[0]
            for a, b in zip(r[1:], vec[1:]):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    # -- scalar invariants --

    def trace(self) -> FieldElement:
        acc = self.rows[0][0]
        for i in range(1, self.n):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> FieldElement:
        return FieldElement(self.field, det_reps(self.field.arith, self.reps()))

    def rank(self) -> int:
        return len(_rref([list(r) for r in self.rows])[1])

    def nullity(self) -> int:
        return self.n - self.rank()

    def inverse(self) -> "Matrix":
        field, n = self.field, self.n
        work = [list(r) + [field.one() if i == j else field.zero()
                           for j in range(n)]
                for i, r in enumerate(self.rows)]
        work, pivots = _rref(work, limit=n)
        if len(pivots) != n:
            raise Singular("matrix is not invertible")
        return Matrix(field, [r[n:] for r in work])

    # -- predicates --

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def is_identity(self) -> bool:
        return self == identity(self.field, self.n)

    def is_scalar(self) -> bool:
        d = self.rows[0][0]
        for i in range(self.n):
            for j in range(self.n):
                e = self.rows[i][j]
                if i == j:
                    if e != d:
                        return False
                elif not e.is_zero():
                    return False
        return True

    def is_diagonal(self) -> bool:
        return all(self.rows[i][j].is_zero()
                   for i in range(self.n) for j in range(self.n) if i != j)

    def diagonal(self):
        return tuple(self.rows[i][i] for i in range(self.n))

    # -- identity / io --

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(e.token() for e in r) for r in self.rows)
        return f"Matrix({self.field.spec_string()}, [{body}])"

    def tokens(self):
        return [[e.token() for e in r] for r in self.rows]


# -- constructors ---------------------------------------------------------

def identity(field: FieldSpec, n: int) -> Matrix:
    one, zero = field.one(), field.zero()
    return Matrix(field, [[one if i == j else zero for j in range(n)]
                          for i in range(n)])


def zeros(field: FieldSpec, n: int) -> Matrix:
    zero = field.zero()
    return Matrix(field, [[zero] * n for _ in range(n)])


def diagonal(field: FieldSpec, entries) -> Matrix:
    entries = list(entries)
    zero = field.zero()
    return Matrix(field, [[entries[i] if i == j else zero
                           for j in range(len(entries))]
                          for i in range(len(entries))])


def scalar_matrix(field: FieldSpec, c: FieldElement, n: int) -> Matrix:
    return diagonal(field, [c] * n)


def jordan_block(field: FieldSpec, n: int, lam: FieldElement) -> Matrix:
    zero, one = field.zero(), field.one()
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = lam
        if i + 1 < n:
            rows[i][i + 1] = one
    return Matrix(field, rows)


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    if a.field != b.field:
        raise FieldMismatch("direct sum over different fields")
    zero = a.field.zero()
    n, m = a.n, b.n
    rows = []
    for r in a.rows:
        rows.append(list(r) + [zero] * m)
    for r in b.rows:
        rows.append([zero] * n + list(r))
    return Matrix(a.field, rows)


def direct_sum_all(mats) -> Matrix:
    mats = list(mats)
    out = mats[0]
    for m in mats[1:]:
        out = direct_sum(out, m)
    return out


# -- elimination core ------------------------------------------------------

def det_reps(arith, rows):
    """Determinant of a square matrix given as rows of reps, by Gaussian
    elimination through the field's arith class: the first nonzero
    entry in each column is the pivot, and entries left of the pivot
    column are never read again, so they are not updated."""
    is_zero, mul, sub = arith.is_zero, arith.mul, arith.sub
    work = [list(r) for r in rows]
    n = len(work)
    det = arith.one
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not is_zero(work[r][col])), None)
        if pivot is None:
            return arith.zero
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = arith.neg(det)
        head = work[col][col]
        det = mul(det, head)
        inv = arith.inv(head)
        tail = work[col][col + 1:]
        for row in work[col + 1:]:
            if not is_zero(row[col]):
                factor = mul(row[col], inv)
                row[col + 1:] = map(sub, row[col + 1:],
                                    map(mul, repeat(factor), tail))
    return det


def _rref(work, limit=None):
    """In-place reduced row echelon form; returns (rows, pivot_columns).

    Pivot choice: first nonzero entry scanning rows top-down within each
    column, columns left to right (deterministic in exact arithmetic).
    """
    if not work:
        return work, []
    nrows = len(work)
    ncols = len(work[0]) if limit is None else limit
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = next((r for r in range(row, nrows)
                      if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = work[row][col].inverse()
        work[row] = [a * inv for a in work[row]]
        for r in range(nrows):
            if r != row and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
    return work, pivots


def kernel_basis(A: Matrix):
    """Basis of the right kernel, as tuples, in canonical (free-column)
    order."""
    field, n = A.field, A.n
    work, pivots = _rref([list(r) for r in A.rows])
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    one, zero = field.one(), field.zero()
    for f in free:
        vec = [zero] * n
        vec[f] = one
        for rowi, pj in enumerate(pivots):
            vec[pj] = -work[rowi][f]
        basis.append(tuple(vec))
    return basis


class IndependentSet:
    """Incremental linear-independence tracker over a field."""

    def __init__(self, field: FieldSpec, dim: int):
        self.field = field
        self.dim = dim
        self.rows = []       # reduced, each with a recorded pivot column
        self.pivots = []

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if not c.is_zero():
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec) -> bool:
        """Add vec if independent of the current span; returns True if added."""
        red = self.reduce(vec)
        pivot = next((i for i, c in enumerate(red) if not c.is_zero()), None)
        if pivot is None:
            return False
        inv = red[pivot].inverse()
        red = [c * inv for c in red]
        self.rows.append(red)
        self.pivots.append(pivot)
        return True

    def __len__(self):
        return len(self.rows)


def matrix_from_columns(field: FieldSpec, cols) -> Matrix:
    return Matrix(field, zip(*cols))


# -- characteristic / minimal polynomial -----------------------------------

def charpoly(A: Matrix) -> Poly:
    """det(xI - A) in O(n^3) field operations.

    A is reduced to upper Hessenberg form H by similarity, pivoting on
    the first nonzero entry below the subdiagonal; then the leading
    principal minors p_k = det(xI - H[:k, :k]) follow the standard
    recurrence (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9).  Valid in any characteristic.
    """
    field, n = A.field, A.n
    H = [list(r) for r in A.rows]
    for m in range(1, n - 1):
        i = next((r for r in range(m, n) if not H[r][m - 1].is_zero()), None)
        if i is None:
            continue
        if i != m:
            H[i], H[m] = H[m], H[i]
            for row in H:
                row[i], row[m] = row[m], row[i]
        inv = H[m][m - 1].inverse()
        for r in range(m + 1, n):
            u = H[r][m - 1] * inv
            if u.is_zero():
                continue
            # row_r -= u row_m, then col_m += u col_r keeps the similarity
            H[r] = [a - u * b for a, b in zip(H[r], H[m])]
            for row in H:
                row[m] = row[m] + u * row[r]
    x = Poly.x(field)
    minors = [Poly.one(field)]
    for k in range(n):
        p = (x - Poly.constant(H[k][k])) * minors[k]
        t = field.one()
        for i in range(k - 1, -1, -1):
            t = t * H[i + 1][i]
            if t.is_zero():
                break
            p = p - minors[i] * (t * H[i][k])
        minors.append(p)
    return minors[n]


def minpoly(A: Matrix) -> Poly:
    """Monic minimal polynomial via the first Krylov dependency among
    vectorized powers I, A, A^2, ..."""
    field, n = A.field, A.n
    powers = [identity(field, n)]
    span = IndependentSet(field, n * n)
    vec = tuple(e for r in powers[0].rows for e in r)
    span.add(vec)
    current = powers[0]
    for m in range(1, n + 1):
        current = current @ A
        flat = tuple(e for r in current.rows for e in r)
        red = span.reduce(flat)
        if all(c.is_zero() for c in red):
            # solve sum c_i A^i = A^m exactly
            cols = [tuple(e for r in P.rows for e in r) for P in powers]
            coeffs = _solve_columns(field, cols, flat)
            poly_coeffs = [-c for c in coeffs] + [field.one()]
            mp = Poly(field, poly_coeffs)
            cp = charpoly(A)
            assert (cp % mp).is_zero(), "minimal polynomial must divide charpoly"
            return mp
        powers.append(current)
        span.add(flat)
    raise LinalgError("no Krylov dependency found (unreachable)")


def _solve_columns(field, cols, target):
    """Solve sum_i c_i cols[i] = target; cols independent, system consistent."""
    m = len(cols)
    dim = len(target)
    work = [[cols[j][i] for j in range(m)] + [target[i]] for i in range(dim)]
    work, pivots = _rref(work, limit=m)
    sol = [field.zero()] * m
    for rowi, p in enumerate(pivots):
        sol[p] = work[rowi][m]
    # consistency check
    for rowi in range(len(pivots), dim):
        if not work[rowi][m].is_zero():
            raise LinalgError("inconsistent system")
    return sol


def char_min_poly(A: Matrix):
    """(charpoly, minpoly) as ascending coefficient lists."""
    return list(charpoly(A).coeffs), list(minpoly(A).coeffs)


# -- unipotent Jordan form --------------------------------------------------

@dataclass(frozen=True)
class JordanData:
    """Partition and transform P with P A P^-1 = direct sum of J_{n_i}(1);
    ``transform_inverse`` is P^-1, the column matrix P was inverted from."""

    partition: tuple
    transform: Matrix
    form: Matrix
    transform_inverse: Matrix


def unipotent_jordan(A: Matrix) -> JordanData:
    """Jordan data for a unipotent matrix (all eigenvalues 1).

    Chains are built largest block first; complement vectors are chosen
    by scanning deterministic kernel bases, so transforms are
    reproducible.
    """
    field, n = A.field, A.n
    N = A - identity(field, n)
    npowers = [identity(field, n)]
    index = None
    for j in range(1, n + 1):
        npowers.append(npowers[-1] @ N)
        if npowers[-1].is_zero():
            index = j
            break
    if index is None:
        raise NotUnipotent("matrix is not unipotent")
    if index == 1:
        # A == I
        eye = identity(field, n)
        return JordanData((1,) * n, eye, eye, eye)
    kernels = [[]]
    for j in range(1, index + 1):
        kernels.append(kernel_basis(npowers[j]))
    tops = []  # (vector, height), heights non-increasing by construction
    for j in range(index, 0, -1):
        span = IndependentSet(field, n)
        for v in kernels[j - 1]:
            span.add(v)
        for (u, h) in tops:
            span.add(npowers[h - j].apply(u))
        for v in kernels[j]:
            if span.add(v):
                tops.append((v, j))
    cols = []
    for (v, h) in tops:
        cols.extend(npowers[h - 1 - i].apply(v) for i in range(h))
    Q = matrix_from_columns(field, cols)
    P = Q.inverse()
    form = direct_sum_all([jordan_block(field, h, field.one())
                           for (_, h) in tops])
    partition = tuple(h for (_, h) in tops)
    return JordanData(partition, P, form, Q)


# -- similarity transforms ---------------------------------------------------

def companion_similarity_2x2(A: Matrix):
    """(P, P^-1) with P A P^-1 = [[0, -det A], [1, tr A]] for nonscalar
    2x2 A."""
    if A.n != 2:
        raise SizeMismatch("companion form is for 2x2 input")
    if A.is_scalar():
        raise ScalarInput("scalar matrices have no companion form")
    field = A.field
    one, zero = field.one(), field.zero()
    candidates = [(one, zero), (zero, one), (one, one)]
    for v in candidates:
        av = A.apply(v)
        # independent iff the 2x2 det [v | Av] is nonzero
        d = v[0] * av[1] - v[1] * av[0]
        if not d.is_zero():
            Q = matrix_from_columns(field, [v, av])
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
    scale = field.arith.primitive
    entries = list(entries)
    if len(entries) != n:
        raise SpectrumMismatch("entry count != dimension")
    pools = {}
    cols = [None] * n
    for i, lam in enumerate(entries):
        if lam not in pools:
            basis = kernel_basis(A - scalar_matrix(field, lam, n))
            pools[lam] = [scale([e.rep for e in v]) for v in basis]
        if not pools[lam]:
            raise SpectrumMismatch(f"eigenspace of {lam.token()} too small")
        cols[i] = pools[lam].pop(0)
    Q = Matrix.from_reps(field, list(zip(*cols)))
    try:
        P = Q.inverse()
    except Singular:
        raise SpectrumMismatch("matrix is not diagonalizable")
    return P, Q


def diagonalize_known_spectrum(A: Matrix, spectrum):
    """(P, P^-1) with P A P^-1 = diag(spectrum); the spectrum must be
    distinct."""
    spectrum = list(spectrum)
    if len(set(spectrum)) != len(spectrum):
        raise SpectrumMismatch("spectrum entries must be distinct")
    return similarity_to_diagonal(A, spectrum)


def permutation_matrix(field: FieldSpec, perm) -> Matrix:
    """P with (P d P^-1)_{ii} = d_{perm[i], perm[i]} for diagonal d."""
    n = len(perm)
    one, zero = field.one(), field.zero()
    rows = [[zero] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = one
    return Matrix(field, rows)


def find_diagonal_permutation(source: Matrix, target: Matrix) -> Matrix:
    """Permutation P with P source P^-1 == target, for diagonal matrices
    with equal entry multisets; greedy first-unused matching.  P^-1 is
    P's transpose."""
    if not (source.is_diagonal() and target.is_diagonal()):
        raise LinalgError("both matrices must be diagonal")
    src = list(source.diagonal())
    tgt = list(target.diagonal())
    used = [False] * len(src)
    perm = []
    for t in tgt:
        j = next((j for j, s in enumerate(src) if not used[j] and s == t),
                 None)
        if j is None:
            raise LinalgError("diagonal multisets differ")
        used[j] = True
        perm.append(j)
    return permutation_matrix(source.field, perm)


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
    if not first.lstrip("-").isdigit():
        file_field = parse_field_spec(first)
        if field is not None and field != file_field:
            raise FieldMismatch("matrix file field disagrees with --field")
        field = file_field
        pos = 1
    if field is None:
        raise LinalgError("no field spec in file and none supplied")
    if pos == len(lines):
        raise LinalgError("no dimension line")
    n = int(lines[pos])
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
        rows.append([parse_element(field, t) for t in tokens])
    return Matrix(field, rows)


def matrix_to_text(A: Matrix) -> str:
    lines = [A.field.spec_string(), str(A.n)]
    for r in A.rows:
        lines.append(" ".join(e.token() for e in r))
    return "\n".join(lines) + "\n"

"""Input corpora that the tests and ``scripts/make_q_digests.py`` share.

- ``structured_corpus``: a fixed subset of structured inputs in SL_n(F),
  which ``tests/test_sourour.py`` factors over every field and the Q
  digest corpus records over Q;
- ``wide_conjugator``: the unit upper triangular P over Q whose entries
  have unrelated wide denominators, which conjugates the ``wide`` inputs
  of the Q digest corpus and the wide-row split tests.

Only the library is imported here, so the script can load this file by
path and no test module has to be run to build the corpus.
"""

import itertools
from fractions import Fraction

from u2factor.linalg import Matrix, diagonal, jordan_block


def _spread(items, k):
    """At most k of items, evenly spaced, first included."""
    items = list(items)
    step = max(1, -(-len(items) // k))
    return items[::step]


def _permutation_matrix(F, perm):
    n = len(perm)
    return Matrix(F, [[F.one() if perm[i] == j else F.zero()
                       for j in range(n)] for i in range(n)])


def structured_corpus(F, n):
    """A fixed subset of structured inputs in SL_n(F): diag(a I_k,
    b I_{n-k}) with a != b, with and without E_1n; signed permutation
    matrices; direct sums of three scalar blocks; J_n(1) conjugated by
    permutations."""
    pool = (F.nonzero_elements() if F.is_finite else
            tuple(F.element(Fraction(s * v)) for s in (1, -1)
                  for v in (1, 2, 4, Fraction(1, 2), Fraction(1, 4))))
    one = F.one()
    diag = []
    for k in range(1, n):
        for a in pool:
            for b in pool:
                if a != b and a ** k * b ** (n - k) == one:
                    diag.append([a] * k + [b] * (n - k))
    for entries in _spread(diag, 6):
        A = diagonal(F, entries)
        yield A
        rows = [list(r) for r in A.rows]
        rows[0][-1] = one
        yield Matrix(F, rows)
    perms = list(itertools.islice(itertools.permutations(range(n)), 40))
    for perm in _spread(perms, 5):
        A = _permutation_matrix(F, perm)
        if A.det() != one:
            rows = [list(r) for r in A.rows]
            rows[0] = [-v for v in rows[0]]
            A = Matrix(F, rows)
        if not A.is_scalar():
            yield A
    for k1 in _spread(range(1, n - 1), 2):
        for a1, a2 in _spread(itertools.permutations(pool[:4], 2), 3):
            last = (a1 ** k1 * a2 ** (n - 1 - k1)).inverse()
            yield diagonal(F, [a1] * k1 + [a2] * (n - 1 - k1) + [last])
    J = jordan_block(F, n, one)
    for perm in _spread(perms[1:], 3):
        P = _permutation_matrix(F, perm)
        yield P @ J @ P.inverse()


def wide_conjugator(F, n: int, bits: int, rng):
    """A unit upper triangular P over Q whose entries above the diagonal
    have a signed numerator below 2^bits and their own odd denominator
    of exactly ``bits`` bits, so the denominators in a row are
    unrelated."""
    top = 1 << bits
    rows = [[F.element(1 if i == j else 0) for j in range(n)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.getrandbits(bits) | 1 | (top >> 1)
            rows[i][j] = F.element(Fraction(rng.randrange(-top, top), den))
    return Matrix(F, rows)

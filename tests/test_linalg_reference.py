"""The sparse incremental solves against the dense eliminations they replaced.

The references below are the dense routes, independent of the library's
reducer: ``_echelon`` is the dense fraction-free elimination the library
used before, kept here as it was.  The whole commutator system is reduced
by it and its kernel read off row by row, each candidate generator is
tested by its rank on the whole pool, and Y . w is taken by
``ExactMatrix.apply``.  ``centralizer_basis``, ``jordan_basis``, both
classifiers and ``enhanced_centralizer_dim`` must give exactly what they
give, entry for entry, on random conjugates over Q, F_2, F_3 and F_5.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from enorbits import linalg
from enorbits.linalg import (
    GF,
    QQ,
    ExactMatrix,
    centralizer_basis,
    enhanced_centralizer_dim,
    jordan_basis,
    jordan_matrix,
)
from enorbits.orbits import EnhancedElement, classify, classify_invariant
from enorbits.partitions import EnhancedPartition, Partition, partitions_of

FIELDS = (QQ, GF(2), GF(3), GF(5))
MAX_N = 6


def _echelon(rows, p):
    """Reduce integer rows in place; returns the pivot columns.

    Over F_p (p > 0) the entries are ints mod p and every pivot is scaled
    to 1, giving the reduced row echelon form.  Over Q (p = 0) elimination
    is fraction-free, and row r ends as its pivot entry times row r of the
    reduced row echelon form.
    """
    pivots = []
    nrows = len(rows)
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        a = top[c]
        if p:
            inv = pow(a, p - 2, p)
            top = rows[r] = [e * inv % p for e in top]
        for i in range(nrows):
            b = rows[i][c]
            if not b or i == r:
                continue
            if p:
                rows[i] = [(e - b * t) % p for e, t in zip(rows[i], top)]
            else:
                g = gcd(a, b)
                s, t = a // g, b // g
                row = [s * e - t * u for e, u in zip(rows[i], top)]
                k = gcd(*row)
                rows[i] = [e // k for e in row] if k > 1 else row
        pivots.append(c)
        r += 1
    return pivots


def dense_rank(f, vectors):
    """Rank of field vectors by ``_echelon``."""
    rows, _ = linalg._ints(f, list(vectors))
    return len(_echelon(rows, f.p))


def dense_kernel(rows, pivots, ncols, p):
    """Kernel basis read off dense reduced rows, one vector per free column."""
    zero, one = linalg._quotient(0, 1, p), linalg._quotient(1, 1, p)
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(rows, pivots):
            if row[fc]:
                v[pc] = linalg._quotient(-row[fc], row[pc], p)
        basis.append(tuple(v))
    return basis


def dense_kernel_of(m):
    rows, _ = linalg._ints(m.field, m.entries)
    return dense_kernel(rows, _echelon(rows, m.field.p), m.cols, m.field.p)


def reference_centralizer(x):
    n, f = x.rows, x.field
    a, _ = linalg._ints(f, x.entries)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] += a[i][k]
            for l in range(n):
                row[i * n + l] -= a[l][j]
            rows.append([e % f.p for e in row] if f.p else row)
    kernel = dense_kernel(rows, _echelon(rows, f.p), n * n, f.p)
    return [ExactMatrix(f, [v[i * n:(i + 1) * n] for i in range(n)]) for v in kernel]


def reference_jordan(x):
    """(generators, change of basis), candidates tested against the whole pool."""
    f, n = x.field, x.rows
    m = 0
    while not x.power(m).is_zero():
        m += 1
    kernels = [dense_kernel_of(x.power(k)) for k in range(m + 1)]
    chains = []
    for size in range(m, 0, -1):
        pool = list(kernels[size - 1])
        for chain in chains:
            if len(chain) >= size:
                pool.append(chain[len(chain) - size])
        current = dense_rank(f, pool)
        for cand in kernels[size]:
            if dense_rank(f, pool + [cand]) > current:
                pool.append(cand)
                current += 1
                chain = [cand]
                for _ in range(size - 1):
                    chain.append(x.apply(chain[-1]))
                chains.append(chain)
    chains.sort(key=len, reverse=True)
    g = ExactMatrix.from_columns(f, [v for chain in chains for v in reversed(chain)])
    assert g.rows == n
    return tuple(chain[0] for chain in chains), g


def reference_enhanced_dims(x, w):
    """(dim g_X + n, rank of im X + g_X . w), with Y . w by ``apply``."""
    cols = [c.apply(w) for c in reference_centralizer(x)] + x.columns()
    return len(cols), dense_rank(x.field, cols)


def random_element(rng, f, lam):
    """g J_lam g^-1 with g = L U unit triangular, and a random vector."""
    n = lam.n

    def entry():
        if f.p:
            return rng.randrange(f.p)
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 7)))

    low = ExactMatrix(f, [[1 if i == j else (entry() if i > j else 0) for j in range(n)]
                          for i in range(n)])
    up = ExactMatrix(f, [[1 if i == j else (entry() if i < j else 0) for j in range(n)]
                         for i in range(n)])
    g = low @ up
    x = (g @ jordan_matrix(f, lam)) @ g.inverse()
    w = tuple(rng.choice((0, entry())) for _ in range(n))
    return x, w


def cases(seed, per_partition):
    rng = random.Random(seed)
    for f in FIELDS:
        for n in range(1, MAX_N + 1):
            for lam in partitions_of(n):
                for _ in range(per_partition):
                    yield (f, lam) + random_element(rng, f, lam)


@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f"p{f.p}")
def test_centralizer_matches_dense_reference(f):
    rng = random.Random(70101 + f.p)
    for n in range(1, MAX_N + 1):
        for lam in partitions_of(n):
            for _ in range(2):
                x, _ = random_element(rng, f, lam)
                got = centralizer_basis(x)
                assert got == reference_centralizer(x)
                assert all(map(_same_scaled, got))


def _same_scaled(y):
    """The cached integer form of y is some (ints, d) with ints / d = y."""
    ints, d = y._int_form()
    return all(
        linalg._quotient(e, d, y.field.p) == y.entries[i][j]
        for i, row in enumerate(ints) for j, e in enumerate(row)
    )


def test_jordan_basis_and_labels_match_dense_reference():
    for f, lam, x, w in cases(70201, 2):
        jd = jordan_basis(x)
        generators, g = reference_jordan(x)
        assert jd.lam == lam
        assert jd.generators == generators
        assert jd.change_of_basis == g
        total, r = reference_enhanced_dims(x, w)
        assert enhanced_centralizer_dim(x, w) == total - r
        e = EnhancedElement(x, w)
        label = EnhancedPartition(lam, lam.n - r)
        assert classify_invariant(e) == label == classify(e)


def test_jordan_basis_on_repeated_blocks():
    # equal block sizes make several candidates of one size, some dependent
    for f in FIELDS:
        for parts in ((2, 2, 2), (3, 3), (2, 2, 1, 1), (1, 1, 1, 1)):
            lam = Partition(parts)
            x = jordan_matrix(f, lam)
            jd = jordan_basis(x)
            assert (jd.generators, jd.change_of_basis) == reference_jordan(x)
            assert jd.change_of_basis == ExactMatrix.identity(f, lam.n)

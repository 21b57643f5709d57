"""Property tests of the exact kernel against sympy, written apart from it.

Matrices have at most 5 rows and columns.  Rational entries mix small
integers, small fractions and fractions with denominators near 10^30;
products A B of random factors make rank-deficient matrices common.
Nilpotent matrices are conjugates g J g^-1 of Jordan matrices, with g
drawn from the same entries.  Over F_p, for p in {2, 3, 5, 7}, entries are
drawn from [0, p).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enorbits.errors import NotInvertible
from enorbits.linalg import (
    GF,
    QQ,
    ExactMatrix,
    centralizer_basis,
    jordan_basis,
    jordan_matrix,
    jordan_type,
    kernel_basis,
    rank,
    solve,
)
from enorbits.partitions import partitions_of

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF as SympyGF  # noqa: E402
from sympy.polys.domains import QQ as SympyQQ  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

RATIONALS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(10**30 - 10**6, 10**30)),
)


def product(a, b):
    """A B in plain Fraction arithmetic."""
    return [[sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


@st.composite
def matrices(draw, entries=RATIONALS, square=False):
    """An r x c matrix A B with A r x k and B k x c, k <= min(r, c)."""
    r = draw(st.integers(1, 5))
    c = r if square else draw(st.integers(1, 5))
    k = draw(st.integers(1, min(r, c)))
    a = [[draw(entries) for _ in range(k)] for _ in range(r)]
    b = [[draw(entries) for _ in range(c)] for _ in range(k)]
    return product(a, b)


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row] for row in m])


@SETTINGS
@given(matrices())
def test_rank_matches_sympy(m):
    assert rank(ExactMatrix(QQ, m)) == to_sympy(m).rank()


@SETTINGS
@given(matrices())
def test_kernel_matches_sympy(m):
    basis = kernel_basis(ExactMatrix(QQ, m))
    assert len(basis) == len(to_sympy(m).nullspace())
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m)
    if basis:
        assert to_sympy(list(zip(*basis))).rank() == len(basis)


SMALL = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def conjugated_jordan(draw, small=SMALL, max_n=5):
    """(lam, g J_lam g^-1) with g = L U, L unit lower and U unit upper
    triangular with rational entries drawn from ``small``, so g is
    invertible; lam is a partition of n <= max_n."""
    n = draw(st.integers(1, max_n))
    lam = draw(st.sampled_from(partitions_of(n)))
    low = [[1 if i == j else (draw(small) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (draw(small) if i < j else 0) for j in range(n)] for i in range(n)]
    g = to_sympy(product(low, up))
    jm = jordan_matrix(QQ, lam).entries
    x = g * to_sympy(jm) * g.inv()
    return lam, x


def from_sympy(x):
    return ExactMatrix(QQ, [[Fraction(int(e.p), int(e.q)) for e in x.row(i)] for i in range(x.rows)])


def sympy_block_sizes(x):
    """Block sizes of sympy's Jordan form, largest first."""
    _, j = x.jordan_form()
    sizes, run = [], 1
    for i in range(j.rows - 1):
        if j[i, i + 1] == 1:
            run += 1
        else:
            sizes.append(run)
            run = 1
    sizes.append(run)
    return tuple(sorted(sizes, reverse=True))


@SETTINGS
@given(conjugated_jordan())
def test_jordan_type_matches_sympy(case):
    lam, x = case
    got = jordan_type(from_sympy(x))
    assert got == lam
    assert got.parts == sympy_block_sizes(x)


@SETTINGS
@given(st.sampled_from((2, 3, 5, 7)), st.data())
def test_prime_field_rank_matches_sympy(p, data):
    m = data.draw(matrices(st.integers(0, p - 1)))
    m = [[int(e) for e in row] for row in m]
    expected = DomainMatrix.from_list(m, ZZ).convert_to(SympyGF(p)).rank()
    assert rank(ExactMatrix(GF(p), m)) == expected


def domain_matrix(rows, ncols):
    """A list of rows of Fractions or sympy Rationals over sympy's QQ."""
    entries = [[SympyQQ(int(e.numerator), int(e.denominator)) for e in row] for row in rows]
    return DomainMatrix(entries, (len(rows), ncols), SympyQQ)


def commutator_nullspace(x):
    """sympy's nullspace of Y -> XY - YX on Y flattened row by row."""
    n = x.rows
    zero = sympy.Integer(0)
    # (XY - YX)_ij = sum_k X_ik Y_kj - sum_l Y_il X_lj
    system = [[(x[i, k] if j == l else zero) - (x[l, j] if i == k else zero)
               for k in range(n) for l in range(n)]
              for i in range(n) for j in range(n)]
    return domain_matrix(system, n * n).nullspace()


# with g drawn from RATIONALS the entries of X run to hundreds of digits;
# n <= 4 keeps sympy's reduction of the commutator system under a second
@SETTINGS
@given(conjugated_jordan(RATIONALS, max_n=4))
def test_centralizer_matches_sympy(case):
    lam, x = case
    n = x.rows
    basis = centralizer_basis(from_sympy(x))
    assert len(basis) == sum(c * c for c in lam.transpose().parts)
    null = commutator_nullspace(x)
    assert null.shape[0] == len(basis)
    flat = domain_matrix([[e for row in y.entries for e in row] for y in basis], n * n)
    assert flat.rank() == len(basis)
    assert flat.vstack(null).rank() == len(basis)


@SETTINGS
@given(conjugated_jordan(RATIONALS))
def test_jordan_basis_conjugates_to_jordan_matrix(case):
    lam, x = case
    jd = jordan_basis(from_sympy(x))
    g = to_sympy(jd.change_of_basis.entries)
    assert jd.lam == lam
    assert g.inv() * x * g == to_sympy(jordan_matrix(QQ, lam).entries)


PRIMES = (2, 3, 5, 7)
FIELD_PRIMES = st.one_of(st.just(0), st.sampled_from(PRIMES))  # 0 stands for Q, half the time
ENTRIES = {0: RATIONALS, **{p: st.integers(0, p - 1) for p in PRIMES}}
# strategies are made once: building one per example costs more than the test
MATRICES = {(p, square): matrices(e, square) for p, e in ENTRIES.items() for square in (False, True)}
# drawing the matrices dominates the tests below; 50 examples keep each
# near a quarter of a second
MIXED = settings(SETTINGS, max_examples=50)


def field_matrix(draw, p, square=False):
    """A drawn ``matrices`` example over Q (p = 0) or F_p, entries mod p."""
    m = draw(MATRICES[p, square])
    return [[int(e) % p for e in row] for row in m] if p else m


def field_of(p):
    return GF(p) if p else QQ


def is_zero(e, p):
    return e % p == 0 if p else e == 0


def sympy_matrix(rows, p):
    """rows over sympy's QQ (p = 0) or GF(p)."""
    if p:
        return DomainMatrix.from_list(rows, ZZ).convert_to(SympyGF(p))
    return domain_matrix(rows, len(rows[0]))


@MIXED
@given(FIELD_PRIMES, st.booleans(), st.data())
def test_solve_matches_sympy(p, consistent, data):
    m = field_matrix(data.draw, p)
    entries = ENTRIES[p]
    if consistent:
        x0 = [[data.draw(entries)] for _ in m[0]]
        b = [int(row[0]) % p if p else row[0] for row in product(m, x0)]
    else:  # a free right-hand side, inconsistent whenever rank m < rows
        b = [data.draw(entries) for _ in m]
    x = solve(ExactMatrix(field_of(p), m), b)
    aug = [row + [bi] for row, bi in zip(m, b)]
    solvable = sympy_matrix(aug, p).rank() == sympy_matrix(m, p).rank()
    assert (x is not None) == solvable
    if consistent:
        assert solvable
    if x is not None:
        assert all(is_zero(sum(a * y for a, y in zip(row, x)) - bi, p) for row, bi in zip(m, b))


@MIXED
@given(FIELD_PRIMES, st.data())
def test_inverse_matches_sympy(p, data):
    m = field_matrix(data.draw, p, square=True)
    n = len(m)
    a = ExactMatrix(field_of(p), m)
    if sympy_matrix(m, p).rank() < n:
        with pytest.raises(NotInvertible):
            a.inverse()
        return
    eye = product(m, a.inverse().entries)
    assert all(is_zero(eye[i][j] - (i == j), p) for i in range(n) for j in range(n))


@MIXED
@given(st.sampled_from(PRIMES), st.data())
def test_prime_field_kernel_matches_sympy(p, data):
    m = field_matrix(data.draw, p)
    basis = kernel_basis(ExactMatrix(GF(p), m))
    null = sympy_matrix(m, p).nullspace()
    assert null.shape[0] == len(basis)
    for v in basis:
        assert all(is_zero(sum(a * y for a, y in zip(row, v)), p) for row in m)
    if basis:
        ours = sympy_matrix([list(v) for v in basis], p)
        assert ours.rank() == len(basis)
        assert ours.vstack(null).rank() == len(basis)

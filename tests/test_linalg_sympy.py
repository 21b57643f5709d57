"""Property tests of the exact kernel against sympy, written apart from it.

Matrices have at most 5 rows and columns.  Rational entries mix small
integers, small fractions and fractions with denominators near 10^30;
products A B of random factors make rank-deficient matrices common.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enorbits.linalg import GF, QQ, ExactMatrix, jordan_matrix, jordan_type, kernel_basis, rank
from enorbits.partitions import partitions_of

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import GF as SympyGF  # noqa: E402
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
def matrices(draw, entries=RATIONALS):
    """An r x c matrix A B with A r x k and B k x c, k <= min(r, c)."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 5))
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


@st.composite
def conjugated_jordan(draw):
    """(lam, g J_lam g^-1) with g = L U, L unit lower and U unit upper
    triangular with small rational entries, so g is invertible."""
    n = draw(st.integers(1, 5))
    lam = draw(st.sampled_from(partitions_of(n)))
    small = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    low = [[1 if i == j else (draw(small) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (draw(small) if i < j else 0) for j in range(n)] for i in range(n)]
    g = to_sympy(product(low, up))
    jm = jordan_matrix(QQ, lam).entries
    x = g * to_sympy(jm) * g.inv()
    return lam, x


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
    m = ExactMatrix(QQ, [[Fraction(int(e.p), int(e.q)) for e in x.row(i)] for i in range(x.rows)])
    got = jordan_type(m)
    assert got == lam
    assert got.parts == sympy_block_sizes(x)


@SETTINGS
@given(st.sampled_from((2, 3, 5, 7)), st.data())
def test_prime_field_rank_matches_sympy(p, data):
    m = data.draw(matrices(st.integers(0, p - 1)))
    m = [[int(e) for e in row] for row in m]
    expected = DomainMatrix.from_list(m, ZZ).convert_to(SympyGF(p)).rank()
    assert rank(ExactMatrix(GF(p), m)) == expected

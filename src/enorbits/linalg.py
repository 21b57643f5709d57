"""Exact linear algebra over Q and over prime fields.

Matrices are immutable, dense and tiny (n <= 12 in practice); entries are
``fractions.Fraction`` over Q and plain ints in [0, p) over F_p.  There is
no floating point anywhere.

All arithmetic runs in one kernel on Python ints, reduced mod p over F_p
and not at all over Q (p = 0).  Rational operands are scaled to ints by a
common denominator.  Elimination (``_echelon``) is fraction-free over Q,
as in Bareiss (Math. Comp. 22, 1968): ``row_i <- (a/g) row_i - (b/g)
row_r`` for the pivot a and g = gcd(a, b), divided by the row's content.
A Fraction is built only for an entry a function returns.  The powers of
X = X_int / d share their ranks and kernels with those of X_int.

The classification theory is stated over an algebraically closed field,
but Jordan forms and the orbit reductions used here are rational over the
prime field, so exact computation over Q or F_p is faithful.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import NotInvertible, NotNilpotent, NotSquare, ParseError, SizeMismatch
from .partitions import Partition


@dataclass(frozen=True)
class Rationals:
    """The field Q; elements are Fractions."""

    tag = "Q"
    p = 0  # the modulus of the integer kernel; 0 means none

    def coerce(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)


#: Miller-Rabin with the prime bases 2..41 decides primality exactly below
#: this bound (Sorenson and Webster, Math. Comp. 86, 2017); larger p are
#: refused rather than tested.
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic primality for 0 <= p < PRIME_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p < PRIME_BOUND; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        p = self.p
        if p >= PRIME_BOUND:
            raise ValueError(f"p must be below {PRIME_BOUND}, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")

    @property
    def tag(self):
        return "Fp"

    def coerce(self, x):
        return int(x) % self.p

    def zero(self):
        return 0

    def one(self):
        return 1


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


# --- the integer kernel -----------------------------------------------


def _ints(field, rows):
    """(ints, d) with rows = ints / d: over Q for one common denominator d,
    over F_p for d = 1, the rows as they are (entries in [0, p))."""
    if field.p:
        return list(rows), 1
    d = lcm(*(e.denominator for row in rows for e in row))
    return [[e.numerator * (d // e.denominator) for e in row] for row in rows], d


def _quotient(num, den, p):
    """num / den as a field element; over F_p, den is 1 (a scaled pivot)."""
    return num % p if p else Fraction(num, den)


def _imul(a, b, p):
    """Product of two integer matrices, reduced mod p when p."""
    bt = list(zip(*b))
    if p:
        return [[sum(map(mul, row, col)) % p for col in bt] for row in a]
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _ipow(a, k, p):
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        out = _imul(out, a, p)
    return out


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


def _kernel(rows, pivots, ncols, p):
    """Kernel basis read off reduced rows, one vector per free column."""
    zero, one = _quotient(0, 1, p), _quotient(1, 1, p)
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(rows, pivots):
            if row[fc]:
                v[pc] = _quotient(-row[fc], row[pc], p)
        basis.append(tuple(v))
    return basis


class ExactMatrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, entries):
        entries = tuple(tuple(field.coerce(e) for e in row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    # --- constructors -------------------------------------------------

    @staticmethod
    def zeros(field, rows, cols=None):
        cols = rows if cols is None else cols
        z = field.zero()
        return ExactMatrix(field, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        z, o = field.zero(), field.one()
        return ExactMatrix(
            field, [[o if i == j else z for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_columns(field, columns):
        return ExactMatrix(field, list(zip(*columns)))

    # --- basics -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"ExactMatrix({self.field.tag}, {self.entries!r})"

    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return not any(map(any, self.entries))

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SizeMismatch("matrix shapes differ")
        pairs = zip(self.entries, other.entries)
        return ExactMatrix(self.field, [[a + b for a, b in zip(ra, rb)] for ra, rb in pairs])

    def __sub__(self, other):
        return self + ExactMatrix(self.field, [[-e for e in row] for row in other.entries])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise SizeMismatch("inner dimensions differ")
        f = self.field
        a, da = _ints(f, self.entries)
        b, db = _ints(f, other.entries)
        d, p = da * db, f.p
        return ExactMatrix(f, [[_quotient(e, d, p) for e in row] for row in _imul(a, b, p)])

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise SizeMismatch("vector length differs from column count")
        f = self.field
        a, da = _ints(f, self.entries)
        (v,), dv = _ints(f, [[f.coerce(x) for x in vec]])
        d, p = da * dv, f.p
        return tuple(_quotient(sum(map(mul, row, v)), d, p) for row in a)

    def power(self, k):
        if not self.is_square():
            raise NotSquare("power of a non-square matrix")
        f = self.field
        a, d = _ints(f, self.entries)
        d, p = d**k, f.p
        return ExactMatrix(f, [[_quotient(e, d, p) for e in row] for row in _ipow(a, k, p)])

    def inverse(self):
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n, f = self.rows, self.field
        eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        aug, _ = _ints(f, [row + e for row, e in zip(self.entries, eye)])
        # a singular left block leaves a pivot column >= n among the first n
        if _echelon(aug, f.p)[:n] != list(range(n)):
            raise NotInvertible("matrix is singular")
        inverse = [[_quotient(e, row[i], f.p) for e in row[n:]] for i, row in enumerate(aug)]
        return ExactMatrix(f, inverse)


def rank(m: ExactMatrix) -> int:
    return len(_echelon(_ints(m.field, m.entries)[0], m.field.p))


def rank_of_vectors(field, vectors) -> int:
    """Rank of a list of equal-length vectors (empty list has rank 0)."""
    p = field.p  # the vectors come from callers, so reduce them mod p
    rows, _ = _ints(field, [[e % p for e in v] for v in vectors] if p else list(vectors))
    return len(_echelon(rows, p))


def kernel_basis(m: ExactMatrix) -> list[tuple]:
    """Basis of the right kernel, one vector per free column."""
    rows, _ = _ints(m.field, m.entries)
    return _kernel(rows, _echelon(rows, m.field.p), m.cols, m.field.p)


def solve(m: ExactMatrix, rhs) -> tuple | None:
    """One solution of m x = rhs, or None when inconsistent."""
    f = m.field
    b = [f.coerce(x) for x in rhs]
    if len(b) != m.rows:
        raise SizeMismatch("right-hand side length differs from row count")
    aug, _ = _ints(f, [r + (bi,) for r, bi in zip(m.entries, b)])
    pivots = _echelon(aug, f.p)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for row, pc in zip(aug, pivots):
        x[pc] = _quotient(row[m.cols], row[pc], f.p)
    return tuple(x)


def is_nilpotent(x: ExactMatrix) -> bool:
    if not x.is_square():
        raise NotSquare("nilpotency is defined for square matrices")
    a, _ = _ints(x.field, x.entries)
    return not any(map(any, _ipow(a, x.rows, x.field.p)))


def jordan_matrix(field, lam: Partition) -> ExactMatrix:
    """Block-diagonal nilpotent Jordan matrix of type lam (superdiagonal 1s)."""
    n = lam.n
    m = [[field.zero()] * n for _ in range(n)]
    pos = 0
    for a in lam.parts:
        for i in range(a - 1):
            m[pos + i][pos + i + 1] = field.one()
        pos += a
    return ExactMatrix(field, m)


def _powers(x: ExactMatrix):
    """The Jordan type of x, from the ranks of its powers, and the reduced
    rows and pivots of x, x^2, ... up to the last nonzero power; all on the
    integer matrix of x.  Raises NotNilpotent."""
    if not x.is_square():
        raise NotSquare("nilpotency is defined for square matrices")
    p = x.field.p
    a, _ = _ints(x.field, x.entries)
    echelons, power, ranks = [], a, [x.rows]
    while True:
        rows = list(power)
        pivots = _echelon(rows, p)
        if not pivots:
            break
        # rank(x^k) = rank(x^(k-1)) > 0 stays so for every higher power
        if len(pivots) == ranks[-1]:
            raise NotNilpotent("matrix is not nilpotent")
        echelons.append((rows, pivots))
        ranks.append(len(pivots))
        power = _imul(power, a, p)
    ranks.append(0)
    return Partition(tuple(r - s for r, s in zip(ranks, ranks[1:]))).transpose(), echelons


def jordan_type(x: ExactMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix, from the ranks of its powers."""
    return _powers(x)[0]


@dataclass(frozen=True)
class JordanData:
    """A Jordan basis: type, one generator per block, change of basis g.

    g is assembled so that g^-1 x g is the standard Jordan matrix of
    ``lam``; its columns per block run from x^(a-1) v down to v.
    """

    lam: Partition
    generators: tuple[tuple, ...]
    change_of_basis: ExactMatrix


def jordan_basis(x: ExactMatrix) -> JordanData:
    """Choose block generators from the kernel filtration, largest first."""
    lam, echelons = _powers(x)  # raises NotNilpotent
    f = x.field
    n = x.rows
    m = len(echelons) + 1  # x^m = 0
    # kernel filtration bases: kernels[k] spans ker x^k
    kernels = [[]] + [_kernel(rows, piv, n, f.p) for rows, piv in echelons + [([], [])]]

    chains: list[list[tuple]] = []  # chains[i] = [v, x v, ..., x^(a-1) v]

    for size in range(m, 0, -1):
        # span that new size-`size` generators must avoid: ker x^(size-1)
        # plus the depth-appropriate images of already-chosen generators
        pool = list(kernels[size - 1])
        for chain in chains:
            depth = len(chain) - size
            if depth >= 0:
                pool.append(chain[depth])
        current = rank_of_vectors(f, pool)
        for cand in kernels[size]:
            if rank_of_vectors(f, pool + [cand]) > current:
                pool.append(cand)
                current += 1
                chain = [cand]
                for _ in range(size - 1):
                    chain.append(x.apply(chain[-1]))
                chains.append(chain)

    chains.sort(key=len, reverse=True)
    generators = tuple(chain[0] for chain in chains)
    g = ExactMatrix.from_columns(f, [v for chain in chains for v in reversed(chain)])
    return JordanData(lam, generators, g)


def centralizer_basis(x: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {Y : XY = YX} via the kernel of the commutator map."""
    if not x.is_square():
        raise NotSquare("centralizer of a non-square matrix")
    n = x.rows
    f = x.field
    a, _ = _ints(f, x.entries)
    # (XY - YX)_ij as a linear form in the entries of Y, times X's denominator
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[k * n + j] += a[i][k]
            for l in range(n):
                row[i * n + l] -= a[l][j]
            rows.append([e % f.p for e in row] if f.p else row)
    return [
        ExactMatrix(f, [v[i * n:(i + 1) * n] for i in range(n)])
        for v in _kernel(rows, _echelon(rows, f.p), n * n, f.p)
    ]


def enhanced_centralizer_dim(x: ExactMatrix, w) -> int:
    """dim of {(Y, u) in g_X x V : -X u + Y w = 0}.

    Equals dim g_X + n - dim(im X + g_X . w); computed as the kernel
    dimension of the stacked exact linear system.
    """
    if not is_nilpotent(x):
        raise NotNilpotent("matrix is not nilpotent")
    if len(w) != x.rows:
        raise SizeMismatch("vector length differs from matrix size")
    cols = [c.apply(w) for c in centralizer_basis(x)] + x.columns()
    return len(cols) - rank_of_vectors(x.field, cols)


# --- file format ------------------------------------------------------

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text) -> Fraction:
    """An integer or a fraction ``a/b``; anything else, decimals and
    exponents included, raises ParseError, in time linear in the text."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def matrix_to_json(m: ExactMatrix) -> dict:
    if m.field.tag == "Q":
        entries = [
            [str(e) if e.denominator != 1 else int(e) for e in row]
            for row in m.entries
        ]
        return {"field": "Q", "entries": entries}
    return {"field": "Fp", "p": m.field.p, "entries": [list(r) for r in m.entries]}


def matrix_from_json(obj) -> ExactMatrix:
    try:
        tag = obj["field"]
        entries = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise ParseError("matrix object needs 'field' and 'entries'") from exc
    if tag == "Q":
        field = QQ

        def conv(e):
            if isinstance(e, str):
                return parse_rational(e)
            if isinstance(e, bool) or not isinstance(e, int):
                raise ParseError(f"bad rational entry {e!r}")
            return Fraction(e)

    elif tag == "Fp":
        p = obj.get("p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise ParseError("Fp matrix needs a prime 'p'")
        try:
            field = GF(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

        def conv(e):
            if isinstance(e, bool) or not isinstance(e, int) or e < 0:
                raise ParseError(f"bad F_p entry {e!r}")
            return e

    else:
        raise ParseError(f"unknown field tag {tag!r}")
    if not isinstance(entries, list) or not entries:
        raise ParseError("'entries' must be a nonempty list of rows")
    rows = [r if isinstance(r, list) else None for r in entries]
    if any(r is None for r in rows):
        raise ParseError("'entries' must be a list of rows")
    try:
        return ExactMatrix(field, [[conv(e) for e in row] for row in rows])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_matrix(path) -> ExactMatrix:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: also ints over 4300 digits
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    return matrix_from_json(obj)


def load_vector(path) -> tuple:
    """A vector file is the matrix format with a single row."""
    m = load_matrix(path)
    if m.rows != 1:
        raise ParseError(f"vector file {path} must have exactly one row")
    return m.entries[0], m.field


def save_matrix(m: ExactMatrix, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(m), fh)
        fh.write("\n")

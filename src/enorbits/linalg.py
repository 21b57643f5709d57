"""Exact linear algebra over Q and over prime fields.

Matrices are immutable, dense and tiny (n <= 12 in practice); entries are
``fractions.Fraction`` over Q and plain ints in [0, p) over F_p.  All
elimination is exact; there is no floating point anywhere.

The classification theory is stated over an algebraically closed field,
but Jordan forms and the orbit reductions used here are rational over the
prime field, so exact computation over Q or F_p is faithful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertible, NotNilpotent, NotSquare, ParseError, SizeMismatch
from .partitions import Partition


@dataclass(frozen=True)
class Rationals:
    """The field Q with Fraction arithmetic."""

    tag = "Q"

    def coerce(self, x):
        return Fraction(x)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)


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

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


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
        z = self.field.zero()
        return all(e == z for row in self.entries for e in row)

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __add__(self, other):
        f = self.field
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise SizeMismatch("matrix shapes differ")
        return ExactMatrix(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        f = self.field
        return self + ExactMatrix(
            f, [[f.neg(e) for e in row] for row in other.entries]
        )

    def __matmul__(self, other):
        f = self.field
        if self.cols != other.rows:
            raise SizeMismatch("inner dimensions differ")
        bt = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out.append(
                [
                    _dot(f, row, col)
                    for col in bt
                ]
            )
        return ExactMatrix(f, out)

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise SizeMismatch("vector length differs from column count")
        f = self.field
        v = tuple(f.coerce(x) for x in vec)
        return tuple(_dot(f, row, v) for row in self.entries)

    def power(self, k):
        if not self.is_square():
            raise NotSquare("power of a non-square matrix")
        out = ExactMatrix.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            k >>= 1
            if k:
                base = base @ base
        return out

    def inverse(self):
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n = self.rows
        f = self.field
        aug = [
            list(self.entries[i]) + list(ExactMatrix.identity(f, n).entries[i])
            for i in range(n)
        ]
        pivots = _eliminate(f, aug)
        # pivots may spill into the augmented block when the left block is
        # singular, so count only pivots landing in the original columns
        if sum(1 for c in pivots if c < n) < n:
            raise NotInvertible("matrix is singular")
        return ExactMatrix(f, [row[n:] for row in aug])


def _dot(f, xs, ys):
    acc = f.zero()
    for x, y in zip(xs, ys):
        acc = f.add(acc, f.mul(x, y))
    return acc


def _eliminate(f, rows):
    """In-place reduced row echelon form; returns the pivot column list."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows) or len(pivots) == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != f.zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, e) for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != f.zero():
                factor = rows[i][c]
                rows[i] = [
                    f.sub(e, f.mul(factor, rows[r][j]))
                    for j, e in enumerate(rows[i])
                ]
        pivots.append(c)
        r += 1
    return pivots


def rank(m: ExactMatrix) -> int:
    rows = [list(r) for r in m.entries]
    return len(_eliminate(m.field, rows))


def rank_of_vectors(field, vectors) -> int:
    """Rank of a list of equal-length vectors (empty list has rank 0)."""
    vectors = list(vectors)
    if not vectors:
        return 0
    rows = [list(v) for v in vectors]
    return len(_eliminate(field, rows))


def kernel_basis(m: ExactMatrix) -> list[tuple]:
    """Basis of the right kernel, one vector per free column."""
    f = m.field
    rows = [list(r) for r in m.entries]
    pivots = _eliminate(f, rows)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        basis.append(tuple(v))
    return basis


def solve(m: ExactMatrix, rhs) -> tuple | None:
    """One solution of m x = rhs, or None when inconsistent."""
    f = m.field
    b = [f.coerce(x) for x in rhs]
    if len(b) != m.rows:
        raise SizeMismatch("right-hand side length differs from row count")
    aug = [list(r) + [b[i]] for i, r in enumerate(m.entries)]
    pivots = _eliminate(f, aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][m.cols]
    return tuple(x)


def is_nilpotent(x: ExactMatrix) -> bool:
    if not x.is_square():
        raise NotSquare("nilpotency is defined for square matrices")
    return x.power(x.rows).is_zero()


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


def jordan_type(x: ExactMatrix) -> Partition:
    """Jordan block sizes of a nilpotent matrix, from kernel dimensions."""
    if not is_nilpotent(x):
        raise NotNilpotent("matrix is not nilpotent")
    n = x.rows
    ranks = [n]
    power = ExactMatrix.identity(x.field, n)
    while ranks[-1] > 0:
        power = power @ x
        ranks.append(rank(power))
    transpose_parts = tuple(
        ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)
    )
    return Partition(transpose_parts).transpose()


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
    lam = jordan_type(x)  # raises NotNilpotent
    f = x.field
    n = x.rows
    m = lam.part(1) if lam.parts else 0
    # kernel filtration bases: kernels[k] spans ker x^k
    kernels = [[]]
    power = ExactMatrix.identity(f, n)
    for _ in range(m):
        power = power @ x
        kernels.append(kernel_basis(power))

    chains: list[list[tuple]] = []  # chains[i] = [v, x v, ..., x^(a-1) v]

    for size in range(m, 0, -1):
        # span that new size-`size` generators must avoid: ker x^(size-1)
        # plus the depth-appropriate images of already-chosen generators
        avoid = list(kernels[size - 1])
        for chain in chains:
            depth = len(chain) - size
            if depth >= 0:
                avoid.append(chain[depth])
        pool = list(avoid)
        current = rank_of_vectors(f, avoid)
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
    columns = []
    for chain in chains:
        columns.extend(reversed(chain))
    g = ExactMatrix.from_columns(f, columns)
    return JordanData(lam, generators, g)


def centralizer_basis(x: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {Y : XY = YX} via the kernel of the commutator map."""
    if not x.is_square():
        raise NotSquare("centralizer of a non-square matrix")
    n = x.rows
    f = x.field
    # commutator (XY - YX)_{ij} as a linear map on the n^2 entries of Y
    rows = []
    for i in range(n):
        for j in range(n):
            row = [f.zero()] * (n * n)
            for k in range(n):
                row[k * n + j] = f.add(row[k * n + j], x.entries[i][k])
            for l in range(n):
                row[i * n + l] = f.sub(row[i * n + l], x.entries[l][j])
            rows.append(row)
    basis = []
    for v in kernel_basis(ExactMatrix(f, rows)):
        basis.append(
            ExactMatrix(f, [[v[i * n + j] for j in range(n)] for i in range(n)])
        )
    return basis


def enhanced_centralizer_dim(x: ExactMatrix, w) -> int:
    """dim of {(Y, u) in g_X x V : -X u + Y w = 0}.

    Equals dim g_X + n - dim(im X + g_X . w); computed as the kernel
    dimension of the stacked exact linear system.
    """
    if not is_nilpotent(x):
        raise NotNilpotent("matrix is not nilpotent")
    n = x.rows
    if len(w) != n:
        raise SizeMismatch("vector length differs from matrix size")
    f = x.field
    cent = centralizer_basis(x)
    wv = tuple(f.coerce(c) for c in w)
    cols = [c.apply(wv) for c in cent]
    cols += [tuple(f.neg(e) for e in x.column(j)) for j in range(n)]
    system = ExactMatrix.from_columns(f, cols)
    return len(cols) - rank(system)


# --- file format ------------------------------------------------------


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
                try:
                    return Fraction(e)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad rational entry {e!r}") from exc
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
    except (OSError, json.JSONDecodeError) as exc:
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

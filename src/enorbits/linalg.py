"""Exact linear algebra over Q and over prime fields.

Matrices are immutable, dense and tiny (n <= 12 in practice); entries are
``fractions.Fraction`` over Q and plain ints in [0, p) over F_p.  There is
no floating point anywhere.

All arithmetic runs in one kernel on Python ints, reduced mod p over F_p
and not at all over Q (p = 0).  Rational operands are scaled to ints by a
common denominator; a matrix keeps its scaled form once made.
Elimination is fraction-free over Q, as in Bareiss (Math. Comp. 22,
1968): ``row_i <- (a/g) row_i - (b/g) row_r`` for the pivot a and
g = gcd(a, b), divided by the row's content; over F_p each pivot is
scaled to 1.  A Fraction is built only for an entry a function returns.
The powers of X = X_int / d share their ranks and kernels with those of
X_int.

Every elimination goes through one reducer.  ``_extend`` adds one sparse
row, ``{column: int}``, to an echelon basis ``{pivot: row}``; ``_reduce``
feeds it the rows of a dense matrix.  rank, kernel_basis, solve, inverse
and the powers of X (``_powers``) reduce whole matrices that way;
``centralizer_basis`` extends its basis with each of its n^2 commutator
rows, which have at most 2n entries, as it builds them, and
``jordan_basis`` tests each candidate generator against a pool it keeps
reduced.  ``_back_reduce`` turns a basis into multiples of the unique
reduced row echelon form, which kernels, solutions and inverses are read
off.

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


def _eliminate(row, top, c, p):
    """row with its column c cleared by the pivot row top (pivot column c).

    Both rows are sparse, ``{column: int}`` with no zero entries, and row
    is updated in place unless it is rescaled.  Over F_p top[c] is 1 and
    ``row <- row - b top``; over Q, fraction-free, ``row <- (a/g) row -
    (b/g) top`` for a = top[c], b = row[c] and g = gcd(a, b), divided by
    its content.
    """
    b = row[c]
    if p:
        for k, u in top.items():
            e = (row.get(k, 0) - b * u) % p
            if e:
                row[k] = e
            else:
                del row[k]
        return row
    a = top[c]
    g = gcd(a, b)
    s, t = a // g, b // g
    if s != 1:
        row = {k: s * e for k, e in row.items()}
    for k, u in top.items():
        e = row.get(k, 0) - t * u
        if e:
            row[k] = e
        else:
            del row[k]
    k = gcd(*row.values()) if row else 1
    return {j: e // k for j, e in row.items()} if k > 1 else row


def _extend(basis, row, p):
    """Add a sparse row to an echelon basis; True when it was independent.

    ``basis`` maps each pivot column to its row, which has no entry left of
    its pivot.  The row, ``{column: int}`` with no zero entries (mod p over
    F_p), is consumed: it is reduced leftmost column first and, when
    something is left, stored under its leftmost column, scaled to pivot 1
    over F_p and divided by its content over Q.
    """
    while row:
        c = min(row)
        top = basis.get(c)
        if top is None:
            if p:
                inv = pow(row[c], p - 2, p)
                row = {k: e * inv % p for k, e in row.items()}
            else:
                k = gcd(*row.values())
                if k > 1:
                    row = {j: e // k for j, e in row.items()}
            basis[c] = row
            return True
        row = _eliminate(row, top, c, p)
    return False


def _back_reduce(basis, p):
    """Clear every pivot column outside its own row, last pivot first, so
    that the rows become multiples of the reduced row echelon form."""
    for pc in sorted(basis, reverse=True):
        row = basis[pc]
        for c in [c for c in row if c != pc and c in basis]:
            row = _eliminate(row, basis[c], c, p)
        basis[pc] = row


def _sparse(row):
    return {j: e for j, e in enumerate(row) if e}


def _reduce(rows, p):
    """The echelon basis ``{pivot: row}`` of dense integer rows."""
    basis = {}
    for row in rows:
        _extend(basis, _sparse(row), p)
    return basis


def _kernel(basis, ncols, p):
    """Kernel basis of the echelon rows ``{pivot: row}``, back-reduced in
    place first, one vector per free column: v[fc] = 1 and v[pc] =
    -row[fc] / row[pc].  Each vector is a pair (ints, d) with v = ints / d
    (d = 1 over F_p)."""
    _back_reduce(basis, p)
    free = sorted(set(range(ncols)).difference(basis))
    dens = dict.fromkeys(free, 1)
    if not p:
        for pc, row in basis.items():
            a = abs(row[pc])
            for fc in row:
                if fc != pc:
                    dens[fc] = lcm(dens[fc], a)
    vectors = {}
    for fc in free:
        vectors[fc] = [0] * ncols
        vectors[fc][fc] = dens[fc]
    for pc, row in basis.items():
        a = row[pc]
        for fc, e in row.items():
            if fc != pc:
                e = -e * (dens[fc] // a)
                vectors[fc][pc] = e % p if p else e
    return [(vectors[fc], dens[fc]) for fc in free]


def _vector(ints, d, p):
    """The field elements ints / d, as a tuple."""
    zero = _quotient(0, 1, p)
    return tuple(_quotient(e, d, p) if e else zero for e in ints)


class ExactMatrix:
    """Immutable dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "entries", "_scaled")

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
        self._scaled = None

    @classmethod
    def _of(cls, field, entries, scaled):
        """The matrix of ``entries``, rows of field elements, whose integer
        form ``scaled`` is known; no entry is coerced or checked."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols = field, len(entries), len(entries[0])
        m.entries, m._scaled = entries, scaled
        return m

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

    def _int_form(self):
        """(ints, d) with entries = ints / d, as ``_ints`` gives them, made
        once per matrix; the rows are shared, so callers must not mutate them."""
        if self._scaled is None:
            self._scaled = _ints(self.field, self.entries)
        return self._scaled

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
        a, da = self._int_form()
        b, db = other._int_form()
        d, p = da * db, f.p
        return ExactMatrix(f, [[_quotient(e, d, p) for e in row] for row in _imul(a, b, p)])

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise SizeMismatch("vector length differs from column count")
        f = self.field
        a, da = self._int_form()
        (v,), dv = _ints(f, [[f.coerce(x) for x in vec]])
        d, p = da * dv, f.p
        return tuple(_quotient(sum(map(mul, row, v)), d, p) for row in a)

    def power(self, k):
        if not self.is_square():
            raise NotSquare("power of a non-square matrix")
        f = self.field
        a, d = self._int_form()
        d, p = d**k, f.p
        return ExactMatrix(f, [[_quotient(e, d, p) for e in row] for row in _ipow(a, k, p)])

    def inverse(self):
        if not self.is_square():
            raise NotSquare("inverse of a non-square matrix")
        n, f = self.rows, self.field
        eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        aug, _ = _ints(f, [row + e for row, e in zip(self.entries, eye)])
        basis = _reduce(aug, f.p)
        if any(i not in basis for i in range(n)):
            raise NotInvertible("matrix is singular")
        _back_reduce(basis, f.p)
        inverse = [[_quotient(row.get(j, 0), row[i], f.p) for j in range(n, 2 * n)]
                   for i, row in sorted(basis.items())]
        return ExactMatrix(f, inverse)


def rank(m: ExactMatrix) -> int:
    return len(_reduce(m._int_form()[0], m.field.p))


def rank_of_vectors(field, vectors) -> int:
    """Rank of a list of equal-length vectors (empty list has rank 0)."""
    p = field.p  # the vectors come from callers, so reduce them mod p
    rows, _ = _ints(field, [[e % p for e in v] for v in vectors] if p else list(vectors))
    return len(_reduce(rows, p))


def kernel_basis(m: ExactMatrix) -> list[tuple]:
    """Basis of the right kernel, one vector per free column."""
    p = m.field.p
    basis = _reduce(m._int_form()[0], p)
    return [_vector(v, d, p) for v, d in _kernel(basis, m.cols, p)]


def solve(m: ExactMatrix, rhs) -> tuple | None:
    """One solution of m x = rhs, or None when inconsistent."""
    f = m.field
    b = [f.coerce(x) for x in rhs]
    if len(b) != m.rows:
        raise SizeMismatch("right-hand side length differs from row count")
    aug, _ = _ints(f, [r + (bi,) for r, bi in zip(m.entries, b)])
    basis = _reduce(aug, f.p)
    if m.cols in basis:
        return None
    _back_reduce(basis, f.p)
    x = [f.zero()] * m.cols
    for pc, row in basis.items():
        x[pc] = _quotient(row.get(m.cols, 0), row[pc], f.p)
    return tuple(x)


def is_nilpotent(x: ExactMatrix) -> bool:
    if not x.is_square():
        raise NotSquare("nilpotency is defined for square matrices")
    a, _ = x._int_form()
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
    """The Jordan type of x, from the ranks of its powers, and the echelon
    bases of x, x^2, ... up to the last nonzero power, each as sparse rows
    ``{pivot: row}``; all on the integer matrix of x.  Raises NotNilpotent."""
    if not x.is_square():
        raise NotSquare("nilpotency is defined for square matrices")
    p = x.field.p
    a, _ = x._int_form()
    echelons, power, ranks = [], a, [x.rows]
    while True:
        basis = _reduce(power, p)
        if not basis:
            break
        # rank(x^k) = rank(x^(k-1)) > 0 stays so for every higher power
        if len(basis) == ranks[-1]:
            raise NotNilpotent("matrix is not nilpotent")
        echelons.append(basis)
        ranks.append(len(basis))
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
    kernels = [[]] + [_kernel(basis, n, f.p) for basis in echelons + [{}]]

    chains: list[list[tuple]] = []  # chains[i] = [v, x v, ..., x^(a-1) v]

    for size in range(m, 0, -1):
        # span that new size-`size` generators must avoid: ker x^(size-1)
        # plus the depth-appropriate images of already-chosen generators,
        # kept reduced so that each candidate costs one reduction
        pool = {}
        for v, _ in kernels[size - 1]:
            _extend(pool, _sparse(v), f.p)
        for chain in chains:
            depth = len(chain) - size
            if depth >= 0:
                (row,), _ = _ints(f, [chain[depth]])
                _extend(pool, _sparse(row), f.p)
        for v, d in kernels[size]:
            if _extend(pool, _sparse(v), f.p):
                chain = [_vector(v, d, f.p)]
                for _ in range(size - 1):
                    chain.append(x.apply(chain[-1]))
                chains.append(chain)

    chains.sort(key=len, reverse=True)
    generators = tuple(chain[0] for chain in chains)
    g = ExactMatrix.from_columns(f, [v for chain in chains for v in reversed(chain)])
    return JordanData(lam, generators, g)


def centralizer_basis(x: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {Y : XY = YX} via the kernel of the commutator map.

    The commutator system has n^2 rows with at most 2n entries each, so it
    is reduced sparse, one row at a time, as it is built; ``_kernel`` then
    reads the basis off the unique reduced row echelon form.
    """
    if not x.is_square():
        raise NotSquare("centralizer of a non-square matrix")
    n = x.rows
    f, p = x.field, x.field.p
    a, _ = x._int_form()
    # (XY - YX)_ij as a linear form in the entries of Y, times X's denominator
    basis = {}
    for i in range(n):
        for j in range(n):
            row = {k * n + j: a[i][k] for k in range(n) if a[i][k]}
            for l in range(n):
                if a[l][j]:
                    c = i * n + l
                    e = row.get(c, 0) - a[l][j]
                    if p:
                        e %= p
                    if e:
                        row[c] = e
                    else:
                        del row[c]
            _extend(basis, row, p)
    starts = range(0, n * n, n)  # of the rows of Y, flattened row by row
    out = []
    for v, d in _kernel(basis, n * n, p):
        entries = _vector(v, d, p)
        out.append(ExactMatrix._of(f, tuple(entries[i:i + n] for i in starts),
                                   ([v[i:i + n] for i in starts], d)))
    return out


def _enhanced_rank(x: ExactMatrix, w):
    """(dim g_X, rank of im X + g_X . w), with g_X from ``centralizer_basis``."""
    centralizer = centralizer_basis(x)
    f = x.field
    (wi,), _ = _ints(f, [[f.coerce(e) for e in w]])
    # each vector scaled by a nonzero constant, which leaves the rank
    vectors = [[sum(map(mul, row, wi)) for row in y._int_form()[0]] for y in centralizer]
    return len(centralizer), rank_of_vectors(f, vectors + list(zip(*x._int_form()[0])))


def enhanced_centralizer_dim(x: ExactMatrix, w) -> int:
    """dim of {(Y, u) in g_X x V : -X u + Y w = 0}.

    Equals dim g_X + n - dim(im X + g_X . w); computed as the kernel
    dimension of the stacked exact linear system.
    """
    if not is_nilpotent(x):
        raise NotNilpotent("matrix is not nilpotent")
    if len(w) != x.rows:
        raise SizeMismatch("vector length differs from matrix size")
    dim, r = _enhanced_rank(x, w)
    return dim + x.rows - r


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

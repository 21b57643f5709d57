"""The exceptional case: GL_2 on the 3-dimensional space of binary quadratics.

The module works in the ordered monomial basis (x^2, xy, y^2) with
x = e_1 and y = e_2; the lowest-weight vector for the upper-triangular
Borel is y^2.  Characteristic zero is required throughout (the derivation
rule produces coefficient 2, which degenerates at p = 2), so only
rational matrices are accepted.

Over Q the zero-matrix classes are separated by the rank of the Gram
matrix of the quadratic form; this classifies the geometric orbit (over
an algebraically closed field rank is a complete invariant), not the
finer rational equivalence classes of rank-2 forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import CharNotZero, NotInvertible, NotNilpotent, NotSquare, ParseError
from .linalg import ExactMatrix, QQ, is_nilpotent, parse_rational, rank, rank_of_vectors

LABELS = ("O1", "O2", "O3", "O4", "O5")

DIM_ENHANCED_GROUP = 7  # dim GL_2 + dim Sym^2


@dataclass(frozen=True)
class QuadraticVector:
    """Coefficients (c0, c1, c2) of c0 x^2 + c1 xy + c2 y^2."""

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c0", Fraction(self.c0))
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))

    @staticmethod
    def parse(text: str) -> "QuadraticVector":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ParseError(f"need three rationals c0,c1,c2, got {text!r}")
        return QuadraticVector(*(parse_rational(p) for p in parts))

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c0, self.c1, self.c2)

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0 and self.c2 == 0

    def gram_rank(self) -> int:
        gram = ExactMatrix(
            QQ,
            [
                [self.c0, self.c1 / 2],
                [self.c1 / 2, self.c2],
            ],
        )
        return rank(gram)

    def __str__(self) -> str:
        return f"{self.c0},{self.c1},{self.c2}"


@dataclass(frozen=True)
class Gl2Orbit:
    label: str
    dim: int
    centralizer_dim: int


def _require_rational(m: ExactMatrix):
    if m.field.tag != "Q":
        raise CharNotZero("this case is defined in characteristic zero only")
    if m.rows != 2 or m.cols != 2:
        raise NotSquare("a 2x2 matrix is required")


def sym2_matrix_action(g_or_x: ExactMatrix, adjoint: bool) -> ExactMatrix:
    """Matrix of the induced action on (x^2, xy, y^2).

    With ``adjoint`` False, the group action of an invertible g; with
    ``adjoint`` True, the Lie-algebra action by the derivation rule
    d(uv) = (Xu)v + u(Xv).
    """
    _require_rational(g_or_x)
    (a, b), (c, d) = g_or_x.entries
    if adjoint:
        # X x = a x + c y, X y = b x + d y
        cols = [
            (2 * a, 2 * c, 0),          # X.(x^2) = 2 (Xx) x
            (b, a + d, c),              # X.(xy) = (Xx) y + x (Xy)
            (0, 2 * b, 2 * d),          # X.(y^2) = 2 (Xy) y
        ]
    else:
        det = a * d - b * c
        if det == 0:
            raise NotInvertible("group action needs an invertible matrix")
        cols = [
            (a * a, 2 * a * c, c * c),          # (ax + cy)^2
            (a * b, a * d + b * c, c * d),      # (ax + cy)(bx + dy)
            (b * b, 2 * b * d, d * d),          # (bx + dy)^2
        ]
    return ExactMatrix.from_columns(QQ, cols)


def classify_gl2(x: ExactMatrix, w: QuadraticVector) -> Gl2Orbit:
    """Sort (x, w) into one of the five orbits.

    Zero matrix: the Gram rank of w (0, 1, 2) picks O1, O2, O3.  Nonzero
    nilpotent: w inside the 2-dimensional image of the induced nilpotent
    picks O4, outside picks O5.
    """
    _require_rational(x)
    if not is_nilpotent(x):
        raise NotNilpotent("matrix is not nilpotent")
    table = _orbit_table()
    if x.is_zero():
        return table[w.gram_rank()]  # O1, O2, O3
    dx = sym2_matrix_action(x, adjoint=True)
    image = [dx.column(j) for j in range(3)]
    inside = rank_of_vectors(QQ, image + [w.coords()]) == rank_of_vectors(QQ, image)
    return table[LABELS.index("O4" if inside else "O5")]


def enhanced_adjoint(g: ExactMatrix, v: QuadraticVector, x: ExactMatrix,
                     w: QuadraticVector) -> tuple[ExactMatrix, QuadraticVector]:
    """The enhanced adjoint action of (g, v) on (x, w)."""
    gx = (g @ x) @ g.inverse()
    dgx = sym2_matrix_action(gx, adjoint=True)
    rho_g = sym2_matrix_action(g, adjoint=False)
    moved = tuple(
        rw - dv
        for rw, dv in zip(rho_g.apply(w.coords()), dgx.apply(v.coords()))
    )
    return gx, QuadraticVector(*moved)


def _centralizer_dim(x: ExactMatrix, w: QuadraticVector) -> int:
    """Kernel dimension of (Y, u) -> ([Y, x], Y.w - x.u) on gl_2 x Sym^2."""
    basis_y = [
        ExactMatrix(QQ, [[1, 0], [0, 0]]),
        ExactMatrix(QQ, [[0, 1], [0, 0]]),
        ExactMatrix(QQ, [[0, 0], [1, 0]]),
        ExactMatrix(QQ, [[0, 0], [0, 1]]),
    ]
    dx = sym2_matrix_action(x, adjoint=True)
    cols = []
    for y in basis_y:
        comm = (y @ x) - (x @ y)
        act = sym2_matrix_action(y, adjoint=True).apply(w.coords())
        cols.append(tuple(comm.entries[i][j] for i in range(2) for j in range(2)) + act)
    for j in range(3):
        img = dx.column(j)
        cols.append((Fraction(0),) * 4 + tuple(-e for e in img))
    system = ExactMatrix.from_columns(QQ, cols)
    return 7 - rank(system)


_REPRESENTATIVES = {
    "O1": (ExactMatrix.zeros(QQ, 2), QuadraticVector(0, 0, 0)),
    "O2": (ExactMatrix.zeros(QQ, 2), QuadraticVector(0, 0, 1)),
    "O3": (ExactMatrix.zeros(QQ, 2), QuadraticVector(1, 0, 1)),
    "O4": (ExactMatrix(QQ, [[0, 1], [0, 0]]), QuadraticVector(0, 0, 0)),
    "O5": (ExactMatrix(QQ, [[0, 1], [0, 0]]), QuadraticVector(0, 0, 1)),
}


def representative(label: str) -> tuple[ExactMatrix, QuadraticVector]:
    return _REPRESENTATIVES[label]


@cache
def _orbit_table() -> tuple[Gl2Orbit, ...]:
    """The five orbits, in ``LABELS`` order; solved once per process."""
    out = []
    for label in LABELS:
        x, w = _REPRESENTATIVES[label]
        cdim = _centralizer_dim(x, w)
        out.append(Gl2Orbit(label, DIM_ENHANCED_GROUP - cdim, cdim))
    return tuple(out)


def gl2_dims() -> list[Gl2Orbit]:
    """The five orbits with dimensions re-derived by exact kernels.

    dim orbit = dim of the enhanced group (7) minus the exact kernel
    dimension of the infinitesimal stabilizer at the representative.
    """
    return list(_orbit_table())


_ZERO = ExactMatrix.zeros(QQ, 2)


def _scaled_e12(t) -> ExactMatrix:
    return ExactMatrix(QQ, [[0, t], [0, 0]])


# Degeneration witnesses, one per cover ``lower < upper``: a curve
# t -> (x, w) that lies in ``upper`` for t != 0 and in ``lower`` at t = 0,
# so ``lower`` meets, hence lies in, the closure of ``upper``.
DEGENERATIONS = {
    ("O2", "O1"): lambda t: (_ZERO, QuadraticVector(0, 0, t)),            # (0, t y^2)
    ("O3", "O2"): lambda t: (_ZERO, QuadraticVector(t, 0, 1)),            # (0, y^2 + t x^2)
    ("O4", "O3"): lambda t: (_scaled_e12(t), QuadraticVector(0, 1, 0)),   # (t E12, xy)
    ("O5", "O4"): lambda t: (_scaled_e12(1), QuadraticVector(0, 0, t)),   # (E12, t y^2)
}

# Nonzero parameters at which a witness curve is classified.
_WITNESS_TS = (Fraction(1), Fraction(1, 10), Fraction(1, 1000))


@cache
def _closure_order() -> dict[str, frozenset[str]]:
    below = {label: {label} for label in LABELS}
    for (upper, lower), curve in DEGENERATIONS.items():
        on_curve = {classify_gl2(*curve(t)).label for t in _WITNESS_TS}
        if on_curve != {upper} or classify_gl2(*curve(0)).label != lower:
            raise RuntimeError(f"degeneration witness {lower} < {upper} does not hold")
        below[upper].add(lower)
    # transitive closure; LABELS runs in increasing dimension, so each
    # lower set is complete before it is merged upward
    for upper in LABELS:
        for lower in list(below[upper]):
            below[upper] |= below[lower]
    return {label: frozenset(inside) for label, inside in below.items()}


def gl2_closure_poset() -> dict[str, set[str]]:
    """For each label, the set of labels (including itself) in its closure.

    The order is the transitive closure of the checked ``DEGENERATIONS``
    witnesses: the chain O1 < O2 < O3 < O4 < O5.  Nothing else can be
    added, since a closure only gains orbits of strictly smaller dimension
    and the dimensions 0, 2, 3, 4, 5 already make the chain total.
    """
    return {label: set(inside) for label, inside in _closure_order().items()}


def gl2_contains(upper: str, lower: str) -> bool:
    """Whether the closure of ``upper`` contains the orbit ``lower``."""
    return lower in _closure_order()[upper]

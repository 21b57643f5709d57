"""Classification of enhanced elements (X, w) and orbit descriptors.

Two independent classification routes are provided on purpose: the
Jordan-basis route (residue coordinates of w modulo im X on the block
generators) and a basis-free invariant route (the marker read off from
dim(im X + g_X . w)).  Each serves as an oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidQ, NotNilpotent, SizeMismatch
from .linalg import (
    ExactMatrix,
    QQ,
    _enhanced_rank,
    is_nilpotent,
    jordan_basis,
    jordan_matrix,
    jordan_type,
    rank,
    solve,
)
from .partitions import (
    Bipartition,
    EnhancedPartition,
    Partition,
    bipartition_of,
    cohomology_total_dim,
    dim_enhanced_orbit,
    dim_orbit,
    enhanced_leq,
    enhanced_number_vector,
    fiber_dim,
    lower,
)


@dataclass(frozen=True)
class EnhancedElement:
    """A nilpotent matrix with a vector of matching length."""

    x: ExactMatrix
    w: tuple

    def __post_init__(self):
        if not is_nilpotent(self.x):
            raise NotNilpotent("matrix is not nilpotent")
        if len(self.w) != self.x.rows:
            raise SizeMismatch("vector length differs from matrix size")
        object.__setattr__(
            self, "w", tuple(self.x.field.coerce(c) for c in self.w)
        )

    @property
    def n(self) -> int:
        return self.x.rows


def marker_rule(lam: Partition):
    """The label of (X, w) as a function of w's coordinates in a Jordan basis.

    The basis is that of ``jordan_basis`` for an X of type ``lam``: per
    block, columns x^(a-1) v, ..., x v, v.  The coordinates on the
    generator columns v are the residue coordinates of w modulo im X.  The
    marker is the multiplicity prefix sum of the first group of equal
    block sizes that carries a nonzero residue coordinate; if w lies in
    im X the marker is the number of parts.
    """
    groups = []  # (marker, generator columns of the group's blocks)
    block = col = 0
    for b, d in lam.groups:
        gen_cols = [col + b * (i + 1) - 1 for i in range(d)]
        groups.append((EnhancedPartition(lam, block), gen_cols))
        block, col = block + d, col + b * d
    inside = EnhancedPartition(lam, lam.num_parts)

    def label(coords) -> EnhancedPartition:
        for lq, gen_cols in groups:
            if any(coords[c] for c in gen_cols):
                return lq
        return inside

    return label


def classify(e: EnhancedElement) -> EnhancedPartition:
    """Orbit label via a Jordan basis and residue coordinates of w.

    The coordinates of w in the Jordan basis are found by solving one
    exact linear system; ``marker_rule`` reads the label off them.
    """
    jd = jordan_basis(e.x)
    coords = solve(jd.change_of_basis, e.w)
    assert coords is not None  # the Jordan basis is a basis
    return marker_rule(jd.lam)(coords)


def classify_invariant(e: EnhancedElement) -> EnhancedPartition:
    """Orbit label without any Jordan basis.

    The marker is n minus the dimension of im X + g_X . w, where g_X is
    the full matrix centralizer of X.
    """
    lam = jordan_type(e.x)
    return EnhancedPartition(lam, e.n - _enhanced_rank(e.x, e.w)[1])


def canonical_representative(lq: EnhancedPartition, field=QQ) -> EnhancedElement:
    """The standard representative (J_lam, u) of an orbit label.

    J_lam is block-diagonal with nonincreasing block sizes; u is zero when
    the marker equals the number of parts, and otherwise the generator of
    the generator of the first block of the group selected by the marker.
    The round trip
    classify(canonical_representative(lq)) == lq is the contract.
    """
    lam, q = lq.lam, lq.q
    j = jordan_matrix(field, lam)
    n = lam.n
    u = [field.zero()] * n
    if q < lam.num_parts:
        acc = 0
        block = None
        for _, d in lam.groups:
            if acc == q:
                block = acc + 1  # 1-based index of first block in the group
                break
            acc += d
        assert block is not None  # q is admissible, so it is a group boundary
        offset = sum(lam.parts[: block - 1])
        u[offset + lam.parts[block - 1] - 1] = field.one()
    return EnhancedElement(j, tuple(u))


def closure_contains(upper: EnhancedPartition, lower_lq: EnhancedPartition) -> bool:
    """Combinatorial orbit-closure test between two labels."""
    return enhanced_leq(lower_lq, upper)


def closure_contains_element(upper: EnhancedPartition, e: EnhancedElement) -> bool:
    """Whether a concrete element lies in the closure labeled ``upper``."""
    if e.n != upper.n:
        raise SizeMismatch(f"sizes differ: {e.n} vs {upper.n}")
    return closure_contains(upper, classify(e))


def flag_dims(lq: EnhancedPartition) -> tuple[int, ...]:
    """Dimension vector (m_1, ..., m_{a_1}) of the canonical partial flag.

    For positive markers the top step has dimension n - q and the block
    sizes below it are the transpose of the lowered partition, read
    backwards; the marker itself is the final block.  For marker zero the
    flag is the image filtration of J_lam, giving the full flag in the
    one-block case.  Either way the block multiset is the transpose of
    lam padded to a_1 entries.
    """
    lam, q = lq.lam, lq.q
    n = lam.n
    a1 = lam.part(1)
    if q == 0:
        return tuple(
            sum(max(a - (a1 - i), 0) for a in lam.parts) for i in range(1, a1 + 1)
        )
    mu_t = lower(lam, q).transpose()
    blocks = [mu_t.part(a1 - i) for i in range(1, a1)] + [q]
    out = []
    acc = 0
    for b in blocks:
        acc += b
        out.append(acc)
    assert acc == n
    return tuple(out)


def flag_blocks(lq: EnhancedPartition) -> tuple[int, ...]:
    """Successive differences of flag_dims."""
    ms = flag_dims(lq)
    return tuple(m - prev for m, prev in zip(ms, (0,) + ms[:-1]))


@dataclass(frozen=True)
class OrbitDescriptor:
    """Everything the package knows about one orbit label."""

    type: EnhancedPartition
    dim_orbit: int
    dim_enhanced: int
    fiber_dim: int
    cohomology_dim: int
    bipartition: Bipartition
    enhanced_numbers: tuple[int, ...]
    flag_block_sizes: tuple[int, ...]

    def record_lines(self) -> list[str]:
        """Stable line-oriented key: value rendering (documented order)."""
        return [
            f"type: {self.type}",
            f"dim_orbit: {self.dim_orbit}",
            f"dim_enhanced: {self.dim_enhanced}",
            f"fiber_dim: {self.fiber_dim}",
            f"cohomology_dim: {self.cohomology_dim}",
            f"bipartition: {self.bipartition}",
            f"enhanced_numbers: {','.join(map(str, self.enhanced_numbers))}",
            f"flag_blocks: {','.join(map(str, self.flag_block_sizes))}",
        ]


def describe(lq: EnhancedPartition) -> OrbitDescriptor:
    return OrbitDescriptor(
        type=lq,
        dim_orbit=dim_orbit(lq.lam),
        dim_enhanced=dim_enhanced_orbit(lq),
        fiber_dim=fiber_dim(lq.lam),
        cohomology_dim=cohomology_total_dim(lq.lam),
        bipartition=bipartition_of(lq),
        enhanced_numbers=enhanced_number_vector(lq),
        flag_block_sizes=flag_blocks(lq),
    )

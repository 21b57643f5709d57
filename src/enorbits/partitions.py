"""Partitions, enhanced partitions and their closure order.

An enhanced partition ``lam[q]`` is a partition lam of n together with a
marker q that must be a partial sum of the multiplicities of the distinct
part values of lam (q in {0, d_1, d_1+d_2, ..., t}).  Enhanced partitions
label the orbits of the enhanced group GL_n x| k^n on pairs (nilpotent
matrix, vector); this module carries the purely combinatorial side:
invariant vectors, the closure order, Hasse diagrams and the dimension
formulas attached to each orbit label.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from math import factorial

from .errors import InvalidQ, OutOfRange, ParseError, SizeMismatch

#: Largest n accepted by build_poset.  build_poset(16), with 915 labels,
#: takes about 0.14 s on a 2-core Xeon.
MAX_POSET_N = 16
#: Largest n of ``enorbits hasse``, which prints every cover as DOT.
MAX_HASSE_N = 10
#: Largest n of ``enorbits orbits``, which describes every label.
MAX_ORBITS_N = 12
#: Largest n of a label read by ``parse_enhanced``.  The label commands
#: take time linear in n for one part and quadratic in the number of
#: parts, at most about 30 ms at this bound on a 2-core Xeon; without a
#: bound a label of a few more digits runs for minutes.
MAX_LABEL_N = 1000


@dataclass(frozen=True, order=True)
class Partition:
    """A partition: finite nonincreasing tuple of positive integers.

    The empty partition is allowed as a value (it arises from lowerings and
    inside bipartitions) but is rejected as a standalone orbit label by
    :class:`EnhancedPartition`.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts not nonincreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def groups(self) -> tuple[tuple[int, int], ...]:
        """Distinct part values with multiplicities, as ((b_1,d_1),...)."""
        return tuple((b, len(list(g))) for b, g in itertools.groupby(self.parts))

    def part(self, i: int) -> int:
        """The i-th part (1-based), zero beyond the last part."""
        if i < 1:
            raise OutOfRange(f"part index must be >= 1, got {i}")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def transpose(self) -> "Partition":
        """Column counts of the Young diagram; an involution."""
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(tuple(cols))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def __iter__(self):
        return iter(self.parts)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Dominance order: every prefix sum of mu is <= the one of lam."""
    if mu.n != lam.n:
        raise SizeMismatch(f"|mu|={mu.n} differs from |lambda|={lam.n}")
    s_mu = s_lam = 0
    for i in range(1, max(mu.num_parts, lam.num_parts) + 1):
        s_mu += mu.part(i)
        s_lam += lam.part(i)
        if s_mu > s_lam:
            return False
    return True


def allowed_q(lam: Partition) -> set[int]:
    """The admissible markers {0, d_1, d_1+d_2, ..., t}."""
    qs = {0}
    acc = 0
    for _, d in lam.groups:
        acc += d
        qs.add(acc)
    return qs


def lower(lam: Partition, q: int) -> Partition:
    """Subtract 1 from the first q parts and drop zeros (lam - (1)_q)."""
    if q not in allowed_q(lam):
        raise InvalidQ(
            f"q={q} not admissible for {lam}; allowed: {sorted(allowed_q(lam))}"
        )
    parts = [p - 1 for p in lam.parts[:q]] + list(lam.parts[q:])
    return Partition(tuple(p for p in parts if p > 0))


def lowerings(lam: Partition) -> list[tuple[int, Partition]]:
    """All pairs (q, lam - (1)_q), one per admissible marker, ascending q."""
    return [(q, lower(lam, q)) for q in sorted(allowed_q(lam))]


@dataclass(frozen=True, order=True)
class EnhancedPartition:
    """An orbit label lam[q]: a nonempty partition with admissible marker."""

    lam: Partition
    q: int

    def __post_init__(self):
        if not self.lam.parts:
            raise InvalidQ("the empty partition is not an orbit label")
        if self.q not in allowed_q(self.lam):
            raise InvalidQ(
                f"q={self.q} not admissible for {self.lam}; "
                f"allowed: {sorted(allowed_q(self.lam))}"
            )

    @property
    def n(self) -> int:
        return self.lam.n

    def lowered(self) -> Partition:
        return lower(self.lam, self.q)

    def __str__(self) -> str:
        return f"{self.lam}[{self.q}]"


@dataclass(frozen=True)
class Bipartition:
    """An ordered pair of partitions with |first| + |second| = n."""

    first: Partition
    second: Partition

    @property
    def n(self) -> int:
        return self.first.n + self.second.n

    def __str__(self) -> str:
        return f"{self.first}|{self.second}"


_ENH_RE = re.compile(r"^\s*([0-9,\s]+)\[\s*([0-9]+)\s*\]\s*$")


def parse_enhanced(text: str) -> EnhancedPartition:
    """Parse the textual grammar ``parts[q]``, e.g. ``3,2,2,1[1]``."""
    m = _ENH_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse enhanced partition: {text!r}")
    try:
        # int() refuses strings of more than 4300 digits with ValueError
        parts = tuple(int(p) for p in m.group(1).replace(" ", "").split(",") if p)
        q = int(m.group(2))
    except ValueError as exc:
        raise ParseError(f"bad part list or marker in {text!r}") from exc
    if not parts:
        raise ParseError(f"empty part list in {text!r}")
    if sum(parts) > MAX_LABEL_N:
        raise OutOfRange(f"labels of n > {MAX_LABEL_N} are not accepted, got n = {sum(parts)}")
    try:
        lam = Partition(parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if q not in allowed_q(lam):
        raise ParseError(
            f"q={q} not admissible for {lam}; allowed: {sorted(allowed_q(lam))}"
        )
    return EnhancedPartition(lam, q)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, reverse-lexicographic descending ((n) first)."""
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")

    def gen(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for k in range(min(cap, rest), 0, -1):
            for tail in gen(rest - k, k):
                yield (k,) + tail

    return [Partition(p) for p in gen(n, n)]


def enhanced_partitions_of(n: int) -> list[EnhancedPartition]:
    """All enhanced partitions of n, by partition then ascending q."""
    out = []
    for lam in partitions_of(n):
        for q in sorted(allowed_q(lam)):
            out.append(EnhancedPartition(lam, q))
    return out


def enhanced_number(lq: EnhancedPartition, k: int) -> int:
    """The k-th invariant number of lam[q], for 0 <= k <= n.

    Sum of the first k parts plus a boundary term: the (k+1)-th part,
    reduced by one when k+1 <= q.  Parts beyond the last are zero.
    """
    n = lq.n
    if k < 0 or k > n:
        raise OutOfRange(f"k must be in [0, {n}], got {k}")
    total = sum(lq.lam.parts[:k])
    delta = lq.lam.part(k + 1)
    if k + 1 <= lq.q:
        delta -= 1
    return total + delta


def enhanced_number_vector(lq: EnhancedPartition) -> tuple[int, ...]:
    """(wp_0, ..., wp_n); nondecreasing, ending at n."""
    return tuple(enhanced_number(lq, k) for k in range(lq.n + 1))


def enhanced_leq(lower_lq: EnhancedPartition, upper_lq: EnhancedPartition) -> bool:
    """The closure order: dominance plus componentwise invariant numbers."""
    if lower_lq.n != upper_lq.n:
        raise SizeMismatch(f"sizes differ: {lower_lq.n} vs {upper_lq.n}")
    if not dominance_leq(lower_lq.lam, upper_lq.lam):
        return False
    return all(
        enhanced_number(lower_lq, k) <= enhanced_number(upper_lq, k)
        for k in range(lower_lq.n + 1)
    )


def _order_key(lq: EnhancedPartition) -> tuple[int, ...]:
    """Coordinates on which the closure order is componentwise <=.

    The prefix sums of lam, padded to length n, carry the dominance part;
    the enhanced-number vector follows.  Neither half implies the other.
    """
    sums = list(itertools.accumulate(lq.lam.parts))
    sums += [lq.n] * (lq.n - len(sums))
    return (*sums, *enhanced_number_vector(lq))


def _down_sets(keys: list[tuple[int, ...]]) -> tuple[int, ...]:
    """For each key, the bitmask of the keys componentwise <= it.

    Per coordinate, a sorted sweep builds prefix-OR masks of "value <= v";
    a down-set is the AND of its own value's mask over all coordinates.
    """
    down = [-1] * len(keys)
    for c in range(len(keys[0])):
        at_most = {}
        mask = 0
        for i in sorted(range(len(keys)), key=lambda i: keys[i][c]):
            mask |= 1 << i
            at_most[keys[i][c]] = mask
        for i, key in enumerate(keys):
            down[i] &= at_most[key[c]]
    return tuple(down)


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class OrbitPoset:
    """All enhanced partitions of n with the closure order and its covers.

    ``down[i]`` is the bitmask of the indices of the elements at or below
    ``elements[i]``.
    """

    n: int
    elements: tuple[EnhancedPartition, ...]
    down: tuple[int, ...] = field(repr=False)
    covers: tuple[tuple[EnhancedPartition, EnhancedPartition], ...]
    index: dict = field(repr=False, compare=False)  # element -> position

    def is_leq(self, lower_lq: EnhancedPartition, upper_lq: EnhancedPartition) -> bool:
        return bool(self.down[self.index[upper_lq]] >> self.index[lower_lq] & 1)


def build_poset(n: int) -> OrbitPoset:
    """Enumerate all orbit labels of size n and compute order and covers.

    The order is stored as down-set bitmasks.  The covers of u are its
    strict down-set minus the strict down-sets of everything in it (the
    transitive reduction), listed by upper element, then ascending lower
    index.  Every cover is re-checked against :func:`enhanced_leq`.
    """
    if n < 1 or n > MAX_POSET_N:
        raise OutOfRange(f"n must be in [1, {MAX_POSET_N}], got {n}")
    elems = enhanced_partitions_of(n)
    down = _down_sets([_order_key(lq) for lq in elems])
    strict = [d & ~(1 << i) for i, d in enumerate(down)]
    covers = []
    for u, up in enumerate(elems):
        below = 0
        for v in _bits(strict[u]):
            below |= strict[v]
        for v in _bits(strict[u] & ~below):
            lo = elems[v]
            if not enhanced_leq(lo, up):
                raise RuntimeError(f"cover {up} -> {lo} is not in the closure order")
            covers.append((up, lo))
    index = {lq: i for i, lq in enumerate(elems)}
    return OrbitPoset(n, tuple(elems), down, tuple(covers), index)


def dim_orbit(lam: Partition) -> int:
    """Dimension of the nilpotent conjugation orbit: n^2 - sum (lam^t_i)^2."""
    return lam.n ** 2 - sum(c * c for c in lam.transpose().parts)


def dim_enhanced_orbit(lq: EnhancedPartition) -> int:
    """Dimension of the enhanced orbit: dim_orbit(lam) + (n - q)."""
    return dim_orbit(lq.lam) + (lq.n - lq.q)


def bipartition_of(lq: EnhancedPartition) -> Bipartition:
    """The bipartition (lam - (1)_q, (1)_q) matching the orbit closure."""
    return Bipartition(lq.lowered(), Partition((1,) * lq.q))


def fiber_dim(lam: Partition) -> int:
    """Dimension of the (enhanced) Springer fiber over type lam."""
    num = lam.n ** 2 - lam.n - dim_orbit(lam)
    assert num % 2 == 0
    return num // 2


def cohomology_total_dim(lam: Partition) -> int:
    """Total Betti number of the fiber: the multinomial n! / prod a_i!."""
    out = factorial(lam.n)
    for a in lam.parts:
        out //= factorial(a)
    return out


def semismall_check(n: int) -> bool:
    """Machine check of the semismallness inequality over all strata of n."""
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    return all(
        2 * fiber_dim(lq.lam) + dim_enhanced_orbit(lq) <= n * n
        for lq in enhanced_partitions_of(n)
    )


def ic_summand_support(n: int) -> list[tuple[EnhancedPartition, int]]:
    """Strata supporting summands of the pushforward decomposition.

    Exactly the marker-zero labels, each with shift dim_orbit(lam) + n.
    """
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    return [
        (EnhancedPartition(lam, 0), dim_orbit(lam) + n)
        for lam in partitions_of(n)
    ]

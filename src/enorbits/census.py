"""Brute-force finite-field oracle for the orbit classification.

Enumerates all pairs (nilpotent X, vector w) over F_p for small n and p,
closes them under a generating set of the enhanced group, and compares
the resulting orbit partition against the combinatorial classification.
The closure count being |labels of n| is exactly what the oracle checks;
a disagreement is reported in the result, never papered over.

Packing format (version 1): a state is the integer
``matrix_key * p**n + vector_key`` where ``matrix_key`` reads the matrix
row-major as base-p digits (entry (i, j) has weight p**(i*n + j)) and
``vector_key`` reads the vector the same way.

Feasibility bounds are hard errors: n <= 4 with p = 2, n <= 3 with p = 3.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .errors import OutOfRange
from .linalg import GF, ExactMatrix, rank_of_vectors, jordan_basis
from .orbits import EnhancedElement, marker_rule
from .partitions import EnhancedPartition, enhanced_partitions_of

PACK_VERSION = 1


def _feasible(n: int, p: int) -> bool:
    return (p == 2 and 1 <= n <= 4) or (p == 3 and 1 <= n <= 3)


def _check_bounds(n: int, p: int):
    if not _feasible(n, p):
        raise OutOfRange(
            f"(n={n}, p={p}) outside the supported census range "
            "(n <= 4 with p = 2, n <= 3 with p = 3)"
        )


def gl_order(n: int, p: int) -> int:
    """|GL_n(F_p)|."""
    pn = p ** n
    out = 1
    for i in range(n):
        out *= pn - p ** i
    return out


# --- tiny mod-p matrix helpers on tuples ------------------------------


def _matmul(a, b, p, n):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt)
        for row in a
    )


def _matvec(a, v, p):
    return tuple(sum(x * y for x, y in zip(row, v)) % p for row in a)


def _mat_pow_zero(a, p, n):
    acc = a
    for _ in range(n - 1):
        acc = _matmul(acc, a, p, n)
    return all(e == 0 for row in acc for e in row)


def _inv_mod(a, p, n):
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if aug[i][c] % p), None)
        if piv is None:
            return None
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(e * inv) % p for e in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(e - f * g) % p for e, g in zip(aug[i], aug[r])]
        r += 1
    return tuple(tuple(row[n:]) for row in aug)


def pack_state(x, w, p, n) -> int:
    key = 0
    for i in range(n):
        for j in range(n):
            key = key * p + x[n - 1 - i][n - 1 - j]
    # accumulate so that entry (i, j) carries weight p**(i*n + j)
    vkey = 0
    for i in range(n):
        vkey = vkey * p + w[n - 1 - i]
    return key * p ** n + vkey


def unpack_state(key: int, p: int, n: int):
    vkey = key % p ** n
    mkey = key // p ** n
    w = []
    for _ in range(n):
        w.append(vkey % p)
        vkey //= p
    digits = []
    for _ in range(n * n):
        digits.append(mkey % p)
        mkey //= p
    x = tuple(tuple(digits[i * n + j] for j in range(n)) for i in range(n))
    return x, tuple(w)


def enumerate_nilpotents(n: int, p: int):
    """Yield every nilpotent n x n matrix over F_p exactly once."""
    _check_bounds(n, p)
    for digits in itertools.product(range(p), repeat=n * n):
        x = tuple(tuple(digits[i * n + j] for j in range(n)) for i in range(n))
        if _mat_pow_zero(x, p, n):
            yield x


def _group_generators(n: int, p: int):
    """Transvections I + E_ij plus one diagonal multiplier for p > 2."""
    gens = []
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            g = [list(row) for row in ident]
            g[i][j] = 1
            gens.append(tuple(tuple(row) for row in g))
    if p > 2:
        gamma = _primitive_root(p)
        g = [list(row) for row in ident]
        g[0][0] = gamma
        gens.append(tuple(tuple(row) for row in g))
    return [(g, _inv_mod(g, p, n)) for g in gens]


def _primitive_root(p: int) -> int:
    for g in range(2, p):
        seen = set()
        acc = 1
        for _ in range(p - 1):
            acc = (acc * g) % p
            seen.add(acc)
        if len(seen) == p - 1:
            return g
    raise OutOfRange(f"{p} is not prime")


class _DisjointSet:
    def __init__(self):
        self.parent = {}

    def find(self, a):
        parent = self.parent
        root = a
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(a, a) != a:
            parent[a], a = root, parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class CensusOrbit:
    type: EnhancedPartition
    size: int
    stabilizer_order: int
    representative_key: int
    representative: tuple  # (matrix tuple, vector tuple)


@dataclass(frozen=True)
class CensusReport:
    n: int
    p: int
    orbit_count: int
    orbits: tuple[CensusOrbit, ...]
    expected_count: int
    count_matches: bool
    classification_consistent: bool
    seconds: float


def _classify_all_vectors(x, n, p):
    """Orbit label for (x, w) for every w over F_p, sharing one Jordan basis."""
    jd = jordan_basis(ExactMatrix(GF(p), x))
    ginv = jd.change_of_basis.inverse()
    label = marker_rule(jd.lam)
    return {w: label(ginv.apply(w)) for w in itertools.product(range(p), repeat=n)}


def orbit_census(n: int, p: int) -> CensusReport:
    """Partition all (nilpotent, vector) pairs into enhanced-group orbits."""
    _check_bounds(n, p)
    start = time.perf_counter()
    pn = p ** n
    nilpotents = list(enumerate_nilpotents(n, p))
    vectors = list(itertools.product(range(p), repeat=n))
    gens = _group_generators(n, p)
    # rho(g) w tables are independent of the matrix component
    gw_table = [
        {w: _matvec(g, w, p) for w in vectors} for g, _ in gens
    ]
    dsu = _DisjointSet()
    for x in nilpotents:
        conj = [
            _matmul(_matmul(g, x, p, n), ginv, p, n) for g, ginv in gens
        ]
        cols = [tuple(row[j] for row in x) for j in range(n)]
        for w in vectors:
            key = pack_state(x, w, p, n)
            for gi, xg in enumerate(conj):
                dsu.union(key, pack_state(xg, gw_table[gi][w], p, n))
            for col in cols:
                shifted = tuple((a - b) % p for a, b in zip(w, col))
                dsu.union(key, pack_state(x, shifted, p, n))

    members: dict[int, list[int]] = {}
    for x in nilpotents:
        for w in vectors:
            key = pack_state(x, w, p, n)
            members.setdefault(dsu.find(key), []).append(key)

    group_order = gl_order(n, p) * pn
    labels = {}
    consistent = True
    for x in nilpotents:
        labels[x] = _classify_all_vectors(x, n, p)

    orbits = []
    seen_types = set()
    for keys in members.values():
        rep_key = min(keys)
        size = len(keys)
        types = {labels[x][w] for x, w in (unpack_state(k, p, n) for k in keys)}
        if len(types) != 1:
            consistent = False
        orbit_type = labels[unpack_state(rep_key, p, n)[0]][
            unpack_state(rep_key, p, n)[1]
        ]
        if orbit_type in seen_types:
            consistent = False
        seen_types.add(orbit_type)
        if group_order % size != 0:
            consistent = False
            stab = 0
        else:
            stab = group_order // size
        orbits.append(
            CensusOrbit(orbit_type, size, stab, rep_key, unpack_state(rep_key, p, n))
        )
    orbits.sort(key=lambda o: o.representative_key)
    expected = len(enhanced_partitions_of(n))
    seconds = time.perf_counter() - start
    return CensusReport(
        n=n,
        p=p,
        orbit_count=len(orbits),
        orbits=tuple(orbits),
        expected_count=expected,
        count_matches=len(orbits) == expected,
        classification_consistent=consistent,
        seconds=seconds,
    )


def enhanced_number_oracle(e: EnhancedElement, k: int) -> int:
    """Maximal dimension of a module generated by a translate of w and k
    extra vectors, by exhaustive search over F_2.

    The maximum matches the formula value of the classified type; the
    optimum is attained at integral vectors, so the small-field search is
    a faithful oracle for the characteristic-zero statement.
    """
    field = e.x.field
    if getattr(field, "p", None) != 2:
        raise OutOfRange("the exhaustive oracle runs over F_2 only")
    n = e.n
    if n > 3:
        raise OutOfRange("the exhaustive oracle supports n <= 3")
    if k < 0 or k > n:
        raise OutOfRange(f"k must be in [0, {n}], got {k}")
    cols = [e.x.column(j) for j in range(n)]
    # enumerate im X as all spans of the columns
    image = set()
    for coeffs in itertools.product(range(2), repeat=n):
        v = tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % 2
                  for i in range(n))
        image.add(v)
    all_vectors = list(itertools.product(range(2), repeat=n))

    def module_span(seeds):
        vecs = []
        for s in seeds:
            cur = s
            for _ in range(n):
                vecs.append(cur)
                cur = e.x.apply(cur)
        return rank_of_vectors(field, vecs)

    best = 0
    for delta in image:
        shifted = tuple((a + b) % 2 for a, b in zip(e.w, delta))
        for extra in itertools.combinations_with_replacement(all_vectors, k):
            best = max(best, module_span((shifted,) + extra))
    return best

"""Brute-force finite-field oracle for the orbit classification.

Enumerates all pairs (nilpotent X, vector w) over F_p for small n and p,
closes them under a generating set of the enhanced group, and compares
the resulting orbit partition against the combinatorial classification.
The closure count being |labels of n| is exactly what the oracle checks;
a disagreement is reported in the result, never papered over.

Packing format (version 1): a state is the integer
``matrix_key * p**n + vector_key`` where ``matrix_key`` reads the matrix
row-major as base-p digits (entry (i, j) has weight p**(i*n + j)) and
``vector_key`` reads the vector the same way (coordinate i has weight
p**i).

The census works on these keys as plain ints.  Vectors are their keys,
with addition, negation and scalar tables on keys.  A matrix is its
columns as vector keys plus its action table (the key of X v for every
key v).  Every one of the p**(n*n) matrices is tested for nilpotency on
its columns: the trace must vanish, then X^n e_j = 0 for every j.  The
nilpotents are numbered in matrix-key order, so the state (X_i, v) has
index ``i * p**n + v`` and the smallest index of an orbit is its smallest
packed key.  The group generators are the transvections I + E_ij and,
for p > 2, diag(gamma, 1, ..., 1); each is its action table on vector
keys, made from its columns like any matrix's.  That table is a
permutation of the keys, so g^-1 e_k is the key g sends to p**k, and no
inverse is computed.  A generator acts on the nilpotents through one
conjugate index each, so a union-find step is a few list lookups on a
flat parent array.  Enumeration and union-find use no ``linalg``; the
labels they are checked against come from one ``jordan_basis`` per
nilpotent and ``orbits.marker_rule``.

``enhanced_number_oracle`` searches over F_2 with vectors as bitmasks: the
Krylov block of every vector is built once, and the rank of a seed tuple
is the size of an XOR basis extended block by block down a depth-first
search.  The maximum is confirmed by ``rank_of_vectors``.

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


# --- vectors and matrices as keys ---------------------------------------


@dataclass(frozen=True)
class _Keys:
    """The p**n vectors over F_p, indexed by vector key, with arithmetic."""

    vectors: list  # key -> coordinate tuple
    key: dict      # coordinate tuple -> key
    add: list      # add[a][b] = key of a + b
    neg: list      # neg[a] = key of -a
    mul: list      # mul[c][a] = key of c * a


def _keys(n: int, p: int) -> _Keys:
    # product varies its last entry fastest, so reversed tuples count up
    # with coordinate 0 as the lowest digit
    vectors = [t[::-1] for t in itertools.product(range(p), repeat=n)]
    key = {v: k for k, v in enumerate(vectors)}
    add = [[key[tuple((s + t) % p for s, t in zip(a, b))] for b in vectors]
           for a in vectors]
    mul = [[key[tuple(c * s % p for s in a)] for a in vectors] for c in range(p)]
    return _Keys(vectors, key, add, mul[p - 1], mul)


def _action(cols, keys: _Keys):
    """Key of X v for every vector key v, where X has the given columns."""
    add, mul = keys.add, keys.mul
    table = [0]
    for c in cols:
        # keys d * p**j + a for the digit d of coordinate j, in key order
        table = [add[t][m[c]] for m in mul for t in table]
    return table


def _nilpotent_actions(n: int, p: int, keys: _Keys):
    """(columns, action table) of every nilpotent n x n matrix over F_p."""
    diagonal = [[v[j] for v in keys.vectors] for j in range(n)]
    for cols in itertools.product(range(p ** n), repeat=n):
        # the trace of a nilpotent matrix vanishes
        if sum(d[c] for d, c in zip(diagonal, cols)) % p:
            continue
        table = _action(cols, keys)
        for c in cols:  # X^n e_j = X^(n-1) col_j
            for _ in range(n - 1):
                c = table[c]
            if c:
                break
        else:
            yield cols, table


def _matrix(cols, keys: _Keys):
    return tuple(zip(*(keys.vectors[c] for c in cols)))


def enumerate_nilpotents(n: int, p: int):
    """Yield every nilpotent n x n matrix over F_p exactly once."""
    _check_bounds(n, p)
    keys = _keys(n, p)
    for cols, _ in _nilpotent_actions(n, p, keys):
        yield _matrix(cols, keys)


def _group_generators(n: int, p: int, keys: _Keys):
    """Action tables of the transvections I + E_ij and, for p > 2, of
    diag(gamma, 1, ..., 1) for a primitive root gamma, from their columns
    as vector keys (e_k has key p**k)."""
    unit = [p ** k for k in range(n)]
    gens = [unit[:j] + [unit[j] + unit[i]] + unit[j + 1:]
            for i in range(n) for j in range(n) if i != j]
    if p > 2:
        gens.append([_primitive_root(p)] + unit[1:])
    return [_action(cols, keys) for cols in gens]


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


def _labels(x, p, keys: _Keys):
    """Orbit label of (x, w) for every vector key w, from one Jordan basis."""
    jd = jordan_basis(ExactMatrix(GF(p), x))
    ginv = jd.change_of_basis.inverse()
    # the coordinates of w in the Jordan basis are ginv w
    table = _action([keys.key[col] for col in zip(*ginv.entries)], keys)
    return map(marker_rule(jd.lam), map(keys.vectors.__getitem__, table))


def orbit_census(n: int, p: int) -> CensusReport:
    """Partition all (nilpotent, vector) pairs into enhanced-group orbits."""
    _check_bounds(n, p)
    start = time.perf_counter()
    pn = p ** n
    keys = _keys(n, p)
    zero = (0,) * n
    nilpotents = []  # (matrix key * p**n, matrix, columns, action table)
    for cols, table in _nilpotent_actions(n, p, keys):
        x = _matrix(cols, keys)
        nilpotents.append((pack_state(x, zero, p, n), x, cols, table))
    nilpotents.sort()
    index = {cols: i for i, (_, _, cols, _) in enumerate(nilpotents)}

    # g X g^-1 has columns g X (g^-1 e_k): one action lookup, one g lookup;
    # g^-1 e_k is the key that g sends to p**k
    moves = []  # per generator: (image of each vector key, conjugate indices)
    for gw in _group_generators(n, p, keys):
        inv_cols = [gw.index(p ** k) for k in range(n)]
        conj = [index[tuple(gw[table[u]] for u in inv_cols)]
                for _, _, _, table in nilpotents]
        moves.append((gw, conj))

    parent = list(range(len(nilpotents) * pn))

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for i, (_, _, cols, _) in enumerate(nilpotents):
        base = i * pn
        targets = [(conj[i] * pn, gw) for gw, conj in moves]
        # translation w -> w - col_j; zero and repeated columns add nothing
        shifts = {keys.neg[c] for c in cols if c}
        targets += [(base, keys.add[s]) for s in shifts]
        for v in range(pn):
            a = find(base + v)
            for t, image in targets:
                b = find(t + image[v])
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = a = b

    labels = []
    for _, x, _, _ in nilpotents:
        labels.extend(_labels(x, p, keys))

    # states in increasing order: the first one met is the orbit's least
    # key, and the orbits enter ``firsts`` in the order of their least keys
    firsts: dict[int, list] = {}  # root -> [least state, size]
    consistent = True
    for s, label in enumerate(labels):
        root = find(s)
        entry = firsts.get(root)
        if entry is None:
            firsts[root] = [s, 1]
        else:
            entry[1] += 1
            if label != labels[entry[0]]:
                consistent = False

    group_order = gl_order(n, p) * pn
    orbits = []
    seen_types = set()
    for s, size in firsts.values():
        i, v = divmod(s, pn)
        x, w = nilpotents[i][1], keys.vectors[v]
        orbit_type = labels[s]
        if orbit_type in seen_types:
            consistent = False
        seen_types.add(orbit_type)
        if group_order % size != 0:
            consistent = False
            stab = 0
        else:
            stab = group_order // size
        orbits.append(
            CensusOrbit(orbit_type, size, stab, pack_state(x, w, p, n), (x, w))
        )
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


def _insert(basis, v) -> int:
    """Add the bitmask v to an XOR basis (pivot bit -> vector); 1 if new."""
    while v:
        top = v.bit_length() - 1
        if not basis[top]:
            basis[top] = v
            return 1
        v ^= basis[top]
    return 0


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
    # a vector is a bitmask: bit i is coordinate i
    cols = [sum(c << i for i, c in enumerate(e.x.column(j))) for j in range(n)]
    images = [0]  # images[m] = X m
    for c in cols:
        images += [t ^ c for t in images]
    krylov = []  # krylov[m] = m, X m, ..., X^(n-1) m
    for m in range(1 << n):
        block = [m]
        for _ in range(n - 1):
            block.append(images[block[-1]])
        krylov.append(block)

    best, best_seeds = -1, ()

    def search(basis, rank, first, left, seeds):
        # extra vectors in non-decreasing order: each multiset once
        nonlocal best, best_seeds
        if not left:
            if rank > best:
                best, best_seeds = rank, seeds
            return
        for m in range(first, 1 << n):
            if best == n:
                return
            grown = basis.copy()
            gain = sum(_insert(grown, v) for v in krylov[m])
            search(grown, rank + gain, m, left - 1, seeds + (m,))

    w = sum(c << i for i, c in enumerate(e.w))
    for delta in sorted(set(images)):  # im X
        basis = [0] * n
        rank = sum(_insert(basis, v) for v in krylov[w ^ delta])
        search(basis, rank, 0, k, (w ^ delta,))

    vectors = [tuple(v >> i & 1 for i in range(n)) for m in best_seeds for v in krylov[m]]
    if rank_of_vectors(field, vectors) != best:
        raise RuntimeError(f"XOR-basis rank {best} disagrees with rank_of_vectors")
    return best

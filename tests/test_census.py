import dataclasses
import itertools
import random

import pytest

from enorbits import census
from enorbits.census import (
    CensusOrbit,
    CensusReport,
    enhanced_number_oracle,
    enumerate_nilpotents,
    gl_order,
    orbit_census,
    pack_state,
    unpack_state,
)
from enorbits.errors import OutOfRange
from enorbits.linalg import ExactMatrix, GF, jordan_basis, jordan_matrix, rank_of_vectors
from enorbits.orbits import EnhancedElement, classify, marker_rule
from enorbits.partitions import Partition, enhanced_number, enhanced_partitions_of

FEASIBLE = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)]


# --- reference: the census on matrix tuples and a dict union-find -------


def _matmul(a, b, p):
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
        acc = _matmul(acc, a, p)
    return all(e == 0 for row in acc for e in row)


def _generator_pairs(n, p):
    """(g, g^-1) for the transvections I + E_ij and, for p > 2, a diagonal
    diag(gamma, 1, ..., 1) with gamma a primitive root, in closed form."""
    ident = [[int(i == j) for j in range(n)] for i in range(n)]

    def with_entries(entries):
        g = [row[:] for row in ident]
        for (i, j), e in entries.items():
            g[i][j] = e % p
        return tuple(map(tuple, g))

    pairs = [(with_entries({(i, j): 1}), with_entries({(i, j): -1}))
             for i in range(n) for j in range(n) if i != j]
    if p > 2:
        gamma = next(g for g in range(2, p)
                     if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
        pairs.append((with_entries({(0, 0): gamma}), with_entries({(0, 0): pow(gamma, -1, p)})))
    return pairs


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


def _reference_census(n, p):
    """The census as computed before keys were packed: every matrix and
    vector a tuple, conjugates by two matrix products, one ExactMatrix
    apply per label."""
    pn = p ** n
    nilpotents = []
    for digits in itertools.product(range(p), repeat=n * n):
        x = tuple(tuple(digits[i * n + j] for j in range(n)) for i in range(n))
        if _mat_pow_zero(x, p, n):
            nilpotents.append(x)
    vectors = list(itertools.product(range(p), repeat=n))
    gens = _generator_pairs(n, p)
    gw_table = [{w: _matvec(g, w, p) for w in vectors} for g, _ in gens]
    dsu = _DisjointSet()
    for x in nilpotents:
        conj = [_matmul(_matmul(g, x, p), ginv, p) for g, ginv in gens]
        cols = [tuple(row[j] for row in x) for j in range(n)]
        for w in vectors:
            key = pack_state(x, w, p, n)
            for gi, xg in enumerate(conj):
                dsu.union(key, pack_state(xg, gw_table[gi][w], p, n))
            for col in cols:
                shifted = tuple((a - b) % p for a, b in zip(w, col))
                dsu.union(key, pack_state(x, shifted, p, n))
    members = {}
    for x in nilpotents:
        for w in vectors:
            key = pack_state(x, w, p, n)
            members.setdefault(dsu.find(key), []).append(key)
    labels = {}
    for x in nilpotents:
        jd = jordan_basis(ExactMatrix(GF(p), x))
        ginv = jd.change_of_basis.inverse()
        label = marker_rule(jd.lam)
        labels[x] = {w: label(ginv.apply(w)) for w in vectors}
    group_order = gl_order(n, p) * pn
    consistent = True
    orbits = []
    seen_types = set()
    for keys in members.values():
        rep_key = min(keys)
        size = len(keys)
        types = {labels[x][w] for x, w in (unpack_state(k, p, n) for k in keys)}
        if len(types) != 1:
            consistent = False
        x, w = unpack_state(rep_key, p, n)
        orbit_type = labels[x][w]
        if orbit_type in seen_types:
            consistent = False
        seen_types.add(orbit_type)
        if group_order % size != 0:
            consistent = False
            stab = 0
        else:
            stab = group_order // size
        orbits.append(CensusOrbit(orbit_type, size, stab, rep_key, (x, w)))
    orbits.sort(key=lambda o: o.representative_key)
    expected = len(enhanced_partitions_of(n))
    return CensusReport(
        n=n,
        p=p,
        orbit_count=len(orbits),
        orbits=tuple(orbits),
        expected_count=expected,
        count_matches=len(orbits) == expected,
        classification_consistent=consistent,
        seconds=0,
    )


def _reference_oracle(e, k):
    """Enhanced number by rank_of_vectors on every Krylov span."""
    n = e.n
    f2 = GF(2)
    image = {e.x.apply(c) for c in itertools.product(range(2), repeat=n)}
    vectors = list(itertools.product(range(2), repeat=n))

    def span(seeds):
        vecs = []
        for s in seeds:
            for _ in range(n):
                vecs.append(s)
                s = e.x.apply(s)
        return rank_of_vectors(f2, vecs)

    return max(
        span((tuple((a + b) % 2 for a, b in zip(e.w, d)),) + extra)
        for d in image
        for extra in itertools.combinations_with_replacement(vectors, k)
    )


class TestEnumeration:
    def test_counts(self):
        # Fine-Herstein: p**(n*n - n) nilpotent n x n matrices over F_p
        for n, p in FEASIBLE:
            matrices = list(enumerate_nilpotents(n, p))
            assert len(matrices) == len(set(matrices)) == p ** (n * n - n)

    def test_all_nilpotent_and_distinct(self):
        seen = set()
        for x in enumerate_nilpotents(3, 2):
            assert x not in seen
            seen.add(x)
            m = ExactMatrix(GF(2), x)
            assert m.power(3).is_zero()

    def test_bounds(self):
        with pytest.raises(OutOfRange):
            list(enumerate_nilpotents(5, 2))
        with pytest.raises(OutOfRange):
            list(enumerate_nilpotents(4, 3))
        with pytest.raises(OutOfRange):
            list(enumerate_nilpotents(2, 5))


class TestPacking:
    def test_round_trip(self):
        for n, p in [(2, 2), (2, 3), (3, 2)]:
            for x in itertools.islice(
                itertools.product(range(p), repeat=n * n), 20
            ):
                mat = tuple(
                    tuple(x[i * n + j] for j in range(n)) for i in range(n)
                )
                for w in itertools.product(range(p), repeat=n):
                    key = pack_state(mat, w, p, n)
                    assert unpack_state(key, p, n) == (mat, w)

    def test_injective(self):
        keys = set()
        n, p = 2, 2
        for x in itertools.product(range(p), repeat=n * n):
            mat = (x[0:2], x[2:4])
            for w in itertools.product(range(p), repeat=n):
                keys.add(pack_state(mat, w, p, n))
        assert len(keys) == p ** (n * n) * p ** n


class TestGroupOrder:
    def test_values(self):
        assert gl_order(2, 2) == 6
        assert gl_order(2, 3) == 48
        assert gl_order(3, 2) == 168


class TestCensus:
    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_counts_and_consistency(self, n, p):
        report = orbit_census(n, p)
        assert report.count_matches
        assert report.classification_consistent
        assert report.orbit_count == report.expected_count
        assert sum(o.size for o in report.orbits) == p ** (n * n - n) * p ** n

    def test_stabilizer_identity(self):
        report = orbit_census(3, 2)
        group = gl_order(3, 2) * 2 ** 3
        for o in report.orbits:
            assert o.size * o.stabilizer_order == group

    def test_deterministic(self):
        a = orbit_census(2, 3)
        b = orbit_census(2, 3)
        assert [
            (str(o.type), o.size, o.stabilizer_order, o.representative_key)
            for o in a.orbits
        ] == [
            (str(o.type), o.size, o.stabilizer_order, o.representative_key)
            for o in b.orbits
        ]

    def test_representatives_classify_to_type(self):
        for p in (2, 3):
            for o in orbit_census(3, p).orbits:
                x, w = o.representative
                e = EnhancedElement(ExactMatrix(GF(p), x), w)
                assert classify(e) == o.type
                assert o.representative_key == pack_state(x, w, p, 3)

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
    def test_matches_reference(self, n, p):
        report = dataclasses.replace(orbit_census(n, p), seconds=0)
        assert report == _reference_census(n, p)

    def test_infeasible_rejected(self):
        with pytest.raises(OutOfRange):
            orbit_census(4, 3)


class TestEnhancedNumberOracle:
    def test_examples(self):
        f2 = GF(2)
        j21 = jordan_matrix(f2, Partition((2, 1)))
        assert enhanced_number_oracle(EnhancedElement(j21, (0, 0, 1)), 0) == 1
        assert enhanced_number_oracle(EnhancedElement(j21, (0, 1, 0)), 1) == 3
        zero = ExactMatrix.zeros(f2, 3)
        assert enhanced_number_oracle(EnhancedElement(zero, (0, 0, 0)), 2) == 2

    def test_matches_formula_n2(self):
        for x in enumerate_nilpotents(2, 2):
            for w in itertools.product(range(2), repeat=2):
                e = EnhancedElement(ExactMatrix(GF(2), x), w)
                lq = classify(e)
                for k in range(3):
                    assert enhanced_number_oracle(e, k) == enhanced_number(
                        lq, k
                    )

    def test_matches_reference(self):
        f2 = GF(2)
        elements = [
            EnhancedElement(ExactMatrix(f2, x), w)
            for n in (1, 2)
            for x in enumerate_nilpotents(n, 2)
            for w in itertools.product(range(2), repeat=n)
        ]
        rng = random.Random(60611)
        nilpotents = list(enumerate_nilpotents(3, 2))
        for _ in range(12):
            w = tuple(rng.randrange(2) for _ in range(3))
            elements.append(EnhancedElement(ExactMatrix(f2, rng.choice(nilpotents)), w))
        for e in elements:
            for k in range(e.n + 1):
                assert enhanced_number_oracle(e, k) == _reference_oracle(e, k)

    def test_rank_disagreement_raises(self, monkeypatch):
        e = EnhancedElement(jordan_matrix(GF(2), Partition((2, 1))), (0, 1, 0))
        monkeypatch.setattr(census, "rank_of_vectors", lambda field, vectors: -1)
        with pytest.raises(RuntimeError):
            enhanced_number_oracle(e, 1)

    def test_bounds(self):
        f2 = GF(2)
        e = EnhancedElement(ExactMatrix.zeros(f2, 2), (0, 0))
        with pytest.raises(OutOfRange):
            enhanced_number_oracle(e, 3)
        f3 = GF(3)
        e3 = EnhancedElement(ExactMatrix.zeros(f3, 2), (0, 0))
        with pytest.raises(OutOfRange):
            enhanced_number_oracle(e3, 1)

import time

import pytest

from enorbits.errors import OutOfRange, SizeMismatch
from enorbits.partitions import (
    EnhancedPartition,
    MAX_POSET_N,
    Partition,
    build_poset,
    dim_enhanced_orbit,
    dominance_leq,
    enhanced_leq,
    enhanced_partitions_of,
    parse_enhanced,
)


L = parse_enhanced


class TestOrder:
    def test_examples(self):
        assert enhanced_leq(L("2,1[1]"), L("2,1[0]"))
        assert not enhanced_leq(L("2,1[0]"), L("2,1[1]"))
        assert enhanced_leq(L("1,1,1[3]"), L("1,1,1[3]"))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            enhanced_leq(L("2[0]"), L("2,1[0]"))

    def test_axioms_up_to_8(self):
        for n in range(1, 9):
            elems = enhanced_partitions_of(n)
            leq = {
                (a, b): enhanced_leq(a, b) for a in elems for b in elems
            }
            for a in elems:
                assert leq[(a, a)]
            for a in elems:
                for b in elems:
                    if leq[(a, b)] and leq[(b, a)]:
                        assert a == b
            for a in elems:
                for b in elems:
                    if not leq[(a, b)]:
                        continue
                    for c in elems:
                        if leq[(b, c)]:
                            assert leq[(a, c)]

    def test_unique_extremes(self):
        for n in range(1, 9):
            elems = enhanced_partitions_of(n)
            top = EnhancedPartition(Partition((n,)), 0)
            bot = EnhancedPartition(Partition((1,) * n), n)
            assert all(enhanced_leq(x, top) for x in elems)
            assert all(enhanced_leq(bot, x) for x in elems)

    def test_dimension_strictly_monotone(self):
        for n in range(1, 9):
            elems = enhanced_partitions_of(n)
            for a in elems:
                for b in elems:
                    if a != b and enhanced_leq(a, b):
                        assert dim_enhanced_orbit(a) < dim_enhanced_orbit(b)

    def test_marker_zero_closure_is_dominance(self):
        # below a q = 0 label the marker is irrelevant
        for n in range(1, 9):
            for lo in enhanced_partitions_of(n):
                for lam in {x.lam for x in enhanced_partitions_of(n)}:
                    up = EnhancedPartition(lam, 0)
                    assert enhanced_leq(lo, up) == dominance_leq(lo.lam, lam)


class TestBuildPoset:
    def test_sizes(self):
        assert len(build_poset(2).elements) == 4
        assert len(build_poset(3).elements) == 7
        assert len(build_poset(4).elements) == 12

    def test_bounds(self):
        with pytest.raises(OutOfRange):
            build_poset(0)
        with pytest.raises(OutOfRange):
            build_poset(MAX_POSET_N + 1)

    def test_n2_covers(self):
        covers = {(str(u), str(l)) for u, l in build_poset(2).covers}
        assert covers == {
            ("2[0]", "2[1]"),
            ("2[1]", "1,1[0]"),
            ("1,1[0]", "1,1[2]"),
        }

    def test_covers_are_transitive_reduction(self):
        for n in range(1, 7):
            poset = build_poset(n)
            below = {
                up: [
                    lo
                    for lo in poset.elements
                    if lo != up and poset.is_leq(lo, up)
                ]
                for up in poset.elements
            }
            for up, lo in poset.covers:
                assert poset.is_leq(lo, up)
                for mid in below[up]:
                    if mid != lo and poset.is_leq(lo, mid):
                        pytest.fail(f"{lo} < {mid} < {up} not reduced")


class TestBitmaskPoset:
    def test_is_leq_is_the_definition(self):
        for n in range(1, 10):
            poset = build_poset(n)
            for lo in poset.elements:
                for up in poset.elements:
                    assert poset.is_leq(lo, up) == enhanced_leq(lo, up)

    def test_covers_match_cubic_reduction(self):
        # the direct transitive reduction, kept here as an oracle
        for n in range(1, 10):
            elems = enhanced_partitions_of(n)
            leq = {(a, b): enhanced_leq(a, b) for a in elems for b in elems}
            expected = [
                (up, lo)
                for up in elems
                for lo in elems
                if lo != up
                and leq[(lo, up)]
                and not any(
                    mid != up and mid != lo and leq[(lo, mid)] and leq[(mid, up)]
                    for mid in elems
                )
            ]
            assert list(build_poset(n).covers) == expected

    def test_largest_n_is_fast(self):
        start = time.perf_counter()
        poset = build_poset(MAX_POSET_N)
        elapsed = time.perf_counter() - start
        assert MAX_POSET_N == 16
        assert len(poset.elements) == 915
        for up, lo in poset.covers:
            assert dim_enhanced_orbit(lo) < dim_enhanced_orbit(up)
        assert elapsed < 1.0, f"build_poset(16) took {elapsed:.2f} s"

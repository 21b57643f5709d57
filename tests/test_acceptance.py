"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is zero: the arithmetic is exact throughout.
"""

import itertools
import random
import time

from click.testing import CliRunner

from enorbits.census import enhanced_number_oracle, orbit_census
from enorbits.cli import main as cli_main
from enorbits.gl2 import LABELS as GL2_LABELS
from enorbits.gl2 import (
    classify_gl2,
    enhanced_adjoint,
    gl2_closure_poset,
    gl2_contains,
    gl2_dims,
    representative,
)
from enorbits.linalg import (
    ExactMatrix,
    GF,
    QQ,
    enhanced_centralizer_dim,
)
from enorbits.orbits import (
    EnhancedElement,
    canonical_representative,
    classify,
    classify_invariant,
    flag_blocks,
)
from enorbits.partitions import (
    EnhancedPartition,
    Partition,
    build_poset,
    cohomology_total_dim,
    dim_enhanced_orbit,
    dim_orbit,
    dominance_leq,
    enhanced_leq,
    enhanced_number,
    enhanced_partitions_of,
    fiber_dim,
    partitions_of,
    semismall_check,
)
from enorbits.finiteness import (
    Finiteness,
    WeightSpec,
    decide_enhanced,
    decide_gl_variety,
)


def report(num, name, ok, note=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"criterion {num} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} [{name}] failed{suffix}"


def test_criterion_1_orbit_counts():
    start = time.perf_counter()
    runner = CliRunner()
    counts = {}
    for n in (2, 3, 4):
        out = runner.invoke(cli_main, ["orbits", "--n", str(n)])
        assert out.exit_code == 0
        counts[n] = len(out.output.strip().splitlines()) - 1  # header row
    elapsed = time.perf_counter() - start
    ok = counts == {2: 4, 3: 7, 4: 12} and elapsed < 1.0
    report(1, "orbit counts", ok, f"counts={counts}, {elapsed:.2f}s")


def test_criterion_2_finite_field_census():
    start = time.perf_counter()
    ok = True
    counts = {}
    for n in (2, 3, 4):
        r = orbit_census(n, 2)
        counts[n] = r.orbit_count
        ok = ok and r.count_matches and r.classification_consistent
    elapsed = time.perf_counter() - start
    ok = ok and counts == {2: 4, 3: 7, 4: 12} and elapsed < 300.0
    report(2, "finite-field census", ok, f"counts={counts}, {elapsed:.1f}s")


def test_criterion_3_dimension_identities():
    start = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for lq in enhanced_partitions_of(n):
            e = canonical_representative(lq)
            lhs = (n * n + n) - enhanced_centralizer_dim(e.x, e.w)
            rhs = dim_orbit(lq.lam) + (n - lq.q)
            if lhs != rhs:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, "dimension identities", ok, f"n<=5 exact, {elapsed:.1f}s")


def _shear(rng, n):
    g = ExactMatrix.identity(QQ, n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        s = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        s[i][j] = rng.randint(-2, 2)
        g = g @ ExactMatrix(QQ, s)
    return g


def test_criterion_4_dual_classification():
    ok = True
    for n in range(1, 6):
        for lq in enhanced_partitions_of(n):
            e = canonical_representative(lq)
            if classify(e) != lq or classify_invariant(e) != lq:
                ok = False
    rng = random.Random(73003)
    mismatches = 0
    for n in range(1, 5):
        labels = enhanced_partitions_of(n)
        for _ in range(1000):
            lq = rng.choice(labels)
            e = canonical_representative(lq)
            g = _shear(rng, n)
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            gx = (g @ e.x) @ g.inverse()
            w = tuple(a - b for a, b in zip(g.apply(e.w), gx.apply(v)))
            moved = EnhancedElement(gx, w)
            if classify(moved) != lq or classify_invariant(moved) != lq:
                mismatches += 1
    ok = ok and mismatches == 0
    report(4, "dual classification", ok, f"mismatches={mismatches}")


def test_criterion_5_enhanced_number_oracle():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in (1, 2, 3):
        for digits in itertools.product(range(2), repeat=n * n):
            x = tuple(
                tuple(digits[i * n + j] for j in range(n)) for i in range(n)
            )
            m = ExactMatrix(GF(2), x)
            if not m.power(n).is_zero():
                continue
            for w in itertools.product(range(2), repeat=n):
                e = EnhancedElement(m, w)
                lq = classify(e)
                for k in range(min(n, 3) + 1):
                    checked += 1
                    if enhanced_number_oracle(e, k) != enhanced_number(lq, k):
                        mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    report(
        5,
        "enhanced-number oracle",
        ok,
        f"checked={checked}, mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_6_poset_axioms():
    ok = True
    for n in range(1, 9):
        poset = build_poset(n)
        elems = poset.elements
        for a in elems:
            if not poset.is_leq(a, a):
                ok = False
        for a in elems:
            for b in elems:
                if a != b and poset.is_leq(a, b) and poset.is_leq(b, a):
                    ok = False
                if poset.is_leq(a, b):
                    for c in elems:
                        if poset.is_leq(b, c) and not poset.is_leq(a, c):
                            ok = False
        top = EnhancedPartition(Partition((n,)), 0)
        bot = EnhancedPartition(Partition((1,) * n), n)
        if not all(poset.is_leq(x, top) and poset.is_leq(bot, x) for x in elems):
            ok = False
        for a in elems:
            for b in elems:
                if a != b and poset.is_leq(a, b):
                    if not dim_enhanced_orbit(a) < dim_enhanced_orbit(b):
                        ok = False
        for lo in elems:
            for lam in {x.lam for x in elems}:
                up = EnhancedPartition(lam, 0)
                if poset.is_leq(lo, up) != dominance_leq(lo.lam, lam):
                    ok = False
    report(6, "poset axioms and structure", ok)


def test_criterion_7_gl2_exceptional():
    start = time.perf_counter()
    rng = random.Random(73007)
    seen = set()
    ok = True
    for _ in range(200):
        while True:
            g = ExactMatrix(
                QQ, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            )
            (a, b), (c, d) = g.entries
            if a * d - b * c != 0:
                break
        from enorbits.gl2 import QuadraticVector

        v = QuadraticVector(*(rng.randint(-2, 2) for _ in range(3)))
        label = rng.choice(GL2_LABELS)
        x, w = representative(label)
        gx, gw = enhanced_adjoint(g, v, x, w)
        got = classify_gl2(gx, gw).label
        if got != label:
            ok = False
        seen.add(got)
    ok = ok and seen == set(GL2_LABELS)
    table = {o.label: o for o in gl2_dims()}
    cents = [table[l].centralizer_dim for l in GL2_LABELS]
    dims = [table[l].dim for l in GL2_LABELS]
    ok = ok and cents == [7, 5, 4, 3, 2]
    # the exact kernels force dim = 7 - centralizer, giving (0,2,3,4,5);
    # a dim-3 value for the rank-1 stratum would contradict its
    # codimension-5 centralizer
    ok = ok and dims == [7 - c for c in cents] and dims == [0, 2, 3, 4, 5]
    ok = ok and gl2_contains("O5", "O4") and gl2_contains("O4", "O2")
    ok = ok and gl2_closure_poset()["O5"] == set(GL2_LABELS)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(
        7,
        "gl2 exceptional case",
        ok,
        f"centralizers={cents}, dims={dims}, {elapsed:.2f}s",
    )


def test_criterion_8_finiteness_table():
    F, I = Finiteness.FINITE, Finiteness.INFINITE
    cases = [
        # natural, dual and one-dimensional modules are finite for n > 2
        (3, (1, 0, 0), F, F),
        (3, (1, 1, 0), F, F),
        (3, (0, 0, 0), F, F),
        (4, (1, 0, 0, 0), F, F),
        (4, (1, 1, 1, 0), F, F),
        (5, (1, 1, 1, 1, 1), F, F),
        # the three-dimensional GL_2 module: finite enhanced, infinite plain
        (2, (2, 0), F, I),
        # larger GL_2 modules are infinite both ways
        (2, (3, 0), I, I),
        (2, (4, 0), I, I),
        # everything else at n > 2 is infinite
        (3, (2, 0, 0), I, I),
        (4, (1, 1, 0, 0), I, I),
        # small cases
        (1, (3,), F, F),
        (2, (1, 0), F, F),
        (2, (0, 0), F, F),
    ]
    ok = True
    for n, weight, enh, gl in cases:
        w = WeightSpec(n, weight)
        if decide_enhanced(w) is not enh or decide_gl_variety(w) is not gl:
            ok = False
    report(8, "finiteness decision table", ok, f"{len(cases)} golden rows")


def test_criterion_9_sheaf_combinatorics():
    ok = all(semismall_check(n) for n in range(1, 11))
    for n in range(1, 8):
        if fiber_dim(Partition((n,))) != 0:
            ok = False
        if cohomology_total_dim(Partition((1,) * n)) != __import__(
            "math"
        ).factorial(n):
            ok = False
        if cohomology_total_dim(Partition((n,))) != 1:
            ok = False
    for n in range(1, 9):
        for lq in enhanced_partitions_of(n):
            a1 = lq.lam.part(1)
            lt = list(lq.lam.transpose().parts)
            lt += [0] * (a1 - len(lt))
            if sorted(flag_blocks(lq)) != sorted(lt):
                ok = False
    report(9, "semismallness and flag combinatorics", ok)

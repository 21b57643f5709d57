"""Tests of the benchmark's reference computations, and a reduced-size run
of each workload, plain and traced.

    PYTHONPATH=src python -m pytest bench
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import loads
import refs
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "classify": loads.Classify(ns=(2, 3), gl2_moves=1, min_rounds=2),
    "poset": loads.Poset(hasse_ns=(3, 4), orbits_ns=(4,), orbits_repeat=1, min_rounds=2),
    "census": loads.Census(censuses=((2, 2, 1), (2, 3, 1)), oracle_n=2, min_rounds=2),
}


# --- reference values ------------------------------------------------------


@pytest.mark.parametrize("n,count", [(2, 4), (3, 7), (4, 12), (10, 139)])
def test_label_count(n, count):
    assert refs.label_count(n) == count == len(refs.labels(n))


@pytest.mark.parametrize("p", [2, 3])
def test_fine_herstein_count_matches_enumeration(p):
    assert refs.brute_nilpotent_count(2, p) == refs.nilpotent_count(2, p) == p ** 2


def test_gl_order():
    assert [refs.gl_order(2, 2), refs.gl_order(2, 3), refs.gl_order(3, 2)] == [6, 48, 168]


def test_enhanced_numbers_by_hand():
    # (J_{2,1}, e_3): w + X v has height 1, and one more vector (e_2)
    # brings in the whole 2-block
    assert refs.enhanced_numbers(((2, 1), 1)) == (1, 3, 3, 3)
    assert refs.enhanced_numbers(((3,), 0)) == (3, 3, 3, 3)
    assert refs.enhanced_numbers(((1, 1, 1), 3)) == (0, 1, 2, 3)


def test_order_and_dimensions_at_n2_by_hand():
    # the four labels of n = 2 form a chain, dimensions 4 > 3 > 2 > 0
    chain = [((2,), 0), ((2,), 1), ((1, 1), 0), ((1, 1), 2)]
    assert [refs.orbit_dim(label) for label in chain] == [4, 3, 2, 0]
    for i, up in enumerate(chain):
        for j, lo in enumerate(chain):
            assert refs.order_leq(lo, up) == (j >= i)


def _dot(edges):
    lines = ["digraph hasse {"]
    for label in refs.labels(2):
        text = refs.label_text(label)
        lines.append(f'  "{text}" [label="{text}\\ndim {refs.orbit_dim(label)}"];')
    lines += [f'  "{up}" -> "{lo}";' for up, lo in edges]
    return "\n".join(lines + ["}"]) + "\n"


def test_hasse_check_accepts_exactly_the_covers():
    covers = [("2[0]", "2[1]"), ("2[1]", "1,1[0]"), ("1,1[0]", "1,1[2]")]
    assert loads.check_hasse(2, _dot(covers))
    assert not loads.check_hasse(2, _dot(covers[:-1]))  # closure too small
    assert not loads.check_hasse(2, _dot(covers + [("2[0]", "1,1[0]")]))  # not a cover
    assert not loads.check_hasse(2, _dot(covers + [("1,1[2]", "2[0]")]))  # not in the order


# --- input generators --------------------------------------------------------


def test_jordan_pair_by_hand():
    assert refs.jordan_pair(((2, 1), 0)) == ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [0, 1, 0])
    assert refs.jordan_pair(((2, 1), 1)) == ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [0, 0, 1])
    assert refs.jordan_pair(((2, 1), 2)) == ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [0, 0, 0])


def test_shear_product_inverse():
    rng = random.Random(5)
    for p in (None, 2, 3):
        g, g_inv = refs.shear_product(4, refs.shears(rng, 4, 8), p)
        prod = refs.matmul(g, g_inv)
        if p is not None:
            prod = [[e % p for e in row] for row in prod]
        assert prod == refs.identity(4)


def _label_n2(x, w, p=None):
    """The label of a nilpotent 2 x 2 pair, by hand: X = 0 gives 1,1 with
    q = 0 when w != 0; X != 0 gives 2 with q = 1 when w lies on im X."""
    red = (lambda e: e % p) if p else (lambda e: e)
    x = [[red(e) for e in row] for row in x]
    w = [red(e) for e in w]
    if x == [[0, 0], [0, 0]]:
        return ((1, 1), 0 if any(w) else 2)
    col = [x[0][0], x[1][0]] if any((x[0][0], x[1][0])) else [x[0][1], x[1][1]]
    on_image = red(col[0] * w[1] - col[1] * w[0]) == 0
    return ((2,), 1 if on_image else 0)


@pytest.mark.parametrize("p", [None, 2, 3])
def test_moved_pairs_keep_their_label_at_n2(p):
    rng = random.Random(11)
    for _ in range(25):
        for label in refs.labels(2):
            x, w = refs.moved_pair(label, rng, p)
            square = refs.matmul(x, x)
            assert all((e % p if p else e) == 0 for row in square for e in row)
            assert _label_n2(x, w, p) == label


def _gl2_label_by_hand(x, w):
    """O1..O3 by the rank of the Gram matrix when x = 0; otherwise x has a
    kernel vector k, the image of the derivation is the forms divisible by
    k_1 x + k_2 y, and w is in it exactly when w(-k_2, k_1) = 0."""
    c0, c1, c2 = w
    if all(e == 0 for row in x for e in row):
        if (c0, c1, c2) == (0, 0, 0):
            return "O1"
        return "O2" if 4 * c0 * c2 - c1 * c1 == 0 else "O3"
    (a, b), (c, d) = x
    k = (-b, a) if (a, b) != (0, 0) else (-d, c)
    return "O4" if c0 * k[1] ** 2 - c1 * k[0] * k[1] + c2 * k[0] ** 2 == 0 else "O5"


def test_moved_gl2_keeps_its_label():
    rng = random.Random(13)
    for _ in range(25):
        for label in refs.GL2_REPRESENTATIVES:
            x, w = refs.moved_gl2(label, rng)
            (a, b), (c, d) = x
            assert a + d == 0 and a * d - b * c == 0  # nilpotent
            assert all(isinstance(e, (int, Fraction)) for e in w)
            assert _gl2_label_by_hand(x, w) == label


# --- reduced-size runs -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run(name):
    result, record = run.measure(SMALL[name], seed=3, seconds=0, trace=0, setup_reps=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == record["rounds"] * record["ops_per_round"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


IDLE = {
    "classify": ("partitions.enhanced_leq_calls", "census.pack_state_calls"),
    "poset": ("linalg.rank_calls", "linalg.kernel_basis_calls", "linalg.solve_calls",
              "linalg.jordan_basis_calls", "linalg.centralizer_basis_calls",
              "linalg.matmul_calls", "linalg.eliminated_cells", "census.pack_state_calls"),
    "census": ("partitions.enhanced_leq_calls",),
}
BUSY = {
    "classify": ("linalg.rank_calls", "linalg.centralizer_basis_calls", "orbits.classify_ms",
                 "gl2.classify_gl2_ms"),
    "poset": ("partitions.enhanced_leq_calls", "partitions.self_ms_per_op", "cli.self_ms_per_op"),
    "census": ("census.pack_state_calls", "census.oracle_rank_calls", "census.label_ms"),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_smoke_run(name):
    import enorbits.linalg
    import enorbits.orbits

    counts = []
    for seed in (3, 4):
        result, _ = run.measure(SMALL[name], seed=seed, seconds=0, trace=1, setup_reps=1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert result["correct"] and result["failed"] == 0
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert all(metrics[k] == 0 for k in IDLE[name])
        assert all(metrics[k] > 0 for k in BUSY[name])
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_ms") and "_ms_" not in k})
    assert counts[0] == counts[1]
    # the tracer put every original back
    assert enorbits.orbits.rank is enorbits.linalg.rank
    assert enorbits.linalg.rank.__module__ == "enorbits.linalg"
    assert enorbits.linalg.ExactMatrix.__matmul__.__qualname__ == "ExactMatrix.__matmul__"


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poset", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

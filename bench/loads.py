"""The benchmark's workloads: seeded inputs, the ops that run them, and the
checks of every op's output against ``refs``.

A workload makes its inputs in two steps.  ``inputs(rng)`` turns the seed
into plain Python data (ints, Fractions, tuples) without touching
enorbits; ``build(eo, item)`` turns one item into an ``Op`` whose ``call``
runs enorbits on program objects built beforehand, and whose ``check``
compares the output with the benchmark's own computation.  ``build`` is
part of the timed set-up; ``call`` is the timed op.  A ``call`` looks the
enorbits function up in its module when it runs, so that a traced run
reaches it through the tracer's wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import io
import re
from dataclasses import dataclass
from typing import Any, Callable

import refs


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _label_of(lq):
    return (tuple(lq.lam.parts), lq.q)


# --- classify ------------------------------------------------------------


@dataclass(frozen=True)
class Classify:
    """Every label of each n in ``ns``, each as one element moved by seeded
    shears and a translation, classified by ``classify`` and by
    ``classify_invariant``; plus ``gl2_moves`` seeded moves of each of the
    five GL_2 representatives, classified by ``classify_gl2``."""

    ns: tuple = (5, 6, 7)
    gl2_moves: int = 2
    # 2 rounds are >= 208 ops, >= 10 of them beyond p95
    tail_pct: int = 95
    min_rounds: int = 2

    def inputs(self, rng):
        items = []
        for n in self.ns:
            for label in refs.labels(n):
                x, w = refs.moved_pair(label, rng)
                items.append(("classify", label, x, w))
        for label in refs.GL2_REPRESENTATIVES:
            for _ in range(self.gl2_moves):
                x, w = refs.moved_gl2(label, rng)
                items.append(("classify_gl2", label, x, w))
        return items

    def build(self, eo, item):
        kind, label, x, w = item
        if kind == "classify":
            e = eo.orbits.EnhancedElement(eo.linalg.ExactMatrix(eo.linalg.QQ, x), tuple(w))
            orbits = eo.orbits
            return Op(
                kind,
                lambda: (orbits.classify(e), orbits.classify_invariant(e)),
                lambda out: _label_of(out[0]) == label == _label_of(out[1]),
            )
        xm = eo.linalg.ExactMatrix(eo.linalg.QQ, x)
        wq = eo.gl2.QuadraticVector(*w)
        gl2 = eo.gl2
        return Op(kind, lambda: gl2.classify_gl2(xm, wq), lambda out: out.label == label)


# --- poset ---------------------------------------------------------------


def run_cli(cli, args):
    """``enorbits <args>`` in this process; returns what it printed."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main.main(args=list(args), prog_name="enorbits", standalone_mode=False)
    except SystemExit as exc:  # the CLI exits 1 or 2 on errors
        raise RuntimeError(f"enorbits {' '.join(args)} exited {exc.code}") from None
    return buf.getvalue()


def _parse_label(text):
    m = re.fullmatch(r"([0-9,]+)\[(\d+)\]", text)
    return (tuple(int(a) for a in m.group(1).split(",")), int(m.group(2)))


class OrderRef:
    """The closure order on the labels of n, as bitmasks of strict down-sets
    and strict up-sets, from ``refs.order_leq``."""

    def __init__(self, n):
        self.labels = refs.labels(n)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.down = [0] * len(self.labels)
        self.up = [0] * len(self.labels)
        for i, lo in enumerate(self.labels):
            for j, hi in enumerate(self.labels):
                if i != j and refs.order_leq(lo, hi):
                    self.down[j] |= 1 << i
                    self.up[i] |= 1 << j


@functools.cache
def _order(n):
    return OrderRef(n)


_NODE = re.compile(r'\s*"([^"]+)" \[label="([^"\\]+)\\ndim (\d+)"\];')
_EDGE = re.compile(r'\s*"([^"]+)" -> "([^"]+)";')


def check_hasse(n, text):
    """The DOT output has one node per label with its orbit dimension, and
    its edges are exactly the covers of the reference order."""
    ref = _order(n)
    lines = text.splitlines()
    if not lines or lines[0] != "digraph hasse {" or lines[-1] != "}":
        return False
    nodes, edges = {}, []
    for line in lines[1:-1]:
        node, edge = _NODE.fullmatch(line), _EDGE.fullmatch(line)
        if node and node.group(1) == node.group(2):
            nodes[_parse_label(node.group(1))] = int(node.group(3))
        elif edge:
            edges.append((_parse_label(edge.group(1)), _parse_label(edge.group(2))))
        else:
            return False
    if len(nodes) != len(ref.labels) or set(nodes) != set(ref.labels):
        return False
    if any(nodes[label] != refs.orbit_dim(label) for label in ref.labels):
        return False
    below = [[] for _ in ref.labels]
    for hi, lo in edges:
        i, j = ref.index[lo], ref.index[hi]
        if not ref.down[j] >> i & 1:
            return False  # the edge is not in the order
        if ref.down[j] & ref.up[i]:
            return False  # some label lies strictly between its ends
        if not refs.orbit_dim(lo) < refs.orbit_dim(hi):
            return False
        below[j].append(i)
    # the transitive closure of the edges must be the whole strict order;
    # orbit dimension strictly drops along edges, so ascending dimension
    # is a topological order
    reach = [0] * len(ref.labels)
    for j in sorted(range(len(ref.labels)), key=lambda j: refs.orbit_dim(ref.labels[j])):
        for i in below[j]:
            reach[j] |= (1 << i) | reach[i]
    return reach == ref.down


def check_orbits(n, text):
    """The table has one row per label; its dimension columns follow
    ``n^2 - sum (lam^t_i)^2`` and that plus ``n - q``."""
    lines = text.splitlines()
    if not lines or lines[0].split()[:3] != ["type", "dim_orbit", "dim_enhanced"]:
        return False
    rows = {}
    for line in lines[1:]:
        cols = line.split()
        label = _parse_label(cols[0])
        rows[label] = (int(cols[1]), int(cols[2]))
    expected = refs.labels(n)
    if len(rows) != len(lines) - 1 or set(rows) != set(expected):
        return False
    return all(
        rows[label] == (refs.nilpotent_orbit_dim(label[0]), refs.orbit_dim(label))
        for label in expected
    )


@dataclass(frozen=True)
class Poset:
    """``enorbits hasse --n N`` for each N in ``hasse_ns`` and ``enorbits
    orbits --n N`` ``orbits_repeat`` times for each N in ``orbits_ns``, run
    in-process through the CLI entry point."""

    hasse_ns: tuple = (7, 8, 9, 10)
    orbits_ns: tuple = (10, 11, 12)
    orbits_repeat: int = 2
    # 7 rounds are >= 70 ops, >= 10 of them beyond p85, which falls among
    # the hasse --n 9 ops, clear of the jump to hasse --n 10
    tail_pct: int = 85
    min_rounds: int = 7

    def inputs(self, rng):
        items = [("hasse", n) for n in self.hasse_ns]
        items += [("orbits", n) for n in self.orbits_ns] * self.orbits_repeat
        return items

    def build(self, eo, item):
        kind, n = item
        args = (kind, "--n", str(n))
        check = check_hasse if kind == "hasse" else check_orbits
        cli = eo.cli
        return Op(kind, lambda: run_cli(cli, args), lambda out: check(n, out))


# --- census --------------------------------------------------------------


def check_census(n, p, report):
    count = refs.label_count(n)
    group = refs.gl_order(n, p) * p ** n
    types = [_label_of(o.type) for o in report.orbits]
    return (
        report.orbit_count == count == len(report.orbits)
        and sorted(types) == sorted(refs.labels(n))
        and sum(o.size for o in report.orbits) == refs.nilpotent_count(n, p) * p ** n
        and all(o.size * o.stabilizer_order == group for o in report.orbits)
        and report.count_matches is True
        and report.classification_consistent is True
    )


@dataclass(frozen=True)
class Census:
    """``orbit_census(n, p)`` for each ``(n, p, repeat)`` in ``censuses``,
    and ``enhanced_number_oracle(e, k)`` for k = 0..n on one seeded pair
    over F_2 of each label of ``oracle_n``."""

    censuses: tuple = ((3, 2, 4), (2, 3, 4), (3, 3, 1))
    oracle_n: int = 3
    # 6 rounds are >= 222 ops, >= 10 of them beyond p95, which falls among
    # the orbit_census(3, 2) ops
    tail_pct: int = 95
    min_rounds: int = 6

    def inputs(self, rng):
        items = [("orbit_census", (n, p)) for n, p, repeat in self.censuses for _ in range(repeat)]
        for label in refs.labels(self.oracle_n):
            x, w = refs.moved_pair(label, rng, p=2)
            for k in range(self.oracle_n + 1):
                items.append(("oracle", (label, k, x, w)))
        return items

    def build(self, eo, item):
        kind, data = item
        if kind == "orbit_census":
            n, p = data
            census = eo.census
            return Op(kind, lambda: census.orbit_census(n, p), lambda out: check_census(n, p, out))
        label, k, x, w = data
        e = eo.orbits.EnhancedElement(eo.linalg.ExactMatrix(eo.linalg.GF(2), x), tuple(w))
        census = eo.census
        expected = refs.enhanced_numbers(label)[k]
        return Op(kind, lambda: census.enhanced_number_oracle(e, k), lambda out: out == expected)


WORKLOADS = {"classify": Classify(), "poset": Poset(), "census": Census()}

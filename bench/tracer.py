"""Spans and call counts around enorbits' public functions, taken from outside.

``Tracer.install`` rebinds each listed function in every ``enorbits``
module namespace that holds it, so calls between modules and inside a
module are caught alike; it also wraps the ``ExactMatrix`` products and
the CLI entry point.  Each call is a span with its parent span.  The
tracer keeps per-function call counts and inclusive times, per-layer self
times (a span's duration minus the time its wrapped children cover), and
the calls and time along each parent -> child edge of the call graph.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# The public functions of each layer, as named in its module.
LAYERS = {
    "linalg": (
        "rank", "rank_of_vectors", "kernel_basis", "solve", "is_nilpotent",
        "jordan_type", "jordan_basis", "jordan_matrix", "centralizer_basis",
        "enhanced_centralizer_dim",
    ),
    "orbits": (
        "classify", "classify_invariant", "canonical_representative",
        "closure_contains", "closure_contains_element", "describe",
        "flag_dims", "flag_blocks",
    ),
    "gl2": (
        "classify_gl2", "sym2_matrix_action", "enhanced_adjoint", "gl2_dims",
        "gl2_closure_poset", "gl2_contains",
    ),
    "partitions": (
        "enhanced_leq", "enhanced_number", "enhanced_number_vector",
        "dominance_leq", "allowed_q", "lower", "lowerings", "build_poset",
        "partitions_of", "enhanced_partitions_of", "parse_enhanced",
        "dim_orbit", "dim_enhanced_orbit", "bipartition_of", "fiber_dim",
        "cohomology_total_dim",
    ),
    "census": (
        "orbit_census", "pack_state", "unpack_state", "enhanced_number_oracle",
        "gl_order",
    ),
}
# ExactMatrix methods timed as linalg; __matmul__ is the counted product.
MATRIX_METHODS = ("__matmul__", "apply", "power", "inverse")
ELIMINATING = ("rank", "rank_of_vectors", "kernel_basis", "solve")
RANKS = ("linalg.rank", "linalg.rank_of_vectors")


class Tracer:
    def __init__(self):
        self.calls = Counter()      # "layer.function" -> calls
        self.seconds = Counter()    # "layer.function" -> inclusive seconds
        self.self_seconds = Counter()  # layer -> self seconds
        self.edges = Counter()      # (parent, child) -> calls
        self.edge_seconds = Counter()  # (parent, child) -> seconds
        self.cells = 0              # rows x cols handed to ELIMINATING
        self.label_seconds = 0.0    # outermost linalg spans under orbit_census
        self.oracle_ranks = 0       # rank calls under enhanced_number_oracle
        self._stack = []            # open spans: [name, layer, child seconds]
        self._open = Counter()      # open spans per name and per layer
        self._restore = []

    def wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        stack, open_, clock = self._stack, self._open, time.perf_counter
        eliminating = layer == "linalg" and name in ELIMINATING
        is_rank = qual in RANKS

        def traced(*args, **kwargs):
            if eliminating:
                if name == "rank_of_vectors":
                    vectors = list(args[1])
                    args = (args[0], vectors)
                    self.cells += len(vectors) * len(vectors[0]) if vectors else 0
                else:
                    self.cells += args[0].rows * args[0].cols
            if is_rank and open_["census.enhanced_number_oracle"]:
                self.oracle_ranks += 1
            frame = [qual, layer, 0.0]
            stack.append(frame)
            open_[qual] += 1
            open_[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                open_[qual] -= 1
                open_[layer] -= 1
                parent = stack[-1] if stack else None
                self.calls[qual] += 1
                self.seconds[qual] += spent
                self.self_seconds[layer] += spent - frame[2]
                edge = (parent[0] if parent else "op", qual)
                self.edges[edge] += 1
                self.edge_seconds[edge] += spent
                if parent:
                    parent[2] += spent
                if layer == "linalg" and not open_["linalg"] and open_["census.orbit_census"]:
                    self.label_seconds += spent

        return traced

    def install(self, eo):
        """Wrap the layers of the imported package ``eo`` (see run.py)."""
        wrapped = {}
        for layer, names in LAYERS.items():
            module = getattr(eo, layer)
            for name in names:
                fn = getattr(module, name)
                wrapped[id(fn)] = (fn, self.wrap(layer, name, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "enorbits" and not module_name.startswith("enorbits."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        matrix = eo.linalg.ExactMatrix
        for name in MATRIX_METHODS:
            original = matrix.__dict__[name]
            setattr(matrix, name, self.wrap("linalg", name, original))
            self._restore.append((matrix, name, original))
        group = eo.cli.main
        group.main = self.wrap("cli", "main", group.main)
        self._restore.append((group, "main", None))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def counts(self):
        """Exact counts, keyed by per-layer metric name."""
        c = self.calls
        return {
            "linalg.rank_calls": c["linalg.rank"] + c["linalg.rank_of_vectors"],
            "linalg.kernel_basis_calls": c["linalg.kernel_basis"],
            "linalg.solve_calls": c["linalg.solve"],
            "linalg.jordan_basis_calls": c["linalg.jordan_basis"],
            "linalg.centralizer_basis_calls": c["linalg.centralizer_basis"],
            "linalg.matmul_calls": c["linalg.__matmul__"],
            "linalg.eliminated_cells": self.cells,
            "partitions.enhanced_leq_calls": c["partitions.enhanced_leq"],
            "partitions.enhanced_number_calls": c["partitions.enhanced_number"],
            "census.pack_state_calls": c["census.pack_state"],
            "census.unpack_state_calls": c["census.unpack_state"],
            "census.oracle_rank_calls": self.oracle_ranks,
        }

    def times(self):
        """Seconds, keyed by per-layer metric name (divided per op by run.py)."""
        s, own = self.seconds, self.self_seconds
        return {
            "linalg.self_ms_per_op": own["linalg"],
            "orbits.classify_ms": s["orbits.classify"],
            "orbits.classify_invariant_ms": s["orbits.classify_invariant"],
            "orbits.self_ms_per_op": own["orbits"],
            "gl2.classify_gl2_ms": s["gl2.classify_gl2"],
            "partitions.self_ms_per_op": own["partitions"],
            "census.orbit_census_ms": s["census.orbit_census"],
            "census.label_ms": self.label_seconds,
            "census.self_ms_per_op": own["census"],
            "census.oracle_ms": s["census.enhanced_number_oracle"],
            "cli.self_ms_per_op": own["cli"],
        }

    def call_graph(self):
        return [
            {"parent": parent, "child": child, "calls": calls,
             "seconds": self.edge_seconds[(parent, child)]}
            for (parent, child), calls in sorted(self.edges.items())
        ]

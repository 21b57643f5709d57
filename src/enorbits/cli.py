"""Command-line surface.

Every subcommand validates its input before computing, emits deterministic
line-oriented output, and maps errors to exit codes: 0 on success, 2 on
bad input, 1 on an internal consistency failure.
"""

from __future__ import annotations

import functools
import itertools
import sys

import click

from . import census as census_mod
from . import finiteness as fin_mod
from . import gl2 as gl2_mod
from .errors import EnorbitsError, OutOfRange, ParseError
from .linalg import ExactMatrix, GF, load_matrix, load_vector
from .orbits import (
    EnhancedElement,
    classify,
    classify_invariant,
    closure_contains,
    describe,
    flag_blocks,
    flag_dims,
)
from .partitions import (
    MAX_HASSE_N,
    MAX_ORBITS_N,
    build_poset,
    dim_enhanced_orbit,
    enhanced_number,
    enhanced_partitions_of,
    parse_enhanced,
)


def _echo(message="", err=False):
    """``click.echo`` to the current stdout or stderr.

    Passing the stream explicitly keeps click from caching it: its cache
    maps each stream to itself in a WeakKeyDictionary, so a redirected
    stdout (a ``StringIO`` under ``redirect_stdout``) would never be freed.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _guarded(fn):
    """Input errors exit 2; anything unexpected exits 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EnorbitsError as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)
        except click.exceptions.Exit:
            raise
        except Exception as exc:  # internal assertion failure
            _echo(f"internal error: {exc}", err=True)
            sys.exit(1)

    return wrapper


DESCRIPTOR_COLUMNS = (
    "type",
    "dim_orbit",
    "dim_enhanced",
    "fiber_dim",
    "cohomology_dim",
    "bipartition",
    "enhanced_numbers",
    "flag_blocks",
)


def _descriptor_row(d):
    return (
        str(d.type),
        str(d.dim_orbit),
        str(d.dim_enhanced),
        str(d.fiber_dim),
        str(d.cohomology_dim),
        str(d.bipartition),
        ",".join(map(str, d.enhanced_numbers)),
        ",".join(map(str, d.flag_block_sizes)),
    )


def _print_table(header, rows):
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    _echo("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        _echo("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _load_element(matrix_path, vector_path) -> EnhancedElement:
    x = load_matrix(matrix_path)
    w, wf = load_vector(vector_path)
    if wf != x.field:
        raise ParseError("matrix and vector files use different fields")
    return EnhancedElement(x, w)


@click.group()
def main():
    """Enhanced nilpotent orbits of GL_n: classification and invariants."""


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option(
    "--format", "fmt", type=click.Choice(["table", "records"]), default="table"
)
@_guarded
def orbits(n, fmt):
    """List every orbit label of size n with its descriptor."""
    if n < 1 or n > MAX_ORBITS_N:
        raise OutOfRange(f"n must be in [1, {MAX_ORBITS_N}], got {n}")
    descriptors = [describe(lq) for lq in enhanced_partitions_of(n)]
    if fmt == "records":
        for i, d in enumerate(descriptors):
            if i:
                _echo()
            for line in d.record_lines():
                _echo(line)
    else:
        _print_table(DESCRIPTOR_COLUMNS, [_descriptor_row(d) for d in descriptors])


@main.command()
@click.option("--n", "n", type=int, required=True)
@_guarded
def hasse(n):
    """Hasse diagram of the closure order as a DOT digraph."""
    if n < 1 or n > MAX_HASSE_N:
        raise OutOfRange(f"n must be in [1, {MAX_HASSE_N}], got {n}")
    poset = build_poset(n)
    _echo("digraph hasse {")
    for lq in poset.elements:
        _echo(f'  "{lq}" [label="{lq}\\ndim {dim_enhanced_orbit(lq)}"];')
    for up, lo in poset.covers:
        _echo(f'  "{up}" -> "{lo}";')
    _echo("}")


@main.command("classify")
@click.option("--matrix", "matrix_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--vector", "vector_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--check", is_flag=True,
              help="cross-check with the basis-free classifier")
@_guarded
def classify_cmd(matrix_path, vector_path, check):
    """Classify an element (X, w) and print its orbit descriptor."""
    e = _load_element(matrix_path, vector_path)
    lq = classify(e)
    if check:
        other = classify_invariant(e)
        if other != lq:
            _echo(
                f"internal error: classifiers disagree: {lq} vs {other}",
                err=True,
            )
            sys.exit(1)
    for line in describe(lq).record_lines():
        _echo(line)


@main.command("closure-test")
@click.option("--upper", "upper_text", required=True)
@click.option("--lower", "lower_text", default=None)
@click.option("--matrix", "matrix_path", default=None,
              type=click.Path(dir_okay=False))
@click.option("--vector", "vector_path", default=None,
              type=click.Path(dir_okay=False))
@_guarded
def closure_test(upper_text, lower_text, matrix_path, vector_path):
    """Test whether the closure of --upper contains an orbit or an element.

    The candidate is either a label (--lower) or a concrete element
    (--matrix and --vector), which is classified first.
    """
    upper = parse_enhanced(upper_text)
    if lower_text is not None:
        lower_lq = parse_enhanced(lower_text)
    elif matrix_path is not None and vector_path is not None:
        lower_lq = classify(_load_element(matrix_path, vector_path))
    else:
        raise ParseError("give either --lower or both --matrix and --vector")
    result = closure_contains(upper, lower_lq)
    _echo(f"upper: {upper}")
    _echo(f"lower: {lower_lq}")
    _echo(f"contains: {'true' if result else 'false'}")


@main.command()
@click.argument("label")
@_guarded
def flag(label):
    """Dimension data of the canonical partial flag of an orbit label."""
    lq = parse_enhanced(label)
    _echo(f"type: {lq}")
    _echo(f"flag_dims: {','.join(map(str, flag_dims(lq)))}")
    _echo(f"flag_blocks: {','.join(map(str, flag_blocks(lq)))}")


@main.group()
def gl2():
    """The exceptional GL_2 case on binary quadratic forms."""


@gl2.command("classify")
@click.option("--matrix", "matrix_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--w", "w_text", required=True,
              help="quadratic vector as three rationals c0,c1,c2")
@_guarded
def gl2_classify(matrix_path, w_text):
    """Classify a pair (2x2 nilpotent, quadratic form) into O1..O5."""
    x = load_matrix(matrix_path)
    w = gl2_mod.QuadraticVector.parse(w_text)
    orbit = gl2_mod.classify_gl2(x, w)
    _echo(orbit.label)
    _echo(f"dim: {orbit.dim}")
    _echo(f"centralizer_dim: {orbit.centralizer_dim}")


@gl2.command("dims")
@_guarded
def gl2_dims_cmd():
    """Orbit dimensions re-derived from exact centralizer kernels."""
    rows = [
        (o.label, str(o.dim), str(o.centralizer_dim)) for o in gl2_mod.gl2_dims()
    ]
    _print_table(("label", "dim", "centralizer_dim"), rows)


@gl2.command("poset")
@_guarded
def gl2_poset_cmd():
    """Closure contents of each orbit."""
    poset = gl2_mod.gl2_closure_poset()
    for label in gl2_mod.LABELS:
        inside = ",".join(sorted(poset[label]))
        _echo(f"{label}: {inside}")


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--weight", "weight_text", required=True)
@click.option("--variety", type=click.Choice(["enhanced", "gl"]),
              default="enhanced")
@_guarded
def finiteness(n, weight_text, variety):
    """Decide orbit finiteness for the irreducible module of a weight."""
    try:
        weight = tuple(int(a) for a in weight_text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad weight {weight_text!r}") from exc
    spec = fin_mod.WeightSpec(n, weight)
    if variety == "enhanced":
        answer = fin_mod.decide_enhanced(spec)
    else:
        answer = fin_mod.decide_gl_variety(spec)
    _echo(str(answer))


@main.group()
def oracle():
    """Finite-field brute-force oracles."""


@oracle.command("census")
@click.option("--n", "n", type=int, required=True)
@click.option("--p", "p", type=int, required=True)
@click.option(
    "--format", "fmt", type=click.Choice(["table", "csv"]), default="table"
)
@_guarded
def oracle_census(n, p, fmt):
    """Enumerate all orbits over F_p and compare with the classification."""
    report = census_mod.orbit_census(n, p)
    _echo(f"{report.orbit_count} orbits")
    _echo(f"expected: {report.expected_count}")
    _echo(f"count_matches: {'true' if report.count_matches else 'false'}")
    _echo(
        "classification_consistent: "
        f"{'true' if report.classification_consistent else 'false'}"
    )
    rows = [
        (
            str(o.type),
            str(o.size),
            str(o.stabilizer_order),
            format(o.representative_key, "x"),
        )
        for o in report.orbits
    ]
    header = ("type", "orbit_size", "stabilizer_order", "representative")
    if fmt == "csv":
        _echo(",".join(header))
        for row in rows:
            _echo(",".join(row))
    else:
        _print_table(header, rows)
    if not (report.count_matches and report.classification_consistent):
        sys.exit(1)


@oracle.command("enhanced-numbers")
@click.option("--n", "n", type=int, required=True)
@click.option("--p", "p", type=int, default=2, show_default=True)
@_guarded
def oracle_enhanced_numbers(n, p):
    """Exhaustively check the invariant numbers against brute-force search."""
    if p != 2:
        raise OutOfRange("the exhaustive oracle runs over F_2 only")
    if n < 1 or n > 3:
        raise OutOfRange(f"n must be in [1, 3], got {n}")
    checked = 0
    agree = True
    for x in census_mod.enumerate_nilpotents(n, p):
        for w in itertools.product(range(2), repeat=n):
            e = EnhancedElement(ExactMatrix(GF(2), x), w)
            lq = classify(e)
            for k in range(n + 1):
                got = census_mod.enhanced_number_oracle(e, k)
                if got != enhanced_number(lq, k):
                    agree = False
                checked += 1
    _echo(f"checked: {checked}")
    _echo(f"agreement: {'true' if agree else 'false'}")
    if not agree:
        sys.exit(1)


if __name__ == "__main__":
    main()

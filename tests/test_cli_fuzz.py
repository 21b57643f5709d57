"""Generated input for every command that reads a label, a rational or a
matrix file: each run must exit 0 or 2, never 1, and finish quickly.

Labels reach ``parse_enhanced`` through ``flag`` and ``closure-test``;
matrix and vector files reach ``matrix_from_json`` through ``classify``
(which prints the orbit descriptor) and ``closure-test --matrix``; the
``--w`` of ``gl2 classify`` reaches ``parse_rational``.  Inputs mix
well-formed elements and labels, out-of-range sizes and primes, digit
strings past Python's 4300-digit limit, and arbitrary text and JSON.
"""

import json
import tempfile
import time
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from enorbits.cli import main
from enorbits.linalg import PRIME_BOUND
from enorbits.partitions import enhanced_partitions_of

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
SECONDS = 10  # per run; the slowest generated run takes well under 0.1 s

DIGITS = st.one_of(
    st.text("0123456789", min_size=1, max_size=8),
    st.text("0123456789", min_size=4290, max_size=4310),
)
RATIONAL_TEXT = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "+", "-"]), DIGITS),
    st.builds("{}/{}".format, DIGITS, DIGITS),
    st.sampled_from(["1e10000000", "0.5", "1/0", "nan", "", " 1", "1_000"]),
    st.text(max_size=12),
)
Q_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**60), 10**60),
    st.builds("{}/{}".format, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)
JUNK_ENTRY = st.one_of(
    RATIONAL_TEXT,
    st.integers(-(10**60), -1),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(0, 2), max_size=2),
)
PRIMES = st.sampled_from([2, 3, 5, 7, 2**61 - 1])
JUNK_PRIMES = st.sampled_from([4, 1, 0, -3, 2**89 - 1, PRIME_BOUND, True, "3", 2.0, None])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)
LABEL = st.integers(1, 8).flatmap(lambda n: st.sampled_from(enhanced_partitions_of(n)))
LABEL_TEXT = st.one_of(
    LABEL.map(str),
    st.builds("{}[{}]".format, st.lists(DIGITS, min_size=1, max_size=6).map(",".join), DIGITS),
    st.from_regex(r"\s*[0-9, ]{0,12}\[\s*[0-9]{0,4}\s*\]\s*", fullmatch=True),
    st.text(max_size=20),
)
# two labels of one n, so that the closure order is actually consulted
LABEL_PAIRS = st.integers(1, 8).map(enhanced_partitions_of).flatmap(
    lambda labels: st.tuples(st.sampled_from(labels), st.sampled_from(labels))
).map(lambda pair: tuple(map(str, pair)))


def damaged(draw, obj):
    """The text of a matrix object broken in one of several ways."""
    how = draw(st.sampled_from(["text", "json", "entry", "key", "ragged", "p", "field"]))
    if how == "text":
        return draw(st.text(max_size=40))
    if how == "json":
        return json.dumps(draw(JSON))
    obj = dict(obj, entries=[list(row) for row in obj["entries"]])
    entries = obj["entries"]
    if how == "entry":
        row = entries[draw(st.integers(0, len(entries) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(JUNK_ENTRY)
    elif how == "key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif how == "ragged":
        entries[-1].pop()
    elif how == "p":
        obj["p"] = draw(JUNK_PRIMES)
    else:
        obj["field"] = draw(st.sampled_from(["Q", "Fp", "R", None, 3]))
    return json.dumps(obj)


@st.composite
def element_documents(draw, n=None):
    """(matrix file, vector file) texts of an element over Q or F_p; the
    matrix is mostly strictly upper triangular, so nilpotent, and in half
    the draws one of the two files is damaged."""
    n = draw(st.integers(1, 4)) if n is None else n
    if draw(st.booleans()):
        field, entry = {"field": "Q"}, Q_ENTRY
    else:
        p = draw(PRIMES)
        field, entry = {"field": "Fp", "p": p}, st.integers(0, p - 1)
    upper = draw(st.integers(0, 3)) > 0
    x = [[draw(entry) if j > i or not upper else 0 for j in range(n)] for i in range(n)]
    w = [[draw(entry) for _ in range(n)]]
    docs = [dict(field, entries=x), dict(field, entries=w)]
    texts = [json.dumps(d) for d in docs]
    if draw(st.booleans()):
        which = draw(st.integers(0, 1))
        texts[which] = damaged(draw, docs[which])
    return tuple(texts)


def run(args, files=()):
    """Run ``enorbits args``; an int in args is the path of that file."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(files):
            path = Path(tmp) / f"input{i}.json"
            path.write_text(text)
            paths.append(str(path))
        args = [paths[a] if isinstance(a, int) else a for a in args]
        start = time.perf_counter()
        result = CliRunner().invoke(main, args)
        seconds = time.perf_counter() - start
    assert result.exit_code in (0, 2), (args, result.output, result.exception)
    assert seconds < SECONDS, args
    return result


@SETTINGS
@given(LABEL_TEXT)
def test_flag(label):
    run(["flag", label])


@SETTINGS
@given(st.one_of(LABEL_PAIRS, st.tuples(LABEL_TEXT, LABEL_TEXT)))
def test_closure_test_labels(labels):
    upper, lower = labels
    run(["closure-test", "--upper", upper, "--lower", lower])


@SETTINGS
@given(element_documents())
def test_classify_files(docs):
    run(["classify", "--matrix", 0, "--vector", 1, "--check"], docs)


@SETTINGS
@given(LABEL_TEXT, element_documents())
def test_closure_test_files(upper, docs):
    run(["closure-test", "--upper", upper, "--matrix", 0, "--vector", 1], docs)


@SETTINGS
@given(element_documents(n=2), st.one_of(
    st.lists(Q_ENTRY.map(str), min_size=3, max_size=3).map(",".join),
    st.lists(RATIONAL_TEXT, max_size=5).map(",".join),
))
def test_gl2_classify(docs, w):
    run(["gl2", "classify", "--matrix", 0, "--w", w], docs[:1])


def test_out_of_range_labels_exit_2():
    for label in ("1001[0]", "1[" + "9" * 5000 + "]", "9" * 5000 + "[0]"):
        assert run(["flag", label]).exit_code == 2
    assert run(["flag", "1000[1]"]).exit_code == 0

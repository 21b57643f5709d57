import contextlib
import gc
import io
import json
import time
import weakref

import pytest
from click.testing import CliRunner

from enorbits.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "j21": write(
            "j21.json",
            {"field": "Q", "entries": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
        ),
        "e3": write("e3.json", {"field": "Q", "entries": [[0, 0, 1]]}),
        "zero3": write(
            "zero3.json",
            {"field": "Q", "entries": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
        ),
        "zerovec3": write("zv3.json", {"field": "Q", "entries": [[0, 0, 0]]}),
        "e12": write("e12.json", {"field": "Q", "entries": [[0, 1], [0, 0]]}),
        "identity": write(
            "id.json", {"field": "Q", "entries": [[1, 0], [0, 1]]}
        ),
        "huge_p": write(
            "huge_p.json",
            {"field": "Fp", "p": 2**89 - 1, "entries": [[0, 1], [0, 0]]},
        ),
        "huge_p_vec": write(
            "huge_p_vec.json", {"field": "Fp", "p": 2**89 - 1, "entries": [[0, 1]]}
        ),
        "badjson": str(tmp_path / "missing.json"),
    }


class TestOrbits:
    def test_row_counts(self, runner):
        for n, rows in [(1, 2), (2, 4), (3, 7), (4, 12)]:
            result = runner.invoke(main, ["orbits", "--n", str(n)])
            assert result.exit_code == 0
            assert len(result.output.strip().splitlines()) == rows + 1

    def test_records_format(self, runner):
        result = runner.invoke(
            main, ["orbits", "--n", "2", "--format", "records"]
        )
        assert result.exit_code == 0
        assert "type: 2[0]" in result.output
        assert "dim_enhanced: 4" in result.output

    def test_out_of_range(self, runner):
        assert runner.invoke(main, ["orbits", "--n", "13"]).exit_code == 2
        assert runner.invoke(main, ["orbits", "--n", "0"]).exit_code == 2

    def test_deterministic(self, runner):
        a = runner.invoke(main, ["orbits", "--n", "4"]).output
        b = runner.invoke(main, ["orbits", "--n", "4"]).output
        assert a == b


class TestHasse:
    def test_n2_golden(self, runner):
        result = runner.invoke(main, ["hasse", "--n", "2"])
        assert result.exit_code == 0
        assert result.output == (
            "digraph hasse {\n"
            '  "2[0]" [label="2[0]\\ndim 4"];\n'
            '  "2[1]" [label="2[1]\\ndim 3"];\n'
            '  "1,1[0]" [label="1,1[0]\\ndim 2"];\n'
            '  "1,1[2]" [label="1,1[2]\\ndim 0"];\n'
            '  "2[0]" -> "2[1]";\n'
            '  "2[1]" -> "1,1[0]";\n'
            '  "1,1[0]" -> "1,1[2]";\n'
            "}\n"
        )

    def test_n1(self, runner):
        out = runner.invoke(main, ["hasse", "--n", "1"]).output
        assert out.count("[label=") == 2
        assert out.count("->") == 1

    def test_n4_node_count(self, runner):
        out = runner.invoke(main, ["hasse", "--n", "4"]).output
        assert out.count("[label=") == 12

    def test_out_of_range(self, runner):
        assert runner.invoke(main, ["hasse", "--n", "11"]).exit_code == 2


class TestClassify:
    def test_basic(self, runner, files):
        result = runner.invoke(
            main,
            ["classify", "--matrix", files["j21"], "--vector", files["e3"]],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "type: 2,1[1]"

    def test_check_flag(self, runner, files):
        result = runner.invoke(
            main,
            [
                "classify",
                "--matrix",
                files["j21"],
                "--vector",
                files["e3"],
                "--check",
            ],
        )
        assert result.exit_code == 0

    def test_zero_pair(self, runner, files):
        result = runner.invoke(
            main,
            [
                "classify",
                "--matrix",
                files["zero3"],
                "--vector",
                files["zerovec3"],
            ],
        )
        assert result.output.splitlines()[0] == "type: 1,1,1[3]"

    def test_not_nilpotent(self, runner, files):
        result = runner.invoke(
            main,
            [
                "classify",
                "--matrix",
                files["identity"],
                "--vector",
                files["e3"],
            ],
        )
        assert result.exit_code == 2
        assert "not nilpotent" in result.output

    def test_prime_beyond_bound(self, runner, files):
        result = runner.invoke(
            main,
            ["classify", "--matrix", files["huge_p"], "--vector", files["huge_p_vec"]],
        )
        assert result.exit_code == 2
        assert "must be below" in result.output

    def test_missing_file(self, runner, files):
        result = runner.invoke(
            main,
            ["classify", "--matrix", files["badjson"], "--vector", files["e3"]],
        )
        assert result.exit_code == 2

    def test_exponent_entry_exits_fast(self, runner, files, tmp_path):
        # Fraction("1e10000000") would build a ten-million-digit integer
        vec = tmp_path / "exp.json"
        vec.write_text(json.dumps({"field": "Q", "entries": [[0, "1e10000000"]]}))
        start = time.perf_counter()
        result = runner.invoke(
            main, ["classify", "--matrix", files["e12"], "--vector", str(vec)]
        )
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "bad rational" in result.output

    def test_oversized_integer_exits_2(self, runner, files, tmp_path):
        # beyond Python's 4300-digit limit for int/str conversion
        vec = tmp_path / "big.json"
        vec.write_text('{"field": "Q", "entries": [[0, ' + "7" * 4400 + "]]}")
        result = runner.invoke(
            main, ["classify", "--matrix", files["e12"], "--vector", str(vec)]
        )
        assert result.exit_code == 2
        assert "cannot read matrix file" in result.output


class TestClosureAndFlag:
    def test_label_pair(self, runner):
        result = runner.invoke(
            main, ["closure-test", "--upper", "2,1[0]", "--lower", "1,1,1[3]"]
        )
        assert result.exit_code == 0
        assert "contains: true" in result.output

    def test_element(self, runner, files):
        result = runner.invoke(
            main,
            [
                "closure-test",
                "--upper",
                "2,1[2]",
                "--matrix",
                files["j21"],
                "--vector",
                files["e3"],
            ],
        )
        assert "contains: false" in result.output

    def test_missing_candidate(self, runner):
        assert (
            runner.invoke(main, ["closure-test", "--upper", "2[0]"]).exit_code
            == 2
        )

    def test_flag(self, runner):
        result = runner.invoke(main, ["flag", "2,1[1]"])
        assert result.exit_code == 0
        assert "flag_dims: 2,3" in result.output
        assert "flag_blocks: 2,1" in result.output

    def test_flag_bad_label(self, runner):
        assert runner.invoke(main, ["flag", "2,2[1]"]).exit_code == 2
        # an Arabic-Indic one is a Unicode digit, not an ASCII marker
        assert runner.invoke(main, ["flag", "2,1[\u0661]"]).exit_code == 2


class TestGl2:
    def test_classify(self, runner, files):
        result = runner.invoke(
            main, ["gl2", "classify", "--matrix", files["e12"], "--w", "0,0,1"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "O5"

    def test_dims(self, runner):
        result = runner.invoke(main, ["gl2", "dims"])
        assert result.exit_code == 0
        assert "O4     4    3" in result.output

    def test_poset(self, runner):
        result = runner.invoke(main, ["gl2", "poset"])
        assert "O4: O1,O2,O3,O4" in result.output

    def test_bad_vector(self, runner, files):
        result = runner.invoke(
            main, ["gl2", "classify", "--matrix", files["e12"], "--w", "1,2"]
        )
        assert result.exit_code == 2

    def test_exponent_vector_exits_fast(self, runner, files):
        start = time.perf_counter()
        result = runner.invoke(
            main, ["gl2", "classify", "--matrix", files["e12"], "--w", "1e10000000,0,0"]
        )
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "bad rational" in result.output


class TestFiniteness:
    def test_examples(self, runner):
        cases = [
            (["finiteness", "--n", "3", "--weight", "1,0,0"], "Finite"),
            (["finiteness", "--n", "2", "--weight", "3,0"], "Infinite"),
            (
                ["finiteness", "--n", "2", "--weight", "2,0", "--variety", "gl"],
                "Infinite",
            ),
            (
                [
                    "finiteness",
                    "--n",
                    "2",
                    "--weight",
                    "2,0",
                    "--variety",
                    "enhanced",
                ],
                "Finite",
            ),
        ]
        for args, expected in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 0
            assert result.output.strip() == expected

    def test_not_dominant(self, runner):
        result = runner.invoke(main, ["finiteness", "--n", "2", "--weight", "0,1"])
        assert result.exit_code == 2


class TestOracle:
    def test_census_n2(self, runner):
        result = runner.invoke(main, ["oracle", "census", "--n", "2", "--p", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "4 orbits"
        assert "count_matches: true" in result.output

    def test_census_csv(self, runner):
        result = runner.invoke(
            main,
            ["oracle", "census", "--n", "2", "--p", "2", "--format", "csv"],
        )
        assert "type,orbit_size,stabilizer_order,representative" in result.output

    def test_census_deterministic(self, runner):
        args = ["oracle", "census", "--n", "2", "--p", "3", "--format", "csv"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_census_rejects(self, runner):
        assert (
            runner.invoke(
                main, ["oracle", "census", "--n", "4", "--p", "3"]
            ).exit_code
            == 2
        )

    def test_enhanced_numbers_n2(self, runner):
        result = runner.invoke(main, ["oracle", "enhanced-numbers", "--n", "2"])
        assert result.exit_code == 0
        assert "agreement: true" in result.output

    def test_enhanced_numbers_rejects_p3(self, runner):
        result = runner.invoke(
            main, ["oracle", "enhanced-numbers", "--n", "2", "--p", "3"]
        )
        assert result.exit_code == 2

    # printed by the tuple/dict union-find census and the
    # combinations_with_replacement oracle that preceded the packed ones
    def test_census_n3_p3_golden(self, runner):
        args = ["oracle", "census", "--n", "3", "--p", "3", "--format", "csv"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output == (
            "7 orbits\n"
            "expected: 7\n"
            "count_matches: true\n"
            "classification_consistent: true\n"
            "type,orbit_size,stabilizer_order,representative\n"
            "1,1,1[3],1,303264,0\n"
            "1,1,1[0],26,11664,1\n"
            "2,1[2],312,972,51\n"
            "2,1[0],1872,162,54\n"
            "2,1[1],624,486,5a\n"
            "3[1],5616,54,3cc\n"
            "3[0],11232,27,3d5\n"
        )

    def test_enhanced_numbers_n3_golden(self, runner):
        result = runner.invoke(main, ["oracle", "enhanced-numbers", "--n", "3"])
        assert result.exit_code == 0
        assert result.output == "checked: 2048\nagreement: true\n"


class TestInProcess:
    def test_redirected_stdout_is_released(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(["hasse", "--n", "2"], standalone_mode=False)
        assert buf.getvalue().startswith("digraph hasse {")
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None

import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from enorbits.errors import (
    NotInvertible,
    NotNilpotent,
    NotSquare,
    ParseError,
    SizeMismatch,
)
from enorbits.linalg import (
    ExactMatrix,
    GF,
    PRIME_BOUND,
    QQ,
    centralizer_basis,
    enhanced_centralizer_dim,
    is_nilpotent,
    jordan_basis,
    jordan_matrix,
    jordan_type,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    rank,
    rank_of_vectors,
    solve,
)
from enorbits.partitions import Partition, dim_orbit, partitions_of


def random_invertible(rng, field, n, bound=3):
    while True:
        m = ExactMatrix(
            field,
            [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)],
        )
        try:
            m.inverse()
            return m
        except NotInvertible:
            continue


class TestBasics:
    def test_rank(self):
        assert rank(ExactMatrix.identity(QQ, 3)) == 3
        assert rank(ExactMatrix.zeros(QQ, 3)) == 0
        assert rank(jordan_matrix(QQ, Partition((2, 1)))) == 1

    def test_rank_fractions(self):
        m = ExactMatrix(QQ, [[Fraction(1, 3), Fraction(2, 3)], [1, 2]])
        assert rank(m) == 1

    def test_rank_of_vectors(self):
        assert rank_of_vectors(QQ, []) == 0
        assert rank_of_vectors(QQ, [(1, 0), (0, 1), (1, 1)]) == 2

    def test_rank_of_vectors_reads_ints_mod_p(self):
        assert rank_of_vectors(GF(2), [(2, 0), (0, 2)]) == 0
        assert rank_of_vectors(GF(3), [(4, 1), (1, 1)]) == 1

    def test_kernel(self):
        assert kernel_basis(ExactMatrix.identity(QQ, 2)) == []
        assert len(kernel_basis(ExactMatrix.zeros(QQ, 3))) == 3
        j = jordan_matrix(QQ, Partition((2, 1)))
        ker = kernel_basis(j)
        assert len(ker) == 2
        for v in ker:
            assert all(c == 0 for c in j.apply(v))

    def test_solve(self):
        m = ExactMatrix(QQ, [[1, 2], [3, 4]])
        x = solve(m, (5, 6))
        assert m.apply(x) == (Fraction(5), Fraction(6))
        assert solve(ExactMatrix(QQ, [[1, 1], [1, 1]]), (0, 1)) is None

    def test_inverse(self):
        m = ExactMatrix(QQ, [[1, 2], [3, 4]])
        assert m @ m.inverse() == ExactMatrix.identity(QQ, 2)
        with pytest.raises(NotInvertible):
            ExactMatrix(QQ, [[1, 1], [1, 1]]).inverse()

    def test_power(self):
        m = ExactMatrix(QQ, [[1, 1], [0, 1]])
        assert m.power(0) == ExactMatrix.identity(QQ, 2)
        assert m.power(5).entries[0][1] == 5

    def test_shape_errors(self):
        rect = ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(NotSquare):
            rect.inverse()
        with pytest.raises(SizeMismatch):
            rect.apply((1, 2))

    def test_prime_field(self):
        f5 = GF(5)
        m = ExactMatrix(f5, [[2, 1], [1, 1]])
        assert (m @ m.inverse()) == ExactMatrix.identity(f5, 2)

    def test_primality_is_exact_on_small_p(self):
        primes = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
        accepted = []
        for p in range(-3, 2000):
            try:
                GF(p)
            except ValueError:
                continue
            accepted.append(p)
        assert accepted == primes

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert GF(2**61 - 1).p == 2**61 - 1
        assert time.perf_counter() - start < 0.5

    def test_large_composites_rejected(self):
        # 1073741827 * 2147483629 lies just below 2^61 - 1; the last is a
        # strong pseudoprime to the twelve prime bases 2..37
        for p in (2**61 + 1, 1073741827 * 2147483629, 318665857834031151167461):
            with pytest.raises(ValueError, match="not prime"):
                GF(p)

    def test_prime_bound(self):
        assert 2**89 - 1 > PRIME_BOUND
        with pytest.raises(ValueError, match="below"):
            GF(2**89 - 1)


class TestNilpotency:
    def test_examples(self):
        assert is_nilpotent(jordan_matrix(QQ, Partition((3,))))
        assert not is_nilpotent(ExactMatrix.identity(QQ, 2))
        upper = ExactMatrix(QQ, [[0, 5, -2], [0, 0, 7], [0, 0, 0]])
        assert is_nilpotent(upper)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            is_nilpotent(ExactMatrix(QQ, [[0, 1]]))


class TestJordan:
    def test_type_examples(self):
        assert jordan_type(ExactMatrix.zeros(QQ, 3)) == Partition((1, 1, 1))
        j = jordan_matrix(QQ, Partition((2, 1)))
        assert jordan_type(j) == Partition((2, 1))

    def test_type_rejects(self):
        with pytest.raises(NotNilpotent):
            jordan_type(ExactMatrix.identity(QQ, 2))

    def test_type_conjugation_invariant(self):
        rng = random.Random(20240818)
        for lam in [Partition((2, 1)), Partition((3, 1)), Partition((2, 2))]:
            j = jordan_matrix(QQ, lam)
            for _ in range(5):
                g = random_invertible(rng, QQ, lam.n)
                assert jordan_type((g @ j) @ g.inverse()) == lam

    def test_basis_invariants(self):
        rng = random.Random(20240819)
        for n in range(1, 6):
            for lam in partitions_of(n):
                j = jordan_matrix(QQ, lam)
                g = random_invertible(rng, QQ, n)
                x = (g @ j) @ g.inverse()
                jd = jordan_basis(x)
                assert jd.lam == lam
                for a, v in zip(lam.parts, jd.generators):
                    top = x.power(a - 1).apply(v)
                    assert any(c != 0 for c in top)
                    assert all(c == 0 for c in x.apply(top))
                conj = (jd.change_of_basis.inverse() @ x) @ jd.change_of_basis
                assert conj == jordan_matrix(QQ, lam)

    def test_basis_over_prime_field(self):
        f2 = GF(2)
        x = ExactMatrix(f2, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        jd = jordan_basis(x)
        assert jd.lam == Partition((3,))
        conj = (jd.change_of_basis.inverse() @ x) @ jd.change_of_basis
        assert conj == jordan_matrix(f2, Partition((3,)))


class TestCentralizer:
    def test_sizes(self):
        assert len(centralizer_basis(ExactMatrix.zeros(QQ, 2))) == 4
        assert len(centralizer_basis(jordan_matrix(QQ, Partition((2,))))) == 2
        assert len(centralizer_basis(jordan_matrix(QQ, Partition((2, 1))))) == 5

    def test_dimension_formula(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                j = jordan_matrix(QQ, lam)
                cdim = len(centralizer_basis(j))
                assert cdim == sum(c * c for c in lam.transpose().parts)
                assert n * n - cdim == dim_orbit(lam)

    def test_elements_commute(self):
        j = jordan_matrix(QQ, Partition((3, 1)))
        for y in centralizer_basis(j):
            assert (y @ j) == (j @ y)

    def test_enhanced_dim_examples(self):
        z3 = ExactMatrix.zeros(QQ, 3)
        assert enhanced_centralizer_dim(z3, (0, 0, 0)) == 12
        j21 = jordan_matrix(QQ, Partition((2, 1)))
        assert enhanced_centralizer_dim(j21, (0, 1, 0)) == 5
        assert enhanced_centralizer_dim(j21, (1, 0, 0)) == 7

    def test_enhanced_dim_errors(self):
        with pytest.raises(NotNilpotent):
            enhanced_centralizer_dim(ExactMatrix.identity(QQ, 2), (0, 0))
        with pytest.raises(SizeMismatch):
            enhanced_centralizer_dim(ExactMatrix.zeros(QQ, 2), (0, 0, 0))


class TestFileFormat:
    def test_round_trip_rational(self):
        m = ExactMatrix(QQ, [[Fraction(1, 2), 3], [-2, Fraction(7, 5)]])
        assert matrix_from_json(json.loads(json.dumps(matrix_to_json(m)))) == m

    def test_round_trip_prime(self):
        m = ExactMatrix(GF(3), [[0, 1], [2, 2]])
        again = matrix_from_json(matrix_to_json(m))
        assert again == m
        assert again.field.p == 3

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        objs = [json.loads(line) for b in blocks for line in b.splitlines()]
        fields = [obj["field"] for obj in objs]
        assert fields == ["Q", "Q", "Fp"]
        m = matrix_from_json(objs[2])
        assert m.field.p == 5
        assert m == ExactMatrix(GF(5), [[0, 1], [0, 0]])

    def test_rational_strings(self):
        m = matrix_from_json({"field": "Q", "entries": [["1/2", 1]]})
        assert m.entries[0][0] == Fraction(1, 2)

    def test_parse_rational(self):
        good = {"3": 3, "-7": -7, "+4": 4, "0/5": 0, "6/4": Fraction(3, 2), "-1/3": Fraction(-1, 3)}
        for text, value in good.items():
            assert parse_rational(text) == value
        # decimals, exponents, spaces, non-ASCII digits and zero denominators
        bad = ["", "1.5", "1e3", "1e10000000", " 1", "1 ", "1/-2", "1/0", "/2", "1/",
               "\u0661", "inf", "nan", "7" * 4400, 3]
        for text in bad:
            with pytest.raises(ParseError):
                parse_rational(text)

    def test_bad_inputs(self):
        bad = [
            {},
            {"field": "R", "entries": [[1]]},
            {"field": "Q", "entries": []},
            {"field": "Q", "entries": [[1], [2, 3]]},
            {"field": "Q", "entries": [[1.5]]},
            {"field": "Q", "entries": [["1/0"]]},
            {"field": "Fp", "entries": [[1]]},
            {"field": "Fp", "p": 4.5, "entries": [[1]]},
        ]
        for obj in bad:
            with pytest.raises(ParseError):
                matrix_from_json(obj)

import json
import math
import pathlib
import random

import pytest

from gfdescent.smith import IntMatrix, invariant_factors, kernel_basis, smith_normal_form

from oracles import minor_gcd_diagonal


def m_matrix(a, b, c):
    return IntMatrix([[a, -b, 0], [0, b, -c], [-a, 0, c]])


def j_matrix(a, b, c):
    return IntMatrix([[a, 0, 0], [0, b, 0], [0, 0, c], [1, 1, 1]])


def check_snf_contract(A):
    res = smith_normal_form(A)
    assert res.U @ A @ res.V == res.D
    assert abs(res.U.determinant()) == 1
    assert abs(res.V.determinant()) == 1
    diag = res.D.diagonal()
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert res.D[i, j] == 0
    assert all(d >= 0 for d in diag)
    for d1, d2 in zip(diag, diag[1:]):
        if d2 != 0:
            assert d1 != 0 and d2 % d1 == 0
    return res


STRUCTURE_SIGNATURES = [
    (2, 3, 7), (4, 4, 2), (7, 7, 7), (6, 10, 15), (2, 2, 2),
    (1, 1, 1), (1, 5, 9), (1, 4, 6),
]

# (U, D, V) of a fixed matrix corpus: the reference for changes to the
# elimination that promise the same output.  Regenerate (only when a change
# of output is intended) with
#     PYTHONPATH=src python tests/test_smith.py
SNF_CORPUS = pathlib.Path(__file__).with_name("golden") / "snf-corpus.json"


def corpus_matrices():
    """300 seeded matrices (1-5 rows and columns, entries in [-30, 30]),
    then the relation and triangle matrices of STRUCTURE_SIGNATURES."""
    rng = random.Random(4817)
    out = []
    for _ in range(300):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        out.append([[rng.randrange(-30, 31) for _ in range(cols)] for _ in range(rows)])
    for sig in STRUCTURE_SIGNATURES:
        out.append(m_matrix(*sig).data)
        out.append(j_matrix(*sig).data)
    return out


def snf_corpus_text() -> str:
    lines = []
    for rows in corpus_matrices():
        res = smith_normal_form(IntMatrix(rows))
        lines.append(json.dumps({"A": rows, "U": res.U.data, "D": res.D.data, "V": res.V.data}))
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_relation_matrix_structure():
    # diag(d, m/d, 0) with d = gcd(a,b,c), m = gcd(bc, ac, ab); holds for
    # degenerate exponents 1 as well.
    for a, b, c in STRUCTURE_SIGNATURES:
        res = check_snf_contract(m_matrix(a, b, c))
        d = math.gcd(a, b, c)
        m = math.gcd(b * c, a * c, a * b)
        assert res.D.diagonal() == [d, m // d, 0]


def test_triangle_matrix_structure():
    for a, b, c in [(4, 4, 2), (2, 3, 7), (5, 5, 5)]:
        res = check_snf_contract(j_matrix(a, b, c))
        d = math.gcd(a, b, c)
        m = math.gcd(b * c, a * c, a * b)
        assert res.D.diagonal() == [1, d, m // d]


def test_zero_matrix():
    res = smith_normal_form(IntMatrix.zeros(2, 2))
    assert res.D == IntMatrix.zeros(2, 2)
    assert res.U == IntMatrix.identity(2)
    assert res.V == IntMatrix.identity(2)


def test_snf_matches_minor_gcd_oracle_small():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        A = IntMatrix(
            [[rng.randrange(-20, 21) for _ in range(cols)] for _ in range(rows)]
        )
        res = check_snf_contract(A)
        assert res.D.diagonal() == minor_gcd_diagonal(A.data)


def test_snf_random_contract():
    rng = random.Random(29)
    for _ in range(1000):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        A = IntMatrix(
            [[rng.randrange(-50, 51) for _ in range(cols)] for _ in range(rows)]
        )
        check_snf_contract(A)


def test_invariant_factors_examples():
    assert invariant_factors(m_matrix(4, 4, 2)) == ([2, 4], 1)
    assert invariant_factors(m_matrix(2, 3, 7)) == ([], 1)
    assert invariant_factors(IntMatrix.identity(3)) == ([], 0)
    assert invariant_factors(j_matrix(4, 4, 2)) == ([2, 4], 0)


def test_kernel_basis_examples():
    assert kernel_basis(m_matrix(2, 3, 7)) == [[21, 14, 6]]
    assert kernel_basis(m_matrix(4, 4, 2)) == [[1, 1, 2]]
    assert kernel_basis(IntMatrix.identity(2)) == []


def test_kernel_basis_properties():
    rng = random.Random(31)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        A = IntMatrix(
            [[rng.randrange(-30, 31) for _ in range(cols)] for _ in range(rows)]
        )
        basis = kernel_basis(A)
        rank = sum(1 for d in smith_normal_form(A).D.diagonal() if d)
        assert len(basis) == cols - rank
        for v in basis:
            assert A.mul_vector(v) == [0] * rows
            assert math.gcd(*v) == 1  # content 1 (single entries are +-1)
            lead = next((x for x in v if x), 0)
            assert lead >= 0


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]]).determinant()


def test_determinant():
    assert IntMatrix([[2]]).determinant() == 2
    assert IntMatrix([[1, 2], [3, 4]]).determinant() == -2
    assert IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).determinant() == 1
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randrange(1, 5)
        A = IntMatrix([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        from oracles import _det

        assert A.determinant() == _det(A.data)


def test_snf_corpus_is_byte_identical():
    assert snf_corpus_text() == SNF_CORPUS.read_text()


def test_transform_free_paths_agree_with_full_form():
    # invariant_factors skips U and V, kernel_basis skips U; both must give
    # what the stored (U, D, V) of the corpus implies.
    for entry in json.loads(SNF_CORPUS.read_text()):
        A = IntMatrix(entry["A"])
        diag = IntMatrix(entry["D"]).diagonal()
        rank = sum(1 for d in diag if d)
        assert invariant_factors(A) == ([d for d in diag if d not in (0, 1)], A.cols - rank)
        kernel = []
        for j in range(rank, A.cols):
            v = [row[j] for row in entry["V"]]
            lead = next(x for x in v if x)
            kernel.append([-x for x in v] if lead < 0 else v)
        assert kernel_basis(A) == kernel


if __name__ == "__main__":
    SNF_CORPUS.write_text(snf_corpus_text())

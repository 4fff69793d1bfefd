import json
import math
import pathlib
import random

import pytest

from gfdescent.errors import CAPS, WorkLimitExceeded
from gfdescent.smith import IntMatrix, smith_normal_form

from oracles import _det, j_matrix, m_matrix, minor_gcd_diagonal


def check_snf_contract(A):
    res = smith_normal_form(A)
    assert res.U @ A @ res.V == res.D
    assert abs(_det(res.U.data)) == 1
    assert abs(_det(res.V.data)) == 1
    diag = res.D.diagonal()
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert res.D.data[i][j] == 0
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
    res = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
    assert res.D == IntMatrix([[0, 0], [0, 0]])
    assert res.U == IntMatrix([[1, 0], [0, 1]])
    assert res.V == IntMatrix([[1, 0], [0, 1]])


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


def test_kernel_basis_properties():
    # The columns of V past the rank of A are a basis of A's integer kernel:
    # A kills each of them, and each is primitive because V is unimodular.
    rng = random.Random(31)
    for _ in range(200):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        A = IntMatrix(
            [[rng.randrange(-30, 31) for _ in range(cols)] for _ in range(rows)]
        )
        res = smith_normal_form(A)
        rank = sum(1 for d in res.D.diagonal() if d)
        for j in range(rank, cols):
            v = [row[j] for row in res.V.data]
            assert [sum(x * y for x, y in zip(row, v)) for row in A.data] == [0] * rows
            assert math.gcd(*v) == 1  # content 1 (single entries are +-1)


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[]])
    # Entries are checked, not coerced: int() would truncate 2.7 to 2 and
    # give the Smith form of another matrix.
    for rows in ([[2.7, 1], [0, 3]], [[1, True]], [[1, "2"]], [[1, 2], [3, 4.0]]):
        with pytest.raises(ValueError, match="must be ints"):
            IntMatrix(rows)
    assert IntMatrix([[2, 1], [0, 3]]).data == [[2, 1], [0, 3]]


def test_determinant():
    # The determinant oracle that check_snf_contract reads, on examples and
    # against the Smith form: |det A| is the product of D's diagonal.
    assert _det([[2]]) == 2
    assert _det([[1, 2], [3, 4]]) == -2
    assert _det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randrange(1, 5)
        A = IntMatrix([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
        assert abs(_det(A.data)) == math.prod(smith_normal_form(A).D.diagonal())


@pytest.mark.parametrize("rows, cols", [(16, 16), (8, 32), (32, 8)])
def test_elimination_bit_cap_is_checked_first(rows, cols):
    # rows * cols * min(rows, cols) * (bits of the largest |entry|): a matrix
    # at the cap answers, and one more bit raises before the elimination.
    bits = CAPS["elimination bits"] // (rows * cols * min(rows, cols))
    rng = random.Random(rows * cols)
    data = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
    data[rows - 1][0] = -(2 ** (bits - 1))
    A = IntMatrix(data)
    res = smith_normal_form(A)
    assert res.U @ A @ res.V == res.D
    data[rows - 1][0] = -(2**bits)
    with pytest.raises(WorkLimitExceeded) as info:
        smith_normal_form(IntMatrix(data))
    assert (info.value.cap, info.value.limit) == ("elimination bits", CAPS["elimination bits"])
    assert f"{rows}x{cols} matrix of {bits + 1}-bit entries" in str(info.value)


def test_snf_corpus_is_byte_identical():
    assert snf_corpus_text() == SNF_CORPUS.read_text()


def test_smith_normal_form_leaves_its_input_unchanged():
    for rows in corpus_matrices():
        A = IntMatrix(rows)
        before = [row[:] for row in A.data]
        smith_normal_form(A)
        assert A.data == before, rows


if __name__ == "__main__":
    SNF_CORPUS.write_text(snf_corpus_text())

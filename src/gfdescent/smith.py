"""Smith normal form over the integers with unimodular transform tracking.

The implementation is the classical elementary-operation algorithm with a
deterministic pivot rule (smallest nonzero absolute value, ties broken by
lowest (row, col)), which keeps entry growth tame at desk scale and makes
outputs reproducible run to run.  One elimination, _snf, works on plain
lists of rows; it applies the same operations whether or not transforms are
tracked, and builds U and V only when the caller returns them:
smith_normal_form tracks both, kernel_basis only V, invariant_factors none.
"""

from __future__ import annotations

from dataclasses import dataclass


class IntMatrix:
    """A dense integer matrix; entries are arbitrary-precision ints."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries):
        data = [list(map(int, row)) for row in entries]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("ragged or empty rows")
        self.rows = len(data)
        self.cols = width
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)])

    def copy(self) -> "IntMatrix":
        return IntMatrix([row[:] for row in self.data])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"IntMatrix({self.data!r})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.data[i]
            for k in range(self.cols):
                aik = row[k]
                if aik:
                    orow = other.data[k]
                    orow_out = out[i]
                    for j in range(other.cols):
                        orow_out[j] += aik * orow[j]
        return IntMatrix(out)

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(row[j] * v[j] for j in range(self.cols)) for row in self.data]

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def determinant(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [row[:] for row in self.data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SNFResult:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix


def _wrap(data: list[list[int]]) -> IntMatrix:
    """IntMatrix around rows of ints that are known to be rectangular."""
    M = IntMatrix.__new__(IntMatrix)
    M.rows, M.cols, M.data = len(data), len(data[0]), data
    return M


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf(D: list[list[int]], U=None, Vt=None) -> None:
    """Reduce the rows D to Smith normal form in place.

    U, if given, receives every row operation; Vt, if given, receives every
    column operation as a row operation, so it holds V transposed.
    """
    rows, cols = len(D), len(D[0])
    limit = min(rows, cols)
    t = 0
    while t < limit:
        # Promote the pivot of the trailing submatrix to (t, t).
        best = 0
        for i in range(t, rows):
            row = D[i]
            for j in range(t, cols):
                v = abs(row[j])
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            D[t], D[pi] = D[pi], D[t]
            if U is not None:
                U[t], U[pi] = U[pi], U[t]
        if pj != t:
            for row in D:
                row[t], row[pj] = row[pj], row[t]
            if Vt is not None:
                Vt[t], Vt[pj] = Vt[pj], Vt[t]
        Dt = D[t]
        p = Dt[t]

        # Kill the pivot column, then the pivot row.  Any nonzero remainder
        # is strictly smaller than the pivot, so re-promoting terminates.
        dirty = False
        for i in range(t + 1, rows):
            q = D[i][t] // p
            if q:
                D[i] = [x - q * y for x, y in zip(D[i], Dt)]
                if U is not None:
                    U[i] = [x - q * y for x, y in zip(U[i], U[t])]
            if D[i][t]:
                dirty = True
        if dirty:
            continue
        # The pivot column is now zero off (t, t), so a column operation
        # changes only row t of D.
        for j in range(t + 1, cols):
            q = Dt[j] // p
            if q:
                Dt[j] -= q * p
                if Vt is not None:
                    Vt[j] = [x - q * y for x, y in zip(Vt[j], Vt[t])]
            if Dt[j]:
                dirty = True
        if dirty:
            continue

        # Divisibility: the pivot must divide every later entry.  Folding the
        # first offending row into row t strictly shrinks the achievable
        # pivot gcd, so this terminates.
        for i in range(t + 1, rows):
            row = D[i]
            for j in range(t + 1, cols):
                if row[j] % p:
                    break
            else:
                continue
            D[t] = [x + y for x, y in zip(Dt, row)]
            if U is not None:
                U[t] = [x + y for x, y in zip(U[t], U[i])]
            break
        else:
            t += 1

    for i in range(limit):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
            if U is not None:
                U[i] = [-x for x in U[i]]


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Smith normal form with transforms.

    D is diagonal with nonnegative entries, each dividing the next nonzero
    one; U and V have determinant +-1; U @ A @ V == D exactly.
    """
    D = [row[:] for row in A.data]
    U = _identity_rows(A.rows)
    Vt = _identity_rows(A.cols)
    _snf(D, U, Vt)
    return SNFResult(_wrap(U), _wrap(D), _wrap([list(col) for col in zip(*Vt)]))


def invariant_factors(A: IntMatrix) -> tuple[list[int], int]:
    """Invariant factors > 1 of coker(rows of A in Z^cols), plus its free rank.

    Returns (factors, free_rank) where factors drops trivial entries and
    free_rank = cols - rank counts the zero diagonal entries of the padded
    Smith form.
    """
    D = [row[:] for row in A.data]
    _snf(D)
    diag = [D[i][i] for i in range(min(A.rows, A.cols))]
    rank = sum(1 for d in diag if d != 0)
    factors = [d for d in diag if d not in (0, 1)]
    return factors, A.cols - rank


def kernel_basis(A: IntMatrix) -> list[list[int]]:
    """Basis of the integer (right) kernel of A.

    Each vector is primitive (content 1, guaranteed by the unimodularity of
    V) with its first nonzero entry positive.
    """
    D = [row[:] for row in A.data]
    Vt = _identity_rows(A.cols)
    _snf(D, Vt=Vt)
    rank = sum(1 for i in range(min(A.rows, A.cols)) if D[i][i] != 0)
    basis = []
    for v in Vt[rank:]:
        lead = next((x for x in v if x != 0), 0)
        if lead < 0:
            v = [-x for x in v]
        basis.append(v)
    return basis

"""Smith normal form over the integers with unimodular transform tracking.

The implementation is the classical elementary-operation algorithm with a
deterministic pivot rule (smallest nonzero absolute value, ties broken by
lowest (row, col)), which keeps entry growth tame at desk scale and makes
outputs reproducible run to run.  One elimination, _snf, works on plain
lists of rows and always tracks both transforms: U rides in D's rows as
extra columns, and V is kept transposed so that column operations are row
operations on it.  smith_normal_form returns U, D and V.
"""

from __future__ import annotations

from ._record import Record
from .errors import charge


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


class IntMatrix:
    """A dense integer matrix; entries are arbitrary-precision ints.

    Raises ValueError on an entry whose type is not exactly int (a float or
    a bool included), which a coercion would silently change.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries):
        data = [list(row) for row in entries]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("ragged or empty rows")
        for row in data:
            for x in row:
                if type(x) is not int:
                    raise ValueError(f"matrix entries must be ints, got {x!r}")
        self.rows = len(data)
        self.cols = width
        self.data = data

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

    def diagonal(self):
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]


class SNFResult(Record):
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    __slots__ = ("U", "D", "V")


def _wrap(data: list[list[int]]) -> IntMatrix:
    """IntMatrix around rows of ints that are known to be rectangular."""
    M = IntMatrix.__new__(IntMatrix)
    M.rows, M.cols, M.data = len(data), len(data[0]), data
    return M


def _snf(A: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Rows of [D | U] and of V transposed, for the rows A (left unchanged).

    U rides in D's rows as extra columns, so one list operation applies a
    row operation to both; column operations are row operations on Vt.
    """
    rows, cols = len(A), len(A[0])
    D = [row + e for row, e in zip(A, _identity_rows(rows))]
    Vt = _identity_rows(cols)
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
        if pj != t:
            for row in D:
                row[t], row[pj] = row[pj], row[t]
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
            break
        else:
            t += 1

    for i in range(limit):
        if D[i][i] < 0:
            D[i] = [-x for x in D[i]]
    return D, Vt


def smith_normal_form(A: IntMatrix) -> SNFResult:
    """Smith normal form with transforms.

    D is diagonal with nonnegative entries, each dividing the next nonzero
    one; U and V have determinant +-1; U @ A @ V == D exactly.  Raises
    WorkLimitExceeded (cap "elimination bits") before the elimination when
    rows * cols * min(rows, cols) * (bits of the largest |entry|) passes
    that cap.
    """
    bits = max(abs(v) for row in A.data for v in row).bit_length()
    work = A.rows * A.cols * min(A.rows, A.cols) * bits
    charge("elimination bits", work, "{}x{} matrix of {}-bit entries", A.rows, A.cols, bits)
    DU, Vt = _snf(A.data)
    U = [row[A.cols :] for row in DU]
    D = [row[: A.cols] for row in DU]
    return SNFResult(_wrap(U), _wrap(D), _wrap([list(col) for col in zip(*Vt)]))

"""Gaussian elimination over a finite field: rank, determinant, and the
right-to-left reduced echelon form that solves linear family constraints.

Rows are lists of canonical element indices.  Matrices here are tiny
(Jacobians, subresultant submatrices, m affine forms in d-2 unknowns), so
no pivot strategy beyond "first nonzero" is needed.
"""

from __future__ import annotations

from .ffield import Field


def rank(field: Field, rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][col])
        for i in range(r + 1, len(m)):
            c = m[i][col]
            if c:
                factor = field.mul(c, inv)
                for j in range(col, ncols):
                    m[i][j] = field.sub(m[i][j], field.mul(factor, m[r][j]))
        r += 1
        if r == len(m):
            break
    return r


def echelon_from_right(field: Field, rows: list[list[int]], ncols: int):
    """Reduced row echelon form whose pivots are taken from the right.

    Only columns 0..ncols-1 are pivot candidates; any trailing entries
    (constants of affine forms) are carried along.  Returns (pivots,
    reduced): reduced[i] is 1 at column pivots[i], zero at every other
    pivot column and at every column right of pivots[i].  Zero rows are
    dropped, so len(pivots) is the rank of the leading ncols columns.
    """
    m = [list(r) for r in rows]
    pivots = []
    for col in reversed(range(ncols)):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][col])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            c = m[i][col]
            if i != r and c:
                m[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return pivots, m[: len(pivots)]


def det(field: Field, rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    result = 1
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = field.neg(result)
        result = field.mul(result, m[col][col])
        inv = field.inv(m[col][col])
        for i in range(col + 1, n):
            c = m[i][col]
            if c:
                factor = field.mul(c, inv)
                for j in range(col, n):
                    m[i][j] = field.sub(m[i][j], field.mul(factor, m[col][j]))
    return result

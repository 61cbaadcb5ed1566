"""Gaussian elimination over a finite field: rank and determinant.

Rows are lists of canonical element indices.  Matrices here are tiny
(Jacobians, subresultant submatrices), so no pivot strategy beyond "first
nonzero" is needed.  Family constraints, linear ones included, are solved
by substitution in `families`, not here.
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

"""Gaussian elimination over a finite field: rank and determinant.

Rows are lists of canonical element indices.  Matrices here are tiny
(Jacobians, subresultant submatrices), so no pivot strategy beyond "first
nonzero" is needed.  Family constraints, linear ones included, are solved
by substitution in `families`, not here.
"""

from __future__ import annotations

from .ffield import Field


def _eliminate(field: Field, rows: list[list[int]]) -> tuple[int, int]:
    """(rank, signed pivot product) by one forward elimination.

    The product of the pivots, negated once per row swap, is the
    determinant of a square matrix of full rank.
    """
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    signed = 1
    for col in range(ncols):
        for pivot in range(r, len(m)):
            if m[pivot][col]:
                break
        else:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            signed = field.neg(signed)
        signed = field.mul(signed, m[r][col])
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
    return r, signed


def rank(field: Field, rows: list[list[int]]) -> int:
    return _eliminate(field, rows)[0]


def det(field: Field, rows: list[list[int]]) -> int:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    r, signed = _eliminate(field, rows)
    return signed if r == n else 0

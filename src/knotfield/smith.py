"""Smith normal form of integer matrices with exact arithmetic.

Row/column reduction with a smallest-pivot strategy.  Sizes here are tiny
(relator exponent matrices), so no effort is spent on the bit-growth
pathologies of large SNF computations.
"""

from __future__ import annotations


def smith_invariants(matrix: list[list[int]]) -> list[int]:
    """Return the nonzero diagonal invariants d1 | d2 | ... of the matrix.

    Each round takes an entry of least |value| as the pivot and reduces its
    row and column by it.  If a remainder is left, it is the next, smaller
    pivot.  Otherwise, if the pivot divides every other entry, |pivot| is
    recorded and its row and column are deleted; if not, the offending row
    is added to the pivot's row and the same pivot reduces again, which
    leaves a remainder.  So each round either shrinks the matrix or lowers
    the least |entry|, a positive integer, and the loop ends.  Every later
    entry stays a multiple of a recorded pivot, which gives the chain.
    """
    m = [list(row) for row in matrix]
    invariants = []
    while any(any(row) for row in m):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v)
        p = m[i][j]
        while True:
            for k, row in enumerate(m):
                if k != i and row[j]:
                    q = row[j] // p
                    m[k] = [a - q * b for a, b in zip(row, m[i])]
            for k, v in enumerate(m[i]):
                if k != j and v:
                    q = v // p
                    for row in m:
                        row[k] -= q * row[j]
            if any(m[i][:j] + m[i][j + 1:]) or any(row[j] for k, row in enumerate(m) if k != i):
                break
            offender = next((row for row in m if any(v % p for v in row)), None)
            if offender is None:
                invariants.append(abs(p))
                del m[i]
                for row in m:
                    del row[j]
                break
            m[i] = [a + b for a, b in zip(m[i], offender)]
    return invariants

"""Small dense linear algebra over mpmath reals/complexes.

Partial-pivot LU with a reusable factorization; matrices are lists of
lists, vectors are lists.  Sizes never exceed a few dozen, so the cost is
per-operation overhead, not arithmetic.  Each entry of the factors and of
a substitution therefore takes its whole inner product as one mp.fdot,
which forms the products exactly and rounds their sum once, in place of a
rounded multiply and subtract per term (the inner-product form of LU,
Higham, Accuracy and Stability of Numerical Algorithms, section 9.2).
"""

import mpmath as mp


class SingularMatrixError(ValueError):
    pass


def lu_factor(a):
    """Partial-pivot LU factorization; returns (lu, piv).

    Left-looking Doolittle order: column k of L is formed from the finished
    columns left of it, pivoted, then row k of U is formed."""
    n = len(a)
    lu = [list(row) for row in a]
    piv = list(range(n))
    for k in range(n):
        col = [lu[j][k] for j in range(k)]
        for i in range(k, n):
            lu[i][k] -= mp.fdot(lu[i][:k], col)
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if lu[p][k] == 0:
            raise SingularMatrixError("singular matrix in LU factorization")
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            piv[k], piv[p] = piv[p], piv[k]
        row_k = lu[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            lu[i][k] /= akk
        left = row_k[:k]
        for j in range(k + 1, n):
            row_k[j] -= mp.fdot(left, [lu[m][j] for m in range(k)])
    return lu, piv


def lu_solve(fact, b):
    """Solve A x = b from a factorization returned by lu_factor."""
    lu, piv = fact
    n = len(lu)
    y = []
    for i in range(n):
        y.append(b[piv[i]] - mp.fdot(lu[i][:i], y))
    x = [None] * n
    for i in reversed(range(n)):
        row = lu[i]
        x[i] = (y[i] - mp.fdot(row[i + 1:], x[i + 1:])) / row[i]
    return x


def solve(a, b):
    return lu_solve(lu_factor(a), b)


def solve_matrix(a, bmat):
    """Solve A X = B column-wise with a single factorization."""
    fact = lu_factor(a)
    n = len(a)
    ncols = len(bmat[0])
    cols = [lu_solve(fact, [bmat[i][j] for i in range(n)]) for j in range(ncols)]
    return [[cols[j][i] for j in range(ncols)] for i in range(n)]


def max_row_sum(a):
    """Infinity norm (max absolute row sum)."""
    return max(sum(abs(x) for x in row) for row in a)

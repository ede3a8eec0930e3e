"""Small dense linear algebra over mpmath reals/complexes.

Partial-pivot LU with a reusable factorization; matrices are lists of
lists, vectors are lists.  Sizes here never exceed a few dozen, so plain
python loops over mpf/mpc are adequate.
"""


class SingularMatrixError(ValueError):
    pass


def lu_factor(a):
    """Partial-pivot LU factorization; returns (lu, piv)."""
    n = len(a)
    lu = [list(row) for row in a]
    piv = list(range(n))
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if lu[p][k] == 0:
            raise SingularMatrixError("singular matrix in LU factorization")
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            piv[k], piv[p] = piv[p], piv[k]
        akk = lu[k][k]
        for i in range(k + 1, n):
            m = lu[i][k] / akk
            lu[i][k] = m
            if m != 0:
                row_i, row_k = lu[i], lu[k]
                for j in range(k + 1, n):
                    row_i[j] -= m * row_k[j]
    return lu, piv


def lu_solve(fact, b):
    """Solve A x = b from a factorization returned by lu_factor."""
    lu, piv = fact
    n = len(lu)
    x = [b[piv[i]] for i in range(n)]
    for i in range(n):
        row = lu[i]
        for j in range(i):
            x[i] -= row[j] * x[j]
    for i in reversed(range(n)):
        row = lu[i]
        for j in range(i + 1, n):
            x[i] -= row[j] * x[j]
        x[i] /= row[i]
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

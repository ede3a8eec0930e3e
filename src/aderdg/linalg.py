"""Small dense linear algebra at the ambient precision, for sizes of a few
dozen: one integer LU kernel and the library's real inner product.

The split format holds reals as (integer mantissas, one binary exponent),
of int or any type with its operators (gmpy2's mpz): `_split` makes it,
exactly or rounded onto a grid, `_fit` rounds or widens it to a bit count,
`_mpf` rounds one mantissa to an mpf.  `lu_factor` rounds each row of the
real matrix onto the grid on which its largest entry holds the working bits
plus GUARD (a row scaling D by powers of 2), and forms each entry of U and of L
(on 2^-(prec + GUARD)) as one exact integer inner product rounded once
(Higham, Accuracy and Stability of Numerical Algorithms, section 9.2).
`lu_solve` maps a split column to a split column, exact to its grid: each
y_i is rounded once onto that grid scaled by D^-1 and refined by GUARD
bits, each x_i once onto y's refined by the largest pivot's bits; `solve`
first widens a coarse right-hand side (say 1).

`dot` is the library's real inner product, with mp.fdot's contract: exact
products, their sum rounded once at the ambient precision.  It multiplies
the raw mantissas of finite mpf operands and leaves any other operand (mpc,
int, inf, nan) to mp.fdot, whose per-pair conversions cost more.
"""

from operator import mul

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

GUARD = 8   # bits past the working precision on the LU kernel's grids
_mpf = lambda man, e: mp.mp.make_mpf(from_man_exp(man, e, mp.mp.prec, round_nearest))


class SingularMatrixError(ValueError):
    pass


class NotFiniteRealError(ValueError):
    """An entry that is not a finite real: an mpc, inf or nan."""


def _split(xs, bits=None):
    """The reals xs as (integer mantissas, one binary exponent): exactly, or
    rounded onto the grid on which the largest holds `bits` bits."""
    try:
        parts = [getattr(x, "_mpf_", None) or mp.mpf(x)._mpf_ for x in xs]
    except TypeError as exc:                    # mpc, complex
        raise NotFiniteRealError(exc) from None
    if any(exp and not man for _, man, exp, _ in parts):
        raise NotFiniteRealError("inf or nan where a finite real is needed")
    e = (min((x for _, m, x, _ in parts if m), default=0) if bits is None
         else max((x + bc for _, m, x, bc in parts if m), default=0) - bits)
    return [(-m if s else m) << (x - e) if x >= e
            else ((-m if s else m) + (1 << (e - x - 1))) >> (e - x)
            for s, m, x, _ in parts], e


def _fit(x, bits, widen=False):
    """A split rounded so that its largest mantissa holds at most `bits` bits;
    with widen, a nonzero one that holds fewer is shifted up to exactly `bits`."""
    man, e = x
    top = max(map(abs, man))
    b = top.bit_length() - bits
    if b < 0 and widen and top:
        return [m << -b for m in man], e + b
    return x if b <= 0 else ([(m + (1 << (b - 1))) >> b for m in man], e + b)


def dot(xs, ys):
    """sum_k xs[k] ys[k], summed exactly and rounded once.  mp.fdot gives
    the same bits unless it drops a term more than 2 prec bits below its
    running sum that a later cancellation exposes.  Takes sequences, not
    iterators, since any other operand than a finite mpf hands both to
    mp.fdot."""
    man = exp = 0
    try:
        for x, y in zip(xs, ys):
            xsign, xman, xexp, _ = x._mpf_
            ysign, yman, yexp, _ = y._mpf_
            if not (xman and yman):
                if (xexp and not xman) or (yexp and not yman):
                    return mp.fdot(xs, ys)      # inf or nan
                continue
            m = -xman * yman if xsign != ysign else xman * yman
            e = xexp + yexp
            if not man:
                man, exp = m, e
            elif e >= exp:
                man += m << (e - exp)
            else:
                man = (man << (exp - e)) + m
                exp = e
    except AttributeError:                      # mpc, int
        return mp.fdot(xs, ys)
    return _mpf(man, exp)


def lu_factor(a):
    """Left-looking partial-pivot LU factorization of the real matrix a at the
    ambient precision, for lu_solve.  An entry that is not a finite real raises
    NotFiniteRealError, a pivot that rounds to 0 SingularMatrixError."""
    n, f = len(a), mp.mp.prec + GUARD
    lu, es = map(list, zip(*(_split(row, f) for row in a)))
    piv = list(range(n))
    for k in range(n):
        col = [lu[m][k] for m in range(k)]
        for i in range(k, n):       # exact, in units 2^-f of row i's grid
            lu[i][k] = (lu[i][k] << f) - sum(map(mul, lu[i], col))
        p = max(range(k, n), key=lambda i: abs(lu[i][k]))
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            piv[k], piv[p] = piv[p], piv[k]
        row_k = lu[k]
        ukk = row_k[k] = (row_k[k] + (1 << (f - 1))) >> f
        if not ukk:
            raise SingularMatrixError("singular matrix in LU factorization")
        for i in range(k + 1, n):
            lu[i][k] = (2 * lu[i][k] + ukk) // (2 * ukk)
        for j in range(k + 1, n):     # map stops at the k entries of L
            row_k[j] -= (sum(map(mul, row_k, [lu[m][j] for m in range(k)]))
                         + (1 << (f - 1))) >> f
    top = max(es)   # lu_solve shifts b_p onto the grid of D^-1 b refined by GUARD
    return (lu, [(p, top - es[p] + GUARD) for p in piv], top, f,
            max(abs(row[i]) for i, row in enumerate(lu)).bit_length())


def lu_solve(fact, b):
    """Solve A x = b from lu_factor's factorization, b and x split columns."""
    (lu, rows, top, f, pbits), (man, eb) = fact, b
    y = []      # on the grid 2^(eb - top - GUARD)
    for (p, shift), row in zip(rows, lu):
        y.append((man[p] << shift) - ((sum(map(mul, row, y)) + (1 << (f - 1))) >> f))
    x = []      # x_{n-1}, x_{n-2}, ... on the grid 2^(eb - top - GUARD - pbits)
    for i in reversed(range(len(lu))):
        num = (y[i] << pbits) - sum(map(mul, lu[i][:i:-1], x))
        x.append((2 * num + lu[i][i]) // (2 * lu[i][i]))
    return x[::-1], eb - top - GUARD - pbits


def solve(a, b):
    return [row[0] for row in solve_matrix(a, [[x] for x in b])]


def solve_matrix(a, bmat):
    """Solve A X = B column-wise with a single factorization."""
    fact = lu_factor(a)
    cols = [lu_solve(fact, _split(col, mp.mp.prec + GUARD)) for col in zip(*bmat)]
    return [[_mpf(man[i], e) for man, e in cols] for i in range(len(a))]


def max_row_sum(a):
    """Infinity norm (max absolute row sum)."""
    return max(sum(abs(x) for x in row) for row in a)

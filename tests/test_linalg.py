import random

import mpmath as mp
import pytest

from aderdg import linalg
from aderdg.arith import make_context
from aderdg.tableau import build_tableau


def _residual(a, x, b):
    return max(abs(mp.fsum(a[i][j] * x[j] for j in range(len(x))) - b[i])
               for i in range(len(b)))


def test_zero_leading_entry_swaps_rows():
    with mp.workdps(50):
        a = [[mp.mpf(v) for v in row]
             for row in ([0, 2, 1], [1, 1, 1], [2, 0, 3])]
        lu, piv = linalg.lu_factor(a)
        assert piv[0] == 2
        x = linalg.lu_solve((lu, piv), [mp.mpf(7), mp.mpf(6), mp.mpf(11)])
        assert x == [1, 2, 3]


def test_random_system_matches_mpmath():
    rng = random.Random(13)
    with mp.workdps(120):
        n = 12
        a = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        b = [mp.mpf(rng.uniform(-1, 1)) for _ in range(n)]
        x = linalg.solve(a, b)
        ref = mp.lu_solve(mp.matrix(a), mp.matrix(b))
        assert max(abs(x[i] - ref[i]) for i in range(n)) < mp.mpf(10) ** -115
        assert _residual(a, x, b) < mp.mpf(10) ** -117


def test_complex_system_of_the_stability_function():
    # (I - z a) x = 1 at a complex z, as stability_function builds it
    ctx = make_context(60)
    tab = build_tableau(3, "gauss-legendre", ctx)
    with ctx.workdps(10):
        z = mp.mpc(-2, 5)
        n = tab.stages
        a = [[(1 if p == q else 0) - z * tab.a[p][q] for q in range(n)]
             for p in range(n)]
        b = [mp.mpf(1)] * n
        x = linalg.solve(a, b)
        assert all(isinstance(v, mp.mpc) for v in x)
        ref = mp.lu_solve(mp.matrix(a), mp.matrix(b))
        assert max(abs(x[i] - ref[i]) for i in range(n)) < mp.mpf(10) ** -60
        assert _residual(a, x, b) < mp.mpf(10) ** -62


def test_exactly_singular_matrix_raises():
    with mp.workdps(50):
        a = [[mp.mpf(v) for v in row]
             for row in ([1, 2, 3], [2, 4, 6], [1, 0, 1])]
        with pytest.raises(linalg.SingularMatrixError):
            linalg.lu_factor(a)


def test_solve_matrix_several_right_hand_sides():
    with mp.workdps(50):
        a = [[mp.mpf(v) for v in row]
             for row in ([4, -2, 1], [3, 6, -4], [2, 1, 8])]
        bmat = [[mp.mpf(v) for v in row]
                for row in ([1, 0, 7], [0, 1, -2], [5, 3, 0])]
        xmat = linalg.solve_matrix(a, bmat)
        assert len(xmat) == 3 and all(len(row) == 3 for row in xmat)
        for j in range(3):
            x = [xmat[i][j] for i in range(3)]
            assert _residual(a, x, [bmat[i][j] for i in range(3)]) \
                < mp.mpf(10) ** -48

import random

import mpmath as mp
import pytest

from aderdg import linalg, tableau
from aderdg.analysis import compute_errors
from aderdg.arith import make_context
from aderdg.problems import harmonic_oscillator, pendulum
from aderdg.solver import integrate
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


def _random_vector(rng, n):
    # 10% zeros; otherwise a mantissa of 15-510 digits, either sign, and a
    # binary exponent within +-200
    out = []
    for _ in range(n):
        if rng.random() < 0.1:
            out.append(mp.mpf(0))
            continue
        bits = int(rng.randint(15, 510) * 3.33)
        man = rng.getrandbits(bits) | 1 << (bits - 1)
        out.append(mp.mpf((rng.choice((-1, 1)) * man,
                           rng.randint(-200, 200) - bits)))
    return out


@pytest.mark.parametrize("digits", [15, 60, 510])
def test_dot_matches_fdot(digits):
    rng = random.Random(digits)
    with mp.workdps(1800):
        pairs = []
        for _ in range(300):
            n = rng.randint(0, 20)
            pairs.append((_random_vector(rng, n), _random_vector(rng, n)))
    with mp.workdps(digits):
        for xs, ys in pairs:
            assert linalg.dot(xs, ys)._mpf_ == mp.fdot(xs, ys)._mpf_
        empty = linalg.dot([], [])
        assert type(empty) is mp.mpf and empty._mpf_ == mp.mpf(0)._mpf_
        # the exact sum keeps a term 3 prec bits below the cancelled ones
        tiny = mp.ldexp(1, -3 * mp.mp.prec)
        xs, ys = [mp.mpf(1), mp.mpf(-1), tiny], [mp.mpf(1)] * 3
        assert linalg.dot(xs, ys) == tiny == mp.fdot(xs, ys)
        # anything but finite mpf pairs is mp.fdot's
        one, two = mp.mpf(1), mp.mpf(2)
        for xs, ys in (([mp.inf, one], [two, one]),
                       ([mp.mpf(0), one], [mp.inf, two]),
                       ([one, mp.nan], [two, one]),
                       ([one, mp.mpc(2, -3)], [two, mp.mpf(5)]),
                       ([3, one], [two, 7])):
            assert repr(linalg.dot(xs, ys)) == repr(mp.fdot(xs, ys))


def test_dot_is_the_one_inner_product(monkeypatch):
    # with mp.fdot refused, a call site still on it, or a real operand that
    # falls back to it, fails
    def refused(*args, **kwargs):
        raise AssertionError("mp.fdot called")

    monkeypatch.setattr(mp, "fdot", refused)
    ctx = make_context(60)
    tab = build_tableau(3, "gauss-legendre", ctx)
    for which, order in (("B", 8), ("C", 3), ("D", 3)):
        assert tableau.check_simplifying(tab, which, order, ctx) \
            < ctx.identity_tol
    # Picard needs 16 intervals to meet its contraction bound
    for picard, m in ((False, 2), (True, 16)):
        integrate(tab, pendulum().problem, m, ctx, picard=picard)
    entry = harmonic_oscillator()
    traj = integrate(build_tableau(2, "gauss-legendre", ctx), entry.problem,
                     4, ctx)
    assert compute_errors(traj, entry.problem.exact, ctx).errors["l_linf"] > 0

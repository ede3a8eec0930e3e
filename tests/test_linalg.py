import random

import mpmath as mp
import pytest
from conftest import Mpz

from aderdg import linalg, solver, tableau
from aderdg.analysis import compute_errors
from aderdg.arith import make_context
from aderdg.problems import harmonic_oscillator, pendulum
from aderdg.solver import integrate
from aderdg.tableau import build_tableau


def _residual(a, x, b):
    return max(abs(mp.fsum(a[i][j] * x[j] for j in range(len(x))) - b[i])
               for i in range(len(b)))


def test_zero_leading_entry_swaps_rows():
    # with no row swap the first pivot is 0.  Every value of the
    # factorization and the solve is dyadic, so the kernel's roundings are
    # exact, also on the coarse grid of the integer right-hand side
    with mp.workdps(50):
        a = [[mp.mpf(v) for v in row]
             for row in ([0, 2, 1], [1, 1, 1], [2, 0, 3])]
        x, e = linalg.lu_solve(linalg.lu_factor(a), ([7, 6, 11], 0))
        assert [mp.ldexp(m, e) for m in x] == [1, 2, 3]
        assert linalg.solve(a, [mp.mpf(7), mp.mpf(6), mp.mpf(11)]) == [1, 2, 3]


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


def _with_mantissa(x, mantissa):
    """The mpf x with its mantissa of the type `mantissa`."""
    sign, man, exp, bc = x._mpf_
    return mp.mp.make_mpf((sign, mantissa(man), exp, bc))


def _kernel_system(case, rng):
    """(a, b) of a kernel test case at the ambient precision: random has
    entries in [-1, 1]; stiff is I - c A for such an A with c = 1e44, the
    scale of the Newton matrix of lambda = -1e45 at dt = 1/4, whose identity
    part sits below the working bits at 15 digits; rows scales row i of
    such an A by 10^(6i), up to 1e42, as the Newton matrix of a system whose
    components differ that much in stiffness."""
    n = 8
    a = [[mp.mpf(rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
    if case == "stiff":
        a = [[(1 if i == j else 0) - mp.mpf(10) ** 44 * x
              for j, x in enumerate(row)] for i, row in enumerate(a)]
    if case == "rows":
        a = [[mp.mpf(10) ** (6 * i) * x for x in row] for i, row in enumerate(a)]
    return a, [mp.mpf(rng.uniform(-1, 1)) for _ in range(n)]


@pytest.mark.parametrize("digits", [15, 120, 510])
@pytest.mark.parametrize("case", ["random", "stiff", "rows"])
@pytest.mark.parametrize("mantissa", [int, Mpz], ids=["int", "mpz"])
def test_kernel_matches_mpmath_at_twice_the_digits(digits, case, mantissa):
    # x from the kernel, rounded to the working bits, is within
    # u (1 + cond(D^-1 a) 2^-GUARD) of the solution mp.lu_solve finds at
    # twice the digits, u the unit of the last bit of max|x|: the rounding of
    # x, and the factorization's rounding GUARD bits past the working ones
    # magnified by the condition number of a with its rows scaled as below.
    # Mantissas of a non-int type give the same integers
    with mp.workdps(digits):
        a, b = _kernel_system(case, random.Random(digits))
        fact = linalg.lu_factor(a)
        # b widened onto the matrix's precision, as linalg.solve does
        bits = mp.mp.prec + linalg.GUARD
        x, e = linalg.lu_solve(fact, linalg._split(b, bits))
        other = linalg.lu_factor([[_with_mantissa(v, mantissa) for v in row]
                                  for row in a])
        man, eb = linalg._split([_with_mantissa(v, mantissa) for v in b], bits)
        assert [list(map(int, row)) for row in other[0]] == fact[0]
        assert linalg.lu_solve(other, (man, eb)) == (x, e)
        x = [linalg._mpf(m, e) for m in x]
        unit = mp.ldexp(max(map(abs, x)), -mp.mp.prec)
    with mp.workdps(2 * digits):
        # the same system with its rows scaled to a largest entry of 1, which
        # mp.lu_solve's absolute singularity test needs for the rows case
        scale = [max(map(abs, row)) for row in a]
        m = mp.matrix([[x / c for x in row] for row, c in zip(a, scale)])
        ref = mp.lu_solve(m, mp.matrix([x / c for x, c in zip(b, scale)]))
        cond = mp.mnorm(m, "inf") * mp.mnorm(mp.inverse(m), "inf")
        assert max(abs(x[i] - ref[i]) for i in range(len(b))) \
            <= unit * (1 + cond * mp.ldexp(1, -linalg.GUARD))


@pytest.mark.parametrize("mantissa", [int, Mpz], ids=["int", "mpz"])
def test_matrix_that_rounds_to_singular_on_its_grid(mantissa):
    # 1 + 2^-(prec + GUARD + 2) rounds to 1 on the grid of the working
    # digits; at twice the digits the matrix is regular
    with mp.workdps(60):
        tiny = mp.ldexp(1, -(mp.mp.prec + linalg.GUARD + 2))
    with mp.workdps(120):
        a = [[mp.mpf(1), mp.mpf(2)], [mp.mpf(1), mp.mpf(2) + tiny]]
        a = [[_with_mantissa(v, mantissa) for v in row] for row in a]
        linalg.lu_factor(a)
    with mp.workdps(60):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.lu_factor(a)


@pytest.mark.parametrize("bad", [mp.mpc(1, 2), mp.inf, mp.nan, 1j],
                         ids=["mpc", "inf", "nan", "complex"])
def test_lu_factor_rejects_entries_that_are_not_finite_reals(bad):
    with mp.workdps(30):
        a = [[mp.mpf(2), mp.mpf(1)], [mp.mpf(1), bad]]
        with pytest.raises(linalg.NotFiniteRealError) as exc:
            linalg.lu_factor(a)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("digits", [45, 120, 510])
@pytest.mark.parametrize("mantissa", [int, Mpz], ids=["int", "mpz"])
def test_newton_update_lands_within_a_unit_of_the_grid_of_k(digits, mantissa):
    # the first Newton update of a pendulum step from k = F(u_0, t_p), as
    # solve_stages makes it: the kernel solves the stacked residual columns
    # and k - x is rounded to the working bits.  It is within 1 unit of that
    # grid of k - x with x from mp.lu_solve at twice the digits
    ctx = make_context(digits)
    tab = build_tableau(3, "gauss-legendre", ctx)
    problem = pendulum().problem
    s, d = tab.stages, problem.dim
    with ctx.workdps(10):
        dt = mp.mpf(1) / 4
        t_p = [problem.t0 + tau * dt for tau in tab.basis.tau]
        bits = mp.mp.prec
        k = [linalg._fit(linalg._split(col), bits) for col in
             zip(*map(problem.rhs, [problem.u0] * s, t_p))]
        man, ea = linalg._split([x for row in tab.a for x in row])
        q = solver.stage_sums(([man[i:i + s] for i in range(0, s * s, s)], ea),
                              k, linalg._split(problem.u0), dt)
        r = [solver._sub(col, linalg._split(f))
             for col, f in zip(k, zip(*map(problem.rhs, q, t_p)))]
        mat = solver._newton_matrix(
            tab, [problem.jacobian(problem.u0, problem.t0)] * s, dt)
        er = min(e for _, e in r)
        b = [mantissa(m[p] << (e - er)) for p in range(s) for m, e in r]
        x, ex = linalg.lu_solve(linalg.lu_factor(
            [[_with_mantissa(v, mantissa) for v in row] for row in mat]), (b, er))
        new = [linalg._fit(solver._sub(col, (x[i::d], ex)), bits)
               for i, col in enumerate(k)]
    with ctx.workdps(2 * digits):
        ref = mp.lu_solve(mp.matrix(mat), mp.matrix(
            [mp.ldexp(m[p], e) for p in range(s) for m, e in r]))
        for i, (man, e) in enumerate(new):
            for p in range(s):
                want = mp.ldexp(k[i][0][p], k[i][1]) - ref[p * d + i]
                assert abs(mp.ldexp(int(man[p]), e) - want) <= mp.ldexp(1, e)


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

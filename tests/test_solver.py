import dataclasses
import gc
import weakref

import mpmath as mp
import pytest
from conftest import Mpz

from aderdg import linalg, solver
from aderdg.arith import make_context
from aderdg.basis import FAMILIES
from aderdg.problems import (dahlquist, harmonic_oscillator, pendulum,
                             polynomial_rhs)
from aderdg.solver import (OdeProblem, SolverError, StageCarry,
                           StageSolveError, eval_local, integrate,
                           solve_stages, stage_sums, stage_tol, step,
                           trajectory_eval)
from aderdg.tableau import build_tableau, stability_function

CTX = make_context(60)
TAB2 = build_tableau(2, "gauss-legendre", CTX)
TAB3 = build_tableau(3, "gauss-legendre", CTX)


def test_zero_rhs_keeps_constant_state():
    with CTX.workdps():
        prob = OdeProblem(dim=2, rhs=lambda u, t: (mp.mpf(0), mp.mpf(0)),
                          jacobian=lambda u, t: ((0, 0), (0, 0)),
                          t0=mp.mpf(0), tf=mp.mpf(1),
                          u0=(mp.mpf(3), mp.mpf(-2)))
        loc = step(TAB2, prob, prob.u0, prob.t0, mp.mpf(1), CTX)
        for row in loc.qhat:
            assert max(abs(a - b) for a, b in zip(row, prob.u0)) < CTX.identity_tol
        assert max(abs(a - b) for a, b in zip(loc.u_next, prob.u0)) < CTX.identity_tol


def test_constant_rhs_gives_linear_predictor():
    with CTX.workdps():
        c = mp.mpf(7) / 3
        prob = OdeProblem(dim=1, rhs=lambda u, t: (c,),
                          jacobian=lambda u, t: ((0,),),
                          t0=mp.mpf(0), tf=mp.mpf(1), u0=(mp.mpf(1),))
        dt = mp.mpf(1) / 2
        loc = step(TAB3, prob, prob.u0, prob.t0, dt, CTX)
        for p in range(TAB3.stages):
            expect = 1 + dt * TAB3.basis.tau[p] * c
            assert abs(loc.qhat[p][0] - expect) < CTX.identity_tol


def test_single_step_matches_stability_function():
    with CTX.workdps():
        lam = mp.mpf(-10) ** 2 * -1  # -100
        entry = dahlquist(lam)
        traj = integrate(TAB3, entry.problem, 1, CTX)
        r = stability_function(TAB3, lam, CTX)
        tol = 10 * stage_tol(CTX)
        assert abs(traj.values[-1][0] - r) <= tol


def test_harmonic_accuracy():
    entry = harmonic_oscillator()
    traj = integrate(TAB3, entry.problem, 24, CTX)
    with CTX.workdps():
        ex = entry.problem.exact(traj.times[-1])
        err = max(abs(a - b) for a, b in zip(traj.values[-1], ex))
        assert err < mp.mpf(10) ** -6


def test_picard_mode_converges_when_contractive():
    entry = harmonic_oscillator()
    traj = integrate(TAB2, entry.problem, 60, CTX, picard=True)
    with CTX.workdps():
        ex = entry.problem.exact(traj.times[-1])
        assert max(abs(a - b) for a, b in zip(traj.values[-1], ex)) < 1e-4


def test_picard_step_factors_no_matrix(monkeypatch):
    def no_lu(mat):
        raise AssertionError("Picard iteration factored a matrix")

    monkeypatch.setattr(linalg, "lu_factor", no_lu)
    entry = harmonic_oscillator()
    with CTX.workdps():
        dt = mp.mpf(1) / 10
        k, qhat, _ = solve_stages(TAB2, entry.problem, entry.problem.u0,
                                  entry.problem.t0, dt, CTX, picard=True)
        for p in range(TAB2.stages):
            t_p = entry.problem.t0 + TAB2.basis.tau[p] * dt
            f = entry.problem.rhs(qhat[p], t_p)
            assert max(abs(k[p][i] - f[i]) for i in range(2)) \
                <= 10 * stage_tol(CTX)
    with pytest.raises(AssertionError):
        step(TAB2, entry.problem, entry.problem.u0, entry.problem.t0, dt, CTX)


def test_picard_contraction_bound_refused():
    entry = dahlquist(-1000)
    with pytest.raises(SolverError):
        integrate(TAB2, entry.problem, 1, CTX, picard=True)


def test_newton_nonconvergence_reports_interval(monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    entry = pendulum()
    with pytest.raises(StageSolveError) as exc:
        integrate(TAB2, entry.problem, 2, CTX)
    assert exc.value.interval == 0


@pytest.mark.parametrize("picard", [False, True], ids=["newton", "picard"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("first_bad", [7, 200])
def test_non_finite_rhs_raises_stage_solve_error(bad, picard, first_bad):
    # F turns non-finite from its first_bad-th call on: call 7 is in a
    # residual of interval 0, after the 3 calls F(u_n, t_p), its first
    # residual from k = 0, and the residual of the first correction, and
    # call 200 in a later interval.  The error names the interval of that call
    problem = pendulum().problem
    m = 16
    calls, bad_t = [0], []

    def rhs(u, t):
        calls[0] += 1
        if calls[0] < first_bad:
            return problem.rhs(u, t)
        bad_t.append(t)
        return (mp.mpf(bad), u[0])

    with pytest.raises(StageSolveError) as exc:
        integrate(TAB2, dataclasses.replace(problem, rhs=rhs), m, CTX,
                  picard=picard)
    with CTX.workdps():
        interval = int(bad_t[0] / ((problem.tf - problem.t0) / m))
    assert exc.value.interval == interval
    assert interval > 0 or first_bad == 7


def _kernel_case(case, tab):
    """(k, u) of a kernel test case: pendulum has k = F(u_0, t_p) from
    u_0 = (pi/2, 0), whose first column is zero; mixed has entries of both
    signs over 60 decades in a column, a zero u component and a zero
    column."""
    s = tab.stages
    if case == "pendulum-f0":
        problem = pendulum().problem
        return ([problem.rhs(problem.u0, tp) for tp in tab.basis.tau],
                problem.u0)
    return ([[(-1) ** p * mp.mpf(p + 1) / 3 * mp.mpf(10) ** (3 * p - 7),
              -(mp.mpf(7) / 3) ** p * mp.mpf(10) ** (-20 * p), mp.mpf(0)]
             for p in range(s)], (mp.mpf(1) / 7, mp.mpf("-3e-30"), mp.mpf(0)))


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-right"])
@pytest.mark.parametrize("case", ["pendulum-f0", "mixed"])
@pytest.mark.parametrize("extra", [10, -30], ids=["working", "reduced"])
@pytest.mark.parametrize("mantissa", [int, Mpz], ids=["int", "mpz"])
def test_stage_sums_round_the_exact_sums_once(family, case, extra, mantissa):
    # every stage state and the corrector row, u_i + dt sum_q a_pq k_qi,
    # equals the sum at twice the digits rounded once to the ambient ones;
    # also with mantissas of a non-int type, which mpmath's gmpy2 backend
    # gives and int's own methods (int.__mul__) reject
    tab = build_tableau(3, family, CTX)
    s = tab.stages
    k, u = _kernel_case(case, tab)
    rows = [*tab.a, tab.basis.w]

    def split(xs):
        man, e = solver._split(xs)
        return [mantissa(m) for m in man], e
    man, e = split([x for row in rows for x in row])
    a = [man[i:i + s] for i in range(0, len(man), s)], e
    cols = [split(col) for col in zip(*k)]
    with CTX.workdps(10):
        dt = mp.mpf(1) / 3
    with mp.workdps(2 * tab.basis.work_dps):
        exact = [[u[i] + dt * mp.fsum(row[q] * k[q][i] for q in range(s))
                  for i in range(len(u))] for row in rows]
    with CTX.workdps(extra):
        expect = [[+x for x in row] for row in exact]
        assert stage_sums(a, cols, split(u), dt) == expect


def test_integrate_keeps_nothing_once_the_trajectory_is_dropped():
    # the integer split of a lives in the StageCarry of one integrate call:
    # no module-level cache keeps the tableau alive
    tab = build_tableau(2, "gauss-legendre", CTX)
    alive = weakref.ref(tab)
    traj = integrate(tab, pendulum().problem, 4, CTX)
    del tab, traj
    gc.collect()
    assert alive() is None


def test_eval_local_snaps_stored_nodes():
    # the stored row verbatim, at mpmath's default 15 digits and at the
    # working precision, both below the digits the basis is stored at
    entry = harmonic_oscillator()
    traj = integrate(TAB3, entry.problem, 4, CTX)
    loc = traj.locals[1]
    for ambient in (mp.workdps(15), CTX.workdps()):
        with ambient:
            assert mp.mp.dps < TAB3.basis.work_dps
            for p, tp in enumerate(TAB3.basis.tau):
                t = loc.t_n + tp * loc.dt_n
                assert eval_local(loc, TAB3.basis, t) == tuple(loc.qhat[p])


def test_eval_local_outside_interval():
    entry = harmonic_oscillator()
    traj = integrate(TAB3, entry.problem, 4, CTX)
    with CTX.workdps():
        loc = traj.locals[0]
        with pytest.raises(SolverError):
            eval_local(loc, TAB3.basis, loc.t_n + 2 * loc.dt_n)


def test_trajectory_eval_left_interval_at_nodes():
    # an interior grid node resolves to the interval ending there, where
    # the piecewise polynomial agrees with the node value
    entry = harmonic_oscillator()
    traj = integrate(TAB3, entry.problem, 6, CTX)
    with CTX.workdps():
        tol = 10 * stage_tol(CTX)
        for i in range(1, len(traj.times)):
            v = trajectory_eval(traj, traj.times[i])
            assert max(abs(a - b) for a, b in zip(v, traj.values[i])) <= tol
        with pytest.raises(SolverError):
            trajectory_eval(traj, traj.times[-1] + 1)


def test_trajectory_eval_outside_domain_names_t():
    entry = dahlquist(-1)
    traj = integrate(TAB2, entry.problem, 2, CTX)
    with CTX.workdps():
        with pytest.raises(SolverError,
                           match=r"^t=2\.5 outside trajectory domain$"):
            trajectory_eval(traj, mp.mpf("2.5"))


@pytest.mark.parametrize("dt", [0, -1])
def test_solve_stages_refuses_a_step_that_is_not_positive(dt):
    problem = harmonic_oscillator().problem
    with CTX.workdps(), pytest.raises(SolverError, match="dt must be positive"):
        solve_stages(TAB2, problem, problem.u0, problem.t0, mp.mpf(dt), CTX)


def test_bad_grids_rejected():
    entry = harmonic_oscillator()
    with pytest.raises(SolverError):
        integrate(TAB2, entry.problem, 0, CTX)


def test_problem_rejects_empty_interval():
    with pytest.raises(SolverError):
        OdeProblem(dim=1, rhs=lambda u, t: (u[0],),
                   jacobian=lambda u, t: ((1,),),
                   t0=mp.mpf(1), tf=mp.mpf(1), u0=(mp.mpf(1),))


def test_stage_solution_consistency():
    # qhat rows are the stage states of k and reproduce the defining
    # algebraic system; step stores that qhat
    entry = pendulum()
    u0 = entry.problem.u0
    with CTX.workdps():
        dt = mp.mpf(1) / 4
        k, qhat, _ = solve_stages(TAB2, entry.problem, u0, entry.problem.t0,
                                  dt, CTX)
        tol = 10 * stage_tol(CTX)
        for p in range(TAB2.stages):
            t_p = entry.problem.t0 + TAB2.basis.tau[p] * dt
            f = entry.problem.rhs(qhat[p], t_p)
            assert max(abs(k[p][i] - f[i]) for i in range(2)) <= tol
            state = [u0[i] + dt * mp.fsum(TAB2.a[p][q] * k[q][i]
                                          for q in range(TAB2.stages))
                     for i in range(2)]
            assert max(abs(a - b) for a, b in zip(qhat[p], state)) \
                <= CTX.identity_tol
        assert step(TAB2, entry.problem, u0, entry.problem.t0, dt,
                    CTX).qhat == qhat


def _count_lu(monkeypatch):
    """Patch linalg's LU calls to record the precision of each
    factorization and count the solves."""
    calls = {"factor_dps": [], "solves": 0}
    lu_factor, lu_solve = linalg.lu_factor, linalg.lu_solve

    def factor(a):
        calls["factor_dps"].append(mp.mp.dps)
        return lu_factor(a)

    def solve(fact, b):
        calls["solves"] += 1
        return lu_solve(fact, b)

    monkeypatch.setattr(linalg, "lu_factor", factor)
    monkeypatch.setattr(linalg, "lu_solve", solve)
    return calls


@pytest.mark.parametrize("entry, m", [(dahlquist(-10 ** 4), 16),
                                      (harmonic_oscillator(), 8),
                                      (dahlquist(-10 ** 8), 8)],
                         ids=["dahlquist", "harmonic", "dahlquist-1e8"])
def test_linear_problem_factors_once_per_integrate(monkeypatch, entry, m):
    # the Newton factorization is carried from step to step, so a linear
    # constant-coefficient problem factors once and takes one iteration
    # per step.  (With m = 16, lam = -1e8 takes u_n below the absolute
    # 1e-40 of the tolerance scale, and later steps converge with no
    # iteration at all.)
    calls = _count_lu(monkeypatch)
    integrate(TAB2, entry.problem, m, CTX)
    assert (len(calls["factor_dps"]), calls["solves"]) == (1, m)


@pytest.mark.parametrize("lam", ["-1e32", "-1e45"])
def test_stiff_linear_solve_converges_at_its_rounding_floor(lam):
    # the residual's rounding floor grows with |lam u_n|, far past an
    # absolute 1e-40 at 60 digits.  Node i is R(lam dt)^i with dt = 1/4 to
    # the stage tolerance, absolute for these |u| <= 1: the update
    # u_n + dt sum_p w_p k_p cancels log10|lam dt| digits, so the tiny
    # nodes carry no relative accuracy at 60 digits
    traj = integrate(TAB2, dahlquist(lam).problem, 4, CTX)
    with CTX.workdps():
        r = stability_function(TAB2, mp.mpf(lam) / 4, CTX)
        for i, u in enumerate(traj.values):
            assert abs(u[0] - r ** i) <= stage_tol(CTX)


@pytest.mark.parametrize("lam", ["-1e60", "-1e90"])
def test_newton_keeps_the_digits_of_a_slow_component(lam):
    # u' = (lam u_0, -u_1): the Newton matrix's rows of the two components
    # differ by |lam| in scale.  The slow component must still be the scalar
    # Dahlquist solve of lambda = -1, to the stage tolerance, since each row
    # keeps its digits in the LU (on one grid for the whole matrix, lam =
    # -1e60 cost it 31 digits and -1e90 rounded the matrix to singular)
    with CTX.workdps():
        lam = mp.mpf(lam)
        problem = OdeProblem(dim=2, rhs=lambda u, t: (lam * u[0], -u[1]),
                             jacobian=lambda u, t: ((lam, 0), (0, -1)),
                             t0=mp.mpf(0), tf=mp.mpf(1),
                             u0=(mp.mpf(1), mp.mpf(1)))
    traj = integrate(TAB2, problem, 4, CTX)
    slow = integrate(TAB2, dahlquist(-1).problem, 4, CTX)
    with CTX.workdps():
        assert max(abs(u[1] - v[0]) for u, v in zip(traj.values, slow.values)) \
            <= stage_tol(CTX)


def _factored_for(tab, problem, dt):
    with mp.workdps(tab.basis.work_dps):
        jacs = [problem.jacobian(problem.u0, problem.t0)] * tab.stages
        return linalg.lu_factor(solver._newton_matrix(tab, jacs, dt))


def test_carried_matrix_sets_only_the_rate():
    # a carried factorization built for 10 dt converges to the stages of a
    # fresh solve
    problem = pendulum().problem
    with CTX.workdps():
        dt = mp.mpf(1) / 4
        fresh, _, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
        carry = StageCarry(lu=_factored_for(TAB2, problem, 10 * dt))
        k, _, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX,
                               carry=carry)
        assert max(abs(a - b) for ka, kb in zip(k, fresh)
                   for a, b in zip(ka, kb)) <= 10 * stage_tol(CTX)


def test_refresh_precision(monkeypatch):
    # a scheduled refresh is factored at the digits the stage states carry,
    # below the working precision; a refresh forced by a stall is factored
    # at the working precision.  Every refresh evaluates its one Jacobian
    # per stage at the digits it is factored at
    ctx = make_context(120)
    tab = build_tableau(2, "gauss-legendre", ctx)
    pend = pendulum().problem
    jac_dps = []

    def jacobian(u, t):
        jac_dps.append(mp.mp.dps)
        return pend.jacobian(u, t)

    problem = dataclasses.replace(pend, jacobian=jacobian)

    def per_stage(factor_dps):
        return [dps for dps in factor_dps for _ in range(tab.stages)]

    with ctx.workdps():
        dt = mp.mpf(1) / 4
        # the wrong sign makes the first iteration stall, long before the
        # first scheduled refresh
        wrong = _factored_for(tab, problem, -10 * dt)
        calls = _count_lu(monkeypatch)
        jac_dps.clear()
        solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx)
        full, scheduled = calls["factor_dps"][0], calls["factor_dps"][1:]
        assert full > ctx.decimal_digits
        assert scheduled and max(scheduled) < full
        # the first matrix takes the one Jacobian at (u_n, t_n) for all stages
        assert jac_dps == [full] + per_stage(scheduled)
        calls["factor_dps"].clear()
        jac_dps.clear()
        solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx,
                     carry=StageCarry(lu=wrong))
        assert calls["factor_dps"][0] == full
        assert jac_dps == per_stage(calls["factor_dps"])


def test_singular_rounded_refresh_is_refactored(monkeypatch):
    # a refresh whose rounded matrix factors as singular is factored again
    # at the working precision instead of failing the step
    problem = pendulum().problem
    with CTX.workdps():
        dt = mp.mpf(1) / 4
        fresh, _, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
        lu_factor, dps = linalg.lu_factor, []

        def factor(a):
            dps.append(mp.mp.dps)
            if mp.mp.dps < CTX.decimal_digits:
                raise linalg.SingularMatrixError("rounded to singular")
            return lu_factor(a)

        monkeypatch.setattr(linalg, "lu_factor", factor)
        k, _, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
        assert min(dps) < CTX.decimal_digits and dps[-1] > CTX.decimal_digits
        assert max(abs(a - b) for ka, kb in zip(k, fresh)
                   for a, b in zip(ka, kb)) <= 10 * stage_tol(CTX)


def _record_digits(monkeypatch, problem):
    """The problem with an rhs that records mp.mp.dps at each call, and the
    list of per-step call records it fills."""
    steps = [[]]
    rhs, solve = problem.rhs, solver.solve_stages

    def recording(u, t):
        steps[-1].append(mp.mp.dps)
        return rhs(u, t)

    def solve_and_mark(*args, **kwargs):
        out = solve(*args, **kwargs)
        steps.append([])
        return out

    monkeypatch.setattr(solver, "solve_stages", solve_and_mark)
    return dataclasses.replace(problem, rhs=recording), steps


@pytest.mark.parametrize("digits, n, m, picard", [(200, 8, 16, False),
                                                  (60, 4, 32, True)],
                         ids=["newton", "picard"])
def test_precision_schedule(monkeypatch, digits, n, m, picard):
    # step 0 has no start guess, so it starts from k = 0: its first s calls,
    # F(u_n, t_p), are its first residual, at the working digits, and it
    # runs every sweep at them.  Every later step keeps the start extended
    # from the last interval and takes F(u_n, t_p) at FACTOR_GUARD digits,
    # for the tolerance scale alone; it evaluates its first residual below
    # the working digits, from the decade the last step's first correction
    # reached, and ends on a residual evaluated at them
    ctx = make_context(digits)
    tab = build_tableau(n, "gauss-legendre", ctx)
    problem, steps = _record_digits(monkeypatch, pendulum().problem)
    integrate(tab, problem, m, ctx, picard=picard)
    full, s = ctx.decimal_digits + 10, tab.stages
    steps = steps[:-1]
    assert len(steps) == m
    assert set(steps[0]) == {full}
    for calls in steps[1:]:
        assert calls[:s] == [solver.FACTOR_GUARD] * s
        assert calls[s] < full and calls[2 * s] < full
        assert calls[-s:] == [full] * s


@pytest.mark.parametrize("entry", [harmonic_oscillator(), dahlquist(-10 ** 4)],
                         ids=["harmonic", "dahlquist"])
def test_linear_steps_start_from_zero(monkeypatch, entry):
    # a linear step converges after one correction, so the next step starts
    # from k = 0, as step 0 does: its states are u_n, and F(u_n, t_p) at the
    # working digits is its first residual, with no stage-sum pass.  A step
    # makes 2 stage-sum passes, the residual of the correction and u_next,
    # and 2s rhs calls; from the start extended from the last interval it
    # made 3 and 3s
    problem, steps = _record_digits(monkeypatch, entry.problem)
    sums = solver.stage_sums

    def recording(*args):
        steps[-1].append("sums")
        return sums(*args)

    monkeypatch.setattr(solver, "stage_sums", recording)
    integrate(TAB3, problem, 8, CTX)
    full, s = CTX.decimal_digits + 10, TAB3.stages
    assert steps[:-1] == [[full] * s + ["sums"] + [full] * s + ["sums"]] * 8


def test_coarse_first_residual_is_widened_for_the_solve(monkeypatch):
    # from k = 0 the first residual of dahlquist(-31623) is -F(u_0) = 31623,
    # a 15-bit integer.  It reaches lu_solve widened to the bits of the
    # matrix's rows: on its own grid 2^0 the correction is good to about 7
    # decades and needs two more.  So step 0 converges after one correction,
    # and every step makes one Newton solve
    ctx = make_context(500)
    tab = build_tableau(8, "gauss-legendre", ctx)
    problem = dahlquist(-31623).problem
    calls = _count_lu(monkeypatch)
    carry = StageCarry()
    with ctx.workdps():
        solve_stages(tab, problem, problem.u0, problem.t0, mp.mpf(1) / 128, ctx,
                     carry=carry)
    assert (calls["solves"], carry.decade) == (1, ctx.decimal_digits + 10)
    integrate(tab, problem, 128, ctx)
    assert (len(calls["factor_dps"]), calls["solves"]) == (2, 1 + 128)


def test_floor_recheck_is_not_a_stall(monkeypatch):
    # a start guess far better than its carried decade leaves the first
    # residual at the rounding floor of the reduced digits; it is evaluated
    # again at the working digits, where it meets the tolerance, instead of
    # feeding a correction made of rounding noise and then a stall refresh
    ctx = make_context(120)
    tab = build_tableau(4, "gauss-legendre", ctx)
    problem = pendulum().problem
    with ctx.workdps():
        dt = mp.mpf(1) / 4
        carry = StageCarry()
        k, _, _ = solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx,
                               carry=carry)
        calls = _count_lu(monkeypatch)
        again, _, _ = solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx,
                                   carry=StageCarry(lu=carry.lu, decade=0, start=k))
        assert (calls["factor_dps"], calls["solves"]) == ([], 0)
        assert again == tuple(map(tuple, k))


@pytest.mark.parametrize("bad", ["inf", "nan", "past bound"])
def test_wild_start_guess_falls_back(bad):
    # a start guess that is not finite, or exceeds the tolerance scale
    # (here 1) START_BOUND times, is dropped for k = 0, and the step repeats
    # the one started with no guess
    problem = pendulum().problem
    with CTX.workdps():
        dt = mp.mpf(1) / 4
        x = 2 * solver.START_BOUND if bad == "past bound" else mp.mpf(bad)
        guess = [[x, x]] * TAB2.stages
        plain = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
        assert solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX,
                            carry=StageCarry(start=guess)) == plain


def test_one_correction_carries_the_working_digits():
    # a step whose first correction meets the tolerance carries the working
    # digits as its decade, so the next step starts at them
    entry = dahlquist(-10 ** 4)
    with CTX.workdps():
        carry = StageCarry(decade=CTX.decimal_digits - 20)
        solve_stages(TAB2, entry.problem, entry.problem.u0, entry.problem.t0,
                     mp.mpf(1) / 16, CTX, carry=carry)
    assert carry.decade == CTX.decimal_digits + 10


def test_pendulum_newton_counts(monkeypatch):
    # the benchmark's pendulum solve: 219 Newton iterations and 33
    # factorizations at the working digits when every step started from
    # k = F(u_n); the precision schedule, whose refreshes raise the predicted
    # gain, and the extended start take fewer iterations and no more
    # factorizations, and step 0's start from k = 0 takes as many as k = F(u_n)
    ctx = make_context(500)
    tab = build_tableau(8, "gauss-legendre", ctx)
    calls = _count_lu(monkeypatch)
    integrate(tab, pendulum().problem, 16, ctx)
    assert (calls["solves"], len(calls["factor_dps"])) == (208, 33)


def test_picard_rhs_calls():
    # the benchmark's Picard solve: 12,465 calls when every step started
    # from k = F(u_n) at the working digits, fewer from the start extended
    # from the last interval.  Step 0 starts from k = 0 with as many: its
    # first residual is -F(u_n, t_p) and its first correction is F(u_n, t_p)
    ctx = make_context(60)
    tab = build_tableau(8, "gauss-legendre", ctx)
    problem = pendulum().problem
    count = [0]

    def counting(u, t):
        count[0] += 1
        return problem.rhs(u, t)

    integrate(tab, dataclasses.replace(problem, rhs=counting), 64, ctx,
              picard=True)
    assert count[0] == 10035


@pytest.fixture(scope="module")
def family_tableaux():
    # 50 digits: the least at which N = 12 builds (0.7 N + 40)
    ctx = make_context(50)
    return ctx, {(n, f): build_tableau(n, f, ctx) for n in range(13) for f in FAMILIES}


@pytest.mark.parametrize("entry, norm, n_min", [
    (harmonic_oscillator(), 1, 0), (dahlquist(-10 ** 6), 10 ** 6, 0),
    (dahlquist(20), 20, 0), (polynomial_rhs(2, 1), 0, 2)],
    ids=["harmonic", "dahlquist-1e6", "dahlquist20", "poly:2:1"])
def test_families_agree_on_linear_problems(family_tableaux, entry, norm, n_min):
    # No reference: on u' = L u the weak form's integrands have degree 2N,
    # which every family's rule integrates exactly, so every family's
    # predictor is the same degree-N polynomial (for u' = p(t) the degree is
    # N + deg p, so poly:2:1 runs from N = 2).  Newton from k = 0 with the
    # exact matrix lands on the rounding floor in one correction, so the
    # families' node values differ by rounding alone.  A step rounds s + 1
    # stage sums and an s-stage LU solve at d + 10 digits, each within s
    # units of their last place relative to the step's largest value, and
    # the cancellation of u_n + dt sum_p w_p k_p scales that by 1 + |L| dt:
    # node i is allowed i s^2 (1 + |L| dt) max_{j<=i} |u_j| unit_roundoff,
    # where unit_roundoff = 10^-d leaves 10^10 for the conditioning of the
    # stage system.  A step whose |F(u_n)| is within stage_tol may accept
    # k = 0 and keep u_n, 2 |u_n| <= 2 stage_tol / |L| off R u_n: that adds
    # to every later node.  A dense value sums s basis values times the
    # stage states, so it is allowed s times its interval's end bound
    ctx, tabs = family_tableaux
    m, taus = 2, (mp.mpf(1) / 3, mp.mpf(3) / 4)
    for n in range(n_min, 13):
        s = n + 1
        runs = [integrate(tabs[n, f], entry.problem, m, ctx) for f in FAMILIES]
        with ctx.workdps(10):
            first = runs[0]
            dt = first.times[1] - first.times[0]
            scale = bound = mp.mpf(0)
            for i, u in enumerate(first.values):
                if i and norm and norm * max(map(abs, first.values[i - 1])) <= stage_tol(ctx):
                    bound += 2 * stage_tol(ctx) / norm
                scale = max([scale] + [abs(x) for x in u])
                node = bound + i * s * s * (1 + norm * dt) * scale * ctx.unit_roundoff
                for run in runs[1:]:
                    assert max(abs(a - b) for a, b in zip(run.values[i], u)) <= node, \
                        (n, run.tableau.basis.family, i)
                    if i == 0:
                        continue
                    for tau in taus:
                        t = first.times[i - 1] + tau * dt
                        got = eval_local(run.locals[i - 1], run.tableau.basis, t)
                        want = eval_local(first.locals[i - 1], first.tableau.basis, t)
                        assert max(abs(a - b) for a, b in zip(got, want)) <= s * node, \
                            (n, run.tableau.basis.family, i, tau)

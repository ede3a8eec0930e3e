import dataclasses

import mpmath as mp
import pytest

from aderdg import linalg, solver
from aderdg.arith import make_context
from aderdg.problems import dahlquist, harmonic_oscillator, pendulum
from aderdg.solver import (OdeProblem, SolverError, StageSolveError,
                           eval_local, integrate, solve_stages, stage_tol,
                           step, trajectory_eval)
from aderdg.tableau import build_tableau, stability_function

CTX = make_context(60)
TAB2 = build_tableau(2, "gauss-legendre", CTX)
TAB3 = build_tableau(3, "gauss-legendre", CTX)


def test_zero_rhs_keeps_constant_state():
    with CTX.workdps():
        prob = OdeProblem(dim=2, rhs=lambda u, t: (mp.mpf(0), mp.mpf(0)),
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


def test_jacobian_modes_agree():
    # the analytic Jacobian and central differences (used when a problem
    # has no Jacobian) converge to the same stages
    entry = pendulum()
    fd_problem = dataclasses.replace(entry.problem, jacobian=None)
    analytic = integrate(TAB2, entry.problem, 8, CTX).values[-1]
    fd = integrate(TAB2, fd_problem, 8, CTX).values[-1]
    with CTX.workdps():
        dev = max(abs(a - b) for a, b in zip(analytic, fd))
        assert dev < mp.mpf(10) ** -35


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
        k, qhat = solve_stages(TAB2, entry.problem, entry.problem.u0,
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


def test_eval_local_snaps_stored_nodes():
    entry = harmonic_oscillator()
    traj = integrate(TAB3, entry.problem, 4, CTX)
    with CTX.workdps():
        loc = traj.locals[1]
        for p, tp in enumerate(TAB3.basis.tau):
            t = loc.t_n + tp * loc.dt_n
            got = eval_local(loc, TAB3.basis, t)
            assert got == tuple(loc.qhat[p])


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


def test_bad_grids_rejected():
    entry = harmonic_oscillator()
    with pytest.raises(SolverError):
        integrate(TAB2, entry.problem, 0, CTX)


def test_problem_rejects_empty_interval():
    with pytest.raises(SolverError):
        OdeProblem(dim=1, rhs=lambda u, t: (u[0],),
                   t0=mp.mpf(1), tf=mp.mpf(1), u0=(mp.mpf(1),))


def test_stage_solution_consistency():
    # qhat rows are the stage states of k and reproduce the defining
    # algebraic system; step stores that qhat
    entry = pendulum()
    u0 = entry.problem.u0
    with CTX.workdps():
        dt = mp.mpf(1) / 4
        k, qhat = solve_stages(TAB2, entry.problem, u0, entry.problem.t0,
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
        fresh, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
        newton = [_factored_for(TAB2, problem, 10 * dt)]
        k, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX,
                            newton=newton)
        assert max(abs(a - b) for ka, kb in zip(k, fresh)
                   for a, b in zip(ka, kb)) <= 10 * stage_tol(CTX)


def test_refresh_precision(monkeypatch):
    # a scheduled refresh is factored at the digits the stage states carry,
    # below the working precision; a refresh forced by a stall is factored
    # at the working precision
    ctx = make_context(120)
    tab = build_tableau(2, "gauss-legendre", ctx)
    problem = pendulum().problem
    with ctx.workdps():
        dt = mp.mpf(1) / 4
        # the wrong sign makes the first iteration stall, long before the
        # first scheduled refresh
        wrong = _factored_for(tab, problem, -10 * dt)
        calls = _count_lu(monkeypatch)
        solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx)
        full, scheduled = calls["factor_dps"][0], calls["factor_dps"][1:]
        assert full > ctx.decimal_digits
        assert scheduled and max(scheduled) < full
        calls["factor_dps"].clear()
        solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx,
                     newton=[wrong])
        assert calls["factor_dps"][0] == full


def test_singular_rounded_refresh_is_refactored(monkeypatch):
    # a refresh whose rounded matrix factors as singular is factored again
    # at the working precision instead of failing the step
    problem = pendulum().problem
    with CTX.workdps():
        dt = mp.mpf(1) / 4
        fresh, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
        lu_factor, dps = linalg.lu_factor, []

        def factor(a):
            dps.append(mp.mp.dps)
            if mp.mp.dps < CTX.decimal_digits:
                raise linalg.SingularMatrixError("rounded to singular")
            return lu_factor(a)

        monkeypatch.setattr(linalg, "lu_factor", factor)
        k, _ = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
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
    # step 0 runs at the working digits; every later step evaluates its
    # first residual below them, from the decade the last step's first
    # correction reached, and ends on a residual evaluated at them.  The
    # first s calls of a step are F(u_n, t_p) for the tolerance scale
    ctx = make_context(digits)
    tab = build_tableau(n, "gauss-legendre", ctx)
    problem, steps = _record_digits(monkeypatch, pendulum().problem)
    integrate(tab, problem, m, ctx, picard=picard)
    full, s = ctx.decimal_digits + 10, tab.stages
    steps = steps[:-1]
    assert len(steps) == m
    assert set(steps[0]) == {full}
    for calls in steps[1:]:
        assert calls[:s] == [full] * s
        assert calls[s] < full and calls[2 * s] < full
        assert calls[-s:] == [full] * s


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
        newton = [None]
        k, _ = solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx,
                            newton=newton)
        calls = _count_lu(monkeypatch)
        again, _ = solve_stages(tab, problem, problem.u0, problem.t0, dt, ctx,
                                newton=[newton[0], 0, k])
        assert (calls["factor_dps"], calls["solves"]) == ([], 0)
        assert again == tuple(map(tuple, k))


@pytest.mark.parametrize("bad", ["inf", "nan", "past bound"])
def test_wild_start_guess_falls_back(bad):
    # a start guess that is not finite, or exceeds the tolerance scale
    # (here 1) START_BOUND times, is replaced by k_p = F(u_n, t_p), and the
    # step repeats the one started with no guess
    problem = pendulum().problem
    with CTX.workdps():
        dt = mp.mpf(1) / 4
        x = 2 * solver.START_BOUND if bad == "past bound" else mp.mpf(bad)
        guess = [[x, x]] * TAB2.stages
        plain = solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX)
        assert solve_stages(TAB2, problem, problem.u0, problem.t0, dt, CTX,
                            newton=[None, None, guess]) == plain


def test_one_correction_carries_the_working_digits():
    # a step whose first correction meets the tolerance carries the working
    # digits as its decade, so the next step starts at them
    entry = dahlquist(-10 ** 4)
    with CTX.workdps():
        newton = [None, CTX.decimal_digits - 20, None]
        solve_stages(TAB2, entry.problem, entry.problem.u0, entry.problem.t0,
                     mp.mpf(1) / 16, CTX, newton=newton)
    assert newton[1] == CTX.decimal_digits + 10


def test_pendulum_newton_counts(monkeypatch):
    # the benchmark's pendulum solve: 219 Newton iterations and 33
    # factorizations at the working digits from k = F(u_n); the precision
    # schedule, whose refreshes raise the predicted gain, and the extended
    # start take fewer iterations and no more factorizations
    ctx = make_context(500)
    tab = build_tableau(8, "gauss-legendre", ctx)
    calls = _count_lu(monkeypatch)
    integrate(tab, pendulum().problem, 16, ctx)
    assert (calls["solves"], len(calls["factor_dps"])) == (208, 33)


def test_picard_rhs_calls():
    # the benchmark's Picard solve: 12,465 calls from k = F(u_n) at the
    # working digits, fewer from the start extended from the last interval
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

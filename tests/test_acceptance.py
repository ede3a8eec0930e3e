"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line; the heavy convergence sweeps
are shared through session fixtures so the interval-seam criterion can
reuse their trajectories.
"""

import cmath
import random

import mpmath as mp
import pytest

from aderdg.analysis import (convergence_study, fit_order,
                             interface_identity_residual)
from aderdg.arith import make_context
from aderdg.problems import harmonic_oscillator, pendulum, polynomial_rhs
from aderdg.solver import eval_local, integrate, stage_tol
from aderdg.tableau import (build_q_m, build_tableau, check_simplifying,
                            pade_exp, stability_function, verify_lemma21)

M_SWEEP = [4, 6, 8, 10, 12, 14, 16, 18]


def _report(num, name, ok, detail=""):
    line = f"CRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def ctx120():
    return make_context(120)


@pytest.fixture(scope="session")
def tabs120(ctx120):
    return {n: build_tableau(n, "gauss-legendre", ctx120)
            for n in range(1, 13)}


@pytest.fixture(scope="session")
def harmonic_study():
    ctx = make_context(500)
    entry = harmonic_oscillator()
    table = convergence_study(entry, [2, 3, 4, 8], M_SWEEP, ctx)
    return ctx, table


@pytest.fixture(scope="session")
def pendulum_study():
    ctx = make_context(500)
    entry = pendulum()
    table = convergence_study(entry, [2, 4], M_SWEEP, ctx)
    return ctx, table


@pytest.fixture(scope="session")
def polynomial_runs():
    ctx = make_context(120)
    runs = []
    for s in range(20):
        n = 2 + s % 5
        deg = s % n
        entry = polynomial_rhs(deg, s)
        tab = build_tableau(n, "gauss-legendre", ctx)
        traj = integrate(tab, entry.problem, 3, ctx)
        runs.append((n, deg, entry, traj))
    return ctx, runs


def test_criterion_01_tableau_identities(ctx120, tabs120):
    bound = mp.mpf(10) ** -110
    worst = mp.mpf(0)
    with ctx120.workdps():
        for n in range(1, 13):
            worst = max(worst, max(verify_lemma21(tabs120[n], ctx120)))
    _report(1, "coupling identities N=1..12", worst <= bound,
            f"max residual {mp.nstr(worst, 3)}")


def test_criterion_02_simplifying_conditions(ctx120, tabs120):
    bound = mp.mpf(10) ** -110
    with ctx120.workdps():
        worst = mp.mpf(0)
        cn1_min = mp.inf
        for n in range(1, 13):
            tab = tabs120[n]
            worst = max(worst,
                        check_simplifying(tab, "B", 2 * n + 2, ctx120),
                        check_simplifying(tab, "C", n, ctx120),
                        check_simplifying(tab, "D", n, ctx120))
            cn1_min = min(cn1_min, check_simplifying(tab, "C", n + 1, ctx120))
        c2 = check_simplifying(tabs120[1], "C", 2, ctx120)
        c2_dev = abs(c2 - mp.sqrt(3) / 36)
        ok = (worst <= bound and cn1_min >= mp.mpf(10) ** -20
              and c2_dev <= mp.mpf(10) ** -10)
    _report(2, "B/C/D orders and the C(N+1) gap", ok,
            f"max {mp.nstr(worst, 3)}, C(N+1) min {mp.nstr(cn1_min, 3)}, "
            f"N=1 gap dev {mp.nstr(c2_dev, 3)}")


def test_criterion_03_stability_structure(ctx120, tabs120):
    bound = mp.mpf(10) ** -110
    with ctx120.workdps():
        worst = mp.mpf(0)
        for n in range(1, 13):
            qm = build_q_m(tabs120[n], ctx120)
            worst = max(worst, qm.q_residual, qm.m_residual)
        lam_dev = abs(build_q_m(tabs120[1], ctx120).lambda_m - mp.mpf(1) / 6)
        ok = worst <= bound and lam_dev <= bound
    _report(3, "dyadic Q/M structure", ok,
            f"max residual {mp.nstr(worst, 3)}")


def test_criterion_04_rational_function_equivalence(ctx120, tabs120):
    rng = random.Random(20240817)
    with ctx120.workdps():
        worst = mp.mpf(0)
        for n in range(1, 9):
            tab = tabs120[n]
            for _ in range(20):
                r = 5 * mp.sqrt(mp.mpf(rng.random()))
                th = 2 * mp.pi * mp.mpf(rng.random())
                z = mp.mpc(r * mp.cos(th), r * mp.sin(th))
                rv = stability_function(tab, z, ctx120)
                pv = pade_exp(n, z, ctx120)
                worst = max(worst, abs(rv - pv) / abs(pv))
        exact_dev = abs(stability_function(tabs120[1], 1, ctx120) - mp.mpf(8) / 3)
        ok = worst <= mp.mpf(10) ** -60 and exact_dev <= mp.mpf(10) ** -60
    _report(4, "stability function is the (N, N+1) rational approximant", ok,
            f"max rel dev {mp.nstr(worst, 3)}")


def test_criterion_05_stiff_decay(ctx120, tabs120):
    from aderdg.problems import dahlquist
    with ctx120.workdps():
        big = -mp.mpf(10) ** 8
        worst = max(abs(stability_function(tabs120[n], big, ctx120))
                    for n in range(1, 9))
        lam = -mp.mpf(10) ** 6
        entry = dahlquist(lam)
        traj = integrate(tabs120[3], entry.problem, 1, ctx120)
        r = stability_function(tabs120[3], lam, ctx120)
        step_dev = abs(traj.values[-1][0] - r)
        tol = 10 * stage_tol(ctx120)
        ok = worst <= mp.mpf(10) ** -6 and step_dev <= tol
    _report(5, "damping at the stiff limit", ok,
            f"max |R(-1e8)| {mp.nstr(worst, 3)}, "
            f"one-step dev {mp.nstr(step_dev, 3)}")


def test_criterion_06_node_superconvergence(harmonic_study):
    ctx, table = harmonic_study
    node_ref = {2: mp.mpf("4.57"), 3: mp.mpf("6.75"),
                4: mp.mpf("8.82"), 8: mp.mpf("16.91")}
    sub_ref = {2: mp.mpf("3.29"), 3: mp.mpf("4.06"),
               4: mp.mpf("5.00"), 8: mp.mpf("8.99")}
    with ctx.workdps():
        devs = []
        ok = True
        for n in (2, 3, 4, 8):
            dn = abs(table.orders[n]["n_final"] - node_ref[n])
            dl = abs(table.orders[n]["l_l1"] - sub_ref[n])
            devs.append(f"N={n}: {mp.nstr(table.orders[n]['n_final'], 4)}"
                        f"/{mp.nstr(table.orders[n]['l_l1'], 4)}")
            ok = ok and dn <= mp.mpf("0.35") and dl <= mp.mpf("0.35")
    _report(6, "fitted node and subgrid orders, oscillator", ok,
            "; ".join(devs))


def _pendulum_exact(t):
    """Closed-form pendulum released at rest from phi = pi/2.

    phi(t) = 2 asin(k sn(K - t | k^2)), phi'(t) = -2k cn(K - t | k^2),
    with k = sin(pi/4) and K = K(k^2).
    """
    k = mp.sin(mp.pi / 4)
    m = k ** 2
    u = mp.ellipk(m) - t
    return (2 * mp.asin(k * mp.ellipfun("sn", u, m=m)),
            -2 * k * mp.ellipfun("cn", u, m=m))


def test_criterion_07_nonlinear_convergence(pendulum_study):
    # Node order 2N+1 is an asymptotic claim: the coarsest cell (M=4, a
    # step of a third of the period) is pre-asymptotic, so the order is
    # fitted over the finest half of the sweep.  The whole-sweep fit and
    # the local slopes are printed to keep that cell visible.
    ctx, table = pendulum_study
    half = len(M_SWEEP) // 2
    with ctx.workdps():
        ok = True
        devs = [f"M={M_SWEEP[half]}..{M_SWEEP[-1]}"]
        for n in (2, 4):
            pts = [(table.reports[(n, m)].dt, table.reports[(n, m)]["n_final"])
                   for m in M_SWEEP]
            got, _ = fit_order(pts[half:])
            slopes = [mp.log(e0 / e1) / mp.log(d0 / d1)
                      for (d0, e0), (d1, e1) in zip(pts, pts[1:])]
            devs.append(f"N={n}: {mp.nstr(got, 4)} "
                        f"(all M {mp.nstr(table.orders[n]['n_final'], 4)}; "
                        f"local {' '.join(mp.nstr(s, 3) for s in slopes)})")
            ok = ok and abs(got - (2 * n + 1)) <= mp.mpf("0.5")
        # the oracle-based node errors must match the closed form
        worst_rel = mp.mpf(0)
        for (n, m), rep in table.reports.items():
            traj = table.trajectories[(n, m)]
            exact = _pendulum_exact(traj.times[-1])
            err = max(abs(a - b) for a, b in zip(traj.values[-1], exact))
            worst_rel = max(worst_rel, abs(rep["n_final"] - err) / err)
        ok = ok and worst_rel <= mp.mpf(10) ** -20
    _report(7, "asymptotic node order 2N+1, pendulum vs self-converged "
            "oracle", ok, "; ".join(devs)
            + f"; closed-form rel dev {mp.nstr(worst_rel, 3)}")


def test_criterion_08_polynomial_exactness(polynomial_runs):
    ctx, runs = polynomial_runs
    rng = random.Random(5150)
    with ctx.workdps():
        tol = stage_tol(ctx)
        worst_exact = mp.mpf(0)
        for n, deg, entry, traj in runs:
            for loc in traj.locals:
                for _ in range(64):
                    t = loc.t_n + loc.dt_n * mp.mpf(rng.random())
                    u = eval_local(loc, traj.tableau.basis, t)
                    ex = entry.problem.exact(t)
                    worst_exact = max(worst_exact, abs(u[0] - ex[0]))
        # at matching degree the integrator must not be exact
        worst_floor = mp.inf
        for n in range(2, 7):
            entry = polynomial_rhs(n, seed=100 + n)
            tab = build_tableau(n, "gauss-legendre", ctx)
            traj = integrate(tab, entry.problem, 3, ctx)
            dev = mp.mpf(0)
            for loc in traj.locals:
                for _ in range(64):
                    t = loc.t_n + loc.dt_n * mp.mpf(rng.random())
                    u = eval_local(loc, traj.tableau.basis, t)
                    dev = max(dev, abs(u[0] - entry.problem.exact(t)[0]))
            worst_floor = min(worst_floor, dev)
        ok = (worst_exact <= 100 * tol
              and worst_floor >= 10 ** 6 * ctx.unit_roundoff)
    _report(8, "degree-limited exactness of the local solution", ok,
            f"exact max {mp.nstr(worst_exact, 3)}, "
            f"inexact min {mp.nstr(worst_floor, 3)}")


def test_criterion_09_interval_seam_identity(harmonic_study, pendulum_study,
                                             polynomial_runs):
    worst_rel = mp.mpf(0)
    for ctx, table in (harmonic_study, pendulum_study):
        with ctx.workdps():
            tol = 10 * stage_tol(ctx)
            for traj in table.trajectories.values():
                worst_rel = max(worst_rel,
                                interface_identity_residual(traj, ctx) / tol)
    ctx, runs = polynomial_runs
    with ctx.workdps():
        tol = 10 * stage_tol(ctx)
        for _, _, _, traj in runs:
            worst_rel = max(worst_rel,
                            interface_identity_residual(traj, ctx) / tol)
    _report(9, "local solution meets the node value at every seam",
            worst_rel <= 1, f"worst residual {mp.nstr(worst_rel, 3)}x tol")


def test_criterion_10_radau_cross_check(ctx120):
    tab = build_tableau(1, "radau-right", ctx120)
    bound = mp.mpf(10) ** -110
    with ctx120.workdps():
        a_ref = ((mp.mpf(5) / 12, -mp.mpf(1) / 12),
                 (mp.mpf(3) / 4, mp.mpf(1) / 4))
        w_ref = (mp.mpf(3) / 4, mp.mpf(1) / 4)
        tau_ref = (mp.mpf(1) / 3, mp.mpf(1))
        dev = max(abs(tab.a[p][q] - a_ref[p][q])
                  for p in range(2) for q in range(2))
        dev = max(dev, max(abs(a - b) for a, b in zip(tab.basis.w, w_ref)))
        dev = max(dev, max(abs(a - b) for a, b in zip(tab.basis.tau, tau_ref)))
    _report(10, "endpoint-node tableau matches the classical table",
            dev <= bound, f"max dev {mp.nstr(dev, 3)}")

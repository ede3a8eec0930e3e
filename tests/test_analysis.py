import mpmath as mp
import pytest

from aderdg import analysis
from aderdg.analysis import (AnalysisError, SweepError, ZeroErrorFloor,
                             _parabolic_max, compute_errors,
                             convergence_study, fit_order, format_order_table,
                             format_raw_errors, interface_identity_residual,
                             ERROR_FIELDS, ERROR_GUARD, ORDER_COLUMNS,
                             SUP_SAMPLES)
from aderdg.arith import make_context
from aderdg.problems import harmonic_oscillator, pendulum, polynomial_rhs
from aderdg.solver import eval_local, integrate, stage_tol, trajectory_eval
from aderdg.tableau import build_tableau

CTX = make_context(60)


def test_fit_order_exact_power_law():
    with CTX.workdps():
        pts = [(mp.mpf(1) / m, (mp.mpf(1) / m) ** 3 * 5) for m in (4, 8, 16, 32)]
        slope, rms = fit_order(pts)
        assert abs(slope - 3) < mp.mpf(10) ** -30
        assert rms < mp.mpf(10) ** -30


def test_fit_order_needs_three_points():
    with pytest.raises(AnalysisError):
        fit_order([(mp.mpf(1), mp.mpf(1)), (mp.mpf(2), mp.mpf(4))])


def test_fit_order_zero_floor():
    with pytest.raises(ZeroErrorFloor):
        fit_order([(mp.mpf(1) / m, mp.mpf(0)) for m in (2, 4, 8)])


def test_fit_order_duplicate_dt():
    with pytest.raises(AnalysisError):
        fit_order([(mp.mpf(1), mp.mpf(1)), (mp.mpf(1), mp.mpf(2)),
                   (mp.mpf(2), mp.mpf(3))])


def test_error_report_field_count():
    assert len(ERROR_FIELDS) == 14
    assert len(ORDER_COLUMNS) == 16  # 14 fitted orders plus the two theory refs


def test_compute_errors_consistency():
    entry = harmonic_oscillator()
    tab = build_tableau(2, "gauss-legendre", CTX)
    traj = integrate(tab, entry.problem, 6, CTX)
    rep = compute_errors(traj, entry.problem.exact, CTX)
    with CTX.workdps():
        # final node error is recomputed directly
        ex = entry.problem.exact(traj.times[-1])
        direct = max(abs(a - b) for a, b in zip(traj.values[-1], ex))
        assert abs(rep["n_final"] - direct) < CTX.identity_tol
        # the final node belongs to the last interval, so the two
        # final-time errors agree to the stage tolerance
        tol = 10 * stage_tol(CTX)
        assert abs(rep["ln_final"] - rep["n_final"]) <= tol
        # norm orderings
        assert rep["n_linf"] >= rep["n_final"]
        assert rep["l_linf"] >= rep["ln_linf"] - tol
        for name in ERROR_FIELDS:
            assert rep[name] >= 0


# all 14 errors of harmonic N=2, M=4 at 60 digits, as computed by the
# monomial-basis, untabulated analysis; the Galerkin predictor does not
# depend on the node family, so only the quadrature-point errors differ
_PINNED_COMMON = {
    "n_l1": "2.00921980191", "n_l2": "0.616642614766",
    "n_linf": "0.250435877066", "n_final": "0.250435877066",
    "ln_l1": "3.06556262646", "ln_l2": "0.857576489776",
    "ln_linf": "0.336244364252", "ln_final": "0.250435877066",
    "l_l1": "2.28058362457", "l_l2": "0.694091287606",
    "l_linf": "0.347088112407"}
_PINNED = {
    "gauss-legendre": dict(_PINNED_COMMON, lq_l1="1.87130908381",
                           lq_l2="0.617890129615", lq_linf="0.340547555518"),
    # radau-right has a node at tau = 1, the last sup-norm sample
    "radau-right": dict(_PINNED_COMMON, lq_l1="1.49012490829",
                        lq_l2="0.459579120914", lq_linf="0.250435877066"),
}


@pytest.mark.parametrize("family", sorted(_PINNED))
def test_compute_errors_pinned(family):
    entry = harmonic_oscillator()
    tab = build_tableau(2, family, CTX)
    traj = integrate(tab, entry.problem, 4, CTX)
    rep = compute_errors(traj, entry.problem.exact, CTX)
    assert set(_PINNED[family]) == set(ERROR_FIELDS)
    with CTX.workdps():
        for name, value in _PINNED[family].items():
            assert abs(rep[name] / mp.mpf(value) - 1) < mp.mpf(10) ** -11, name


def test_interface_residual_small():
    entry = harmonic_oscillator()
    tab = build_tableau(3, "gauss-legendre", CTX)
    traj = integrate(tab, entry.problem, 5, CTX)
    res = interface_identity_residual(traj, CTX)
    with CTX.workdps():
        assert res <= 10 * stage_tol(CTX)


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left",
                                    "radau-right"])
def test_interface_residual_is_the_end_value_gap(family):
    # the residual is max_n |sum_p psi~_p qhat_p - u_{n+1}| with the stored
    # traces psi~_p = l_p(1); for radau-right psi~ is the last unit vector
    # and the last stage row of a equals w past the working digits, so
    # qhat_N and u_{n+1} round alike and the gap is exactly 0
    tab = build_tableau(3, family, CTX)
    traj = integrate(tab, pendulum().problem, 4, CTX)
    res = interface_identity_residual(traj, CTX)
    with CTX.workdps(10):
        psi = tab.basis.psi_tilde
        gap = max(abs(mp.fdot(psi, [row[i] for row in loc.qhat]) - u[i])
                  for loc, u in zip(traj.locals, traj.values[1:])
                  for i in range(2))
        assert res == gap
        assert res <= 10 * stage_tol(CTX)
        if family == "radau-right":
            assert res == 0
        # the predictor's value at the interval end, as dense output gives it
        dense = max(abs(a - b) for loc, u in zip(traj.locals, traj.values[1:])
                    for a, b in zip(eval_local(loc, tab.basis,
                                               loc.t_n + loc.dt_n), u))
        assert abs(dense - res) <= CTX.unit_roundoff * 1e-8


def test_convergence_study_orders():
    entry = harmonic_oscillator()
    table = convergence_study(entry, [2], [4, 6, 8, 12, 16], CTX)
    with CTX.workdps():
        # node superconvergence near 2N+1, subgrid accuracy near N+1
        assert abs(table.orders[2]["n_final"] - 5) < 1
        assert abs(table.orders[2]["l_l1"] - 3) < 1
    assert table.orders[2]["p_G"] == 5
    assert table.orders[2]["p_L"] == 3
    assert (2, 8) in table.reports
    assert set(table.trajectories) == set(table.reports)


def test_convergence_study_keeps_trajectories():
    entry = harmonic_oscillator()
    table = convergence_study(entry, [1], [4, 6, 8], CTX)
    assert set(table.trajectories) == {(1, 4), (1, 6), (1, 8)}


def test_study_rejects_bad_m():
    entry = harmonic_oscillator()
    with pytest.raises(SweepError):
        convergence_study(entry, [2], [0, 4, 8], CTX)


def test_study_rejects_repeated_m_before_any_cell(monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the M list was checked")

    monkeypatch.setattr(analysis, "integrate", no_cell)
    with pytest.raises(SweepError, match="distinct"):
        convergence_study(harmonic_oscillator(), [2], [4, 8, 4], CTX)


@pytest.mark.parametrize("n_values, m_values, match", [
    ([2], [4, 6], "at least 3"),
    ([2, 2], [4, 6, 8], "degrees must be distinct"),
])
def test_study_rejects_short_m_or_repeated_n_before_any_cell(
        monkeypatch, n_values, m_values, match):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the lists were checked")

    monkeypatch.setattr(analysis, "integrate", no_cell)
    with pytest.raises(SweepError, match=match):
        convergence_study(harmonic_oscillator(), n_values, m_values, CTX)


def _counted(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)
    return g, calls


def _refine(fn):
    """_parabolic_max of fn from its SUP_SAMPLES samples on [0, 1], and the
    points at which the refinement evaluated fn."""
    ts = [mp.mpf(i) / (SUP_SAMPLES - 1) for i in range(SUP_SAMPLES)]
    vals = [fn(t) for t in ts]
    f, calls = _counted(fn)
    return _parabolic_max(f, ts, vals), vals, calls


def test_parabolic_max_interior():
    # t exp(-c t) peaks at t = 1/c, between samples 20 and 21, with value
    # 1/(c e); the peak is lopsided, so one parabola does not find it
    with CTX.workdps():
        c = mp.mpf(31) / 10
        value, vals, calls = _refine(lambda t: t * mp.exp(-c * t))
        assert abs(value * c * mp.e - 1) < mp.mpf(10) ** -28
        assert max(vals) * c * mp.e < 1 - mp.mpf(10) ** -5  # samples miss it
        assert 0 < len(calls) <= 42 // 2  # half of golden section's 42


@pytest.mark.parametrize("end", [0, 1])
def test_parabolic_max_end_gap(end):
    # the end sample is the largest, but the maximum lies inside the end
    # gap (t0, t1) or (t62, t63)
    with CTX.workdps():
        inset = mp.mpf(2) / 5 / (SUP_SAMPLES - 1)
        peak = abs(end - inset)
        value, vals, calls = _refine(lambda t: mp.cos(5 * (t - peak)))
        assert max(range(SUP_SAMPLES), key=lambda i: vals[i]) in (
            0, SUP_SAMPLES - 1)
        assert abs(value - 1) < mp.mpf(10) ** -28
        assert 0 < len(calls) <= 42 // 2  # half of golden section's 42


@pytest.mark.parametrize("fn", [
    lambda t: mp.exp(-t),                       # convex: no parabolic maximum
    lambda t: mp.cos(t + mp.mpf(1) / 10),       # vertex outside the end gap
    lambda t: mp.cos(3 * (1 - t) + mp.mpf(1) / 10),  # same, at the right end
])
def test_parabolic_max_monotone_from_end(fn):
    with CTX.workdps():
        value, vals, calls = _refine(fn)
        assert value == max(vals)
        assert calls == []


def _golden_max(f, lo, hi, iters=40):
    # the golden-section search that the parabolic refinement replaced,
    # kept as an independent reference for the sup-norm
    inv = (mp.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def _golden_linf(traj, reference):
    basis = traj.tableau.basis
    out = mp.mpf(0)
    for loc in traj.locals:
        def err(t):
            return max(abs(a - b) for a, b in zip(eval_local(loc, basis, t),
                                                  reference(t)))
        ts = [loc.t_n + loc.dt_n * mp.mpf(i) / (SUP_SAMPLES - 1)
              for i in range(SUP_SAMPLES)]
        vals = [err(t) for t in ts]
        best = max(range(SUP_SAMPLES), key=lambda i: vals[i])
        lo, hi = ts[max(best - 1, 0)], ts[min(best + 1, SUP_SAMPLES - 1)]
        out = max(out, vals[best], _golden_max(err, lo, hi))
    return out


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-right"])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_l_linf_matches_golden_section(n, family):
    ctx = make_context(120)
    entry = harmonic_oscillator()
    tab = build_tableau(n, family, ctx)
    # at N=1 some maxima are interior; at N=3 and 8 all sit at interval
    # ends, where golden section still searches the end gap
    traj = integrate(tab, entry.problem, 5, ctx)
    rep = compute_errors(traj, entry.problem.exact, ctx)
    with ctx.workdps(10):
        golden = _golden_linf(traj, entry.problem.exact)
        assert abs(rep["l_linf"] / golden - 1) < mp.mpf(10) ** -18


def test_reference_calls_per_interval():
    # harmonic N=2, M=4 at 60 digits makes 338 reference calls: per
    # interval 64 samples, N+8 = 10 Gauss points and N+1 = 3 stages, plus
    # the M+1 = 5 grid nodes and 25 refinement steps in all.  The bound is
    # 364; a fixed-length search breaks it (golden section made 481).
    entry = harmonic_oscillator()
    n, m = 2, 4
    tab = build_tableau(n, "gauss-legendre", CTX)
    traj = integrate(tab, entry.problem, m, CTX)
    reference, calls = _counted(entry.problem.exact)
    compute_errors(traj, reference, CTX)
    assert len(calls) <= m * (SUP_SAMPLES + (n + 8) + (n + 1) + 2 + 12)


def _recorded(f):
    """f, wrapped to record the working digits of each call."""
    dps = []

    def g(t):
        dps.append(mp.mp.dps)
        return f(t)
    return g, dps


def _node_error_digits(traj, exact, ctx):
    # the d of compute_errors: the decade of the smallest nonzero error of
    # the node values and of the local solution at the grid nodes,
    # relative to max(1, max|u_n|)
    with ctx.workdps(10):
        errs = [max(abs(a - b) for a, b in zip(u, exact(t)))
                for t, v in zip(traj.times, traj.values)
                for u in (v, trajectory_eval(traj, t))]
        scale = max(1, max(abs(x) for v in traj.values for x in v))
        return max(0, -int(mp.floor(mp.log10(
            min(x for x in errs if x) / scale))))


@pytest.mark.parametrize("n, m, calls", [(4, 8, 657), (2, 4, 338)])
def test_local_norms_run_at_reduced_precision(n, m, calls):
    # harmonic at 500 digits makes as many reference calls as when every
    # norm ran at the working precision: the M+1 grid-node calls at the
    # working 510 digits, the others at no more than ERROR_GUARD + d.  The
    # sup-norm refinement of N=2, M=4 meets an interior maximum; at a guard
    # of 30 digits it took 341 calls, at 20 it took 358
    ctx = make_context(500)
    full = ctx.decimal_digits + 10
    entry = harmonic_oscillator()
    traj = integrate(build_tableau(n, "gauss-legendre", ctx), entry.problem,
                     m, ctx)
    reference, dps = _recorded(entry.problem.exact)
    compute_errors(traj, reference, ctx)
    assert len(dps) == calls
    assert dps[:m + 1] == [full] * (m + 1)
    bound = ERROR_GUARD + _node_error_digits(traj, entry.problem.exact, ctx)
    assert max(dps[m + 1:]) <= bound < full


@pytest.mark.parametrize("family, n, m", [
    ("gauss-legendre", 2, 4), ("gauss-legendre", 2, 9),
    ("gauss-legendre", 8, 4), ("gauss-legendre", 8, 9),
    # the node at tau = 1 is also the last sup-norm sample
    ("radau-right", 2, 4), ("radau-right", 2, 9)])
def test_reduced_local_norms_match_working_precision(family, n, m):
    ctx = make_context(120)
    entry = harmonic_oscillator()
    traj = integrate(build_tableau(n, family, ctx), entry.problem, m, ctx)
    reference, dps = _recorded(entry.problem.exact)
    rep = compute_errors(traj, reference, ctx)
    assert max(dps[m + 1:]) < ctx.decimal_digits + 10  # reduced, no fallback
    with ctx.workdps(10):
        full = analysis._local_errors(traj, entry.problem.exact, ctx)
        assert len(full) == 6
        for name, value in full.items():
            assert abs(rep[name] / value - 1) < mp.mpf(10) ** (
                2 - ERROR_GUARD), name


def test_local_norms_at_the_floor_fall_back_to_working_precision():
    # the integrator is exact here, so every local-solution norm sits at
    # the working precision's roundoff floor
    entry = polynomial_rhs(2, 7)
    exact = entry.problem.exact
    traj = integrate(build_tableau(5, "gauss-legendre", CTX), entry.problem,
                     4, CTX)
    full = CTX.decimal_digits + 10
    floor = 10 ** 6 * CTX.unit_roundoff
    rep = compute_errors(traj, exact, CTX)
    for name in ERROR_FIELDS:
        if name.startswith(("lq_", "l_")):
            assert rep[name] <= floor, name
    # a reference off by 3e-5 at the grid nodes only: the grid-node errors
    # put the six local norms at ERROR_GUARD + 5 digits, where the Gauss and
    # stage points see that precision's floor, so all six run again at the
    # working precision; l_linf samples the grid nodes and sees the offset
    grid = set(traj.times)

    def off_at_grid(t):
        u = exact(t)
        return tuple(x + 3 * mp.mpf(10) ** -5 for x in u) if t in grid else u
    reference, dps = _recorded(off_at_grid)
    rep = compute_errors(traj, reference, CTX)
    assert min(dps) < full and dps[-1] == full
    for name in ("lq_l1", "lq_l2", "lq_linf", "l_l1", "l_l2"):
        assert rep[name] <= floor, name


def test_zero_error_floor_on_exact_polynomial():
    # degree below the basis degree: the integrator is exact and no
    # order can be fitted
    entry = polynomial_rhs(2, 7)
    with pytest.raises(ZeroErrorFloor):
        convergence_study(entry, [5], [2, 4, 8], CTX)


def test_table_formatting():
    entry = harmonic_oscillator()
    table = convergence_study(entry, [1], [4, 6, 8], CTX)
    text = format_order_table(table)
    lines = text.splitlines()
    assert lines[0].split()[0] == "N"
    assert lines[0].split()[1:] == list(ORDER_COLUMNS)
    assert len(lines) == 2
    csv = format_raw_errors(table, "csv")
    assert csv.splitlines()[0].startswith("N,M,dt,")
    assert len(csv.splitlines()) == 4

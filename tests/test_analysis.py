import mpmath as mp
import pytest

from aderdg.analysis import (AnalysisError, ZeroErrorFloor, compute_errors,
                             convergence_study, fit_order, format_order_table,
                             format_raw_errors, interface_identity_residual,
                             ERROR_FIELDS, ORDER_COLUMNS)
from aderdg.arith import make_context
from aderdg.problems import harmonic_oscillator, polynomial_rhs
from aderdg.solver import SolverConfig, integrate
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
    traj = integrate(tab, entry.problem, 6, SolverConfig(), CTX)
    rep = compute_errors(traj, entry.problem.exact, CTX)
    with CTX.workdps():
        # final node error is recomputed directly
        ex = entry.problem.exact(traj.times[-1])
        direct = max(abs(a - b) for a, b in zip(traj.values[-1], ex))
        assert abs(rep["n_final"] - direct) < CTX.identity_tol
        # the final node belongs to the last interval, so the two
        # final-time errors agree to the stage tolerance
        tol = 10 * SolverConfig().resolved_stage_tol(CTX)
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
    traj = integrate(tab, entry.problem, 4, SolverConfig(), CTX)
    rep = compute_errors(traj, entry.problem.exact, CTX)
    assert set(_PINNED[family]) == set(ERROR_FIELDS)
    with CTX.workdps():
        for name, value in _PINNED[family].items():
            assert abs(rep[name] / mp.mpf(value) - 1) < mp.mpf(10) ** -11, name


def test_interface_residual_small():
    entry = harmonic_oscillator()
    tab = build_tableau(3, "gauss-legendre", CTX)
    traj = integrate(tab, entry.problem, 5, SolverConfig(), CTX)
    res = interface_identity_residual(traj, CTX)
    with CTX.workdps():
        assert res <= 10 * SolverConfig().resolved_stage_tol(CTX)


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
    assert table.trajectories is None


def test_convergence_study_keeps_trajectories():
    entry = harmonic_oscillator()
    table = convergence_study(entry, [1], [4, 6, 8], CTX,
                              keep_trajectories=True)
    assert set(table.trajectories) == {(1, 4), (1, 6), (1, 8)}


def test_study_rejects_bad_m():
    entry = harmonic_oscillator()
    with pytest.raises(AnalysisError):
        convergence_study(entry, [2], [0, 4, 8], CTX)


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

"""Global error norms, empirical convergence orders, and sweep tables.

Fourteen error measures are computed per run: four on the node solution,
three on the local solution at the quadrature nodal points, four on the
local solution at grid nodes, and three continuous norms of the local
solution.  Orders come from a least-squares fit of lg e against lg dt.
"""

from dataclasses import dataclass

import mpmath as mp

from .basis import eval_basis, quadrature_rule
from .problems import build_oracle_reference
from .solver import combine_basis, integrate
from .tableau import build_tableau

# column layout of the order table, matching the reference presentation
ORDER_COLUMNS = ("n_final", "n_l1", "n_l2", "n_linf", "p_G",
                 "ln_final", "ln_l1", "ln_l2", "ln_linf",
                 "l_l1", "l_l2", "l_linf",
                 "lq_l1", "lq_l2", "lq_linf", "p_L")

ERROR_FIELDS = ("n_l1", "n_l2", "n_linf", "n_final",
                "lq_l1", "lq_l2", "lq_linf",
                "ln_l1", "ln_l2", "ln_linf", "ln_final",
                "l_l1", "l_l2", "l_linf")


# equispaced samples per interval for the continuous sup-norm, before
# parabolic refinement around the best one (_parabolic_max)
SUP_SAMPLES = 64

# digits past the grid-node errors' at which the local-solution norms are
# evaluated (compute_errors).  The sup-norm refinement steps down to 1e-15
# of a sample spacing, where the error's values differ by about 1e-30 of
# themselves (_parabolic_max), so the guard must exceed 30 digits: at 20
# and 28, harmonic N=2, M=4 at 500 digits took 371 and 339 reference calls
# against 338 at the working precision; 36 to 44 changed no call count of
# the 500-digit harmonic sweep.
ERROR_GUARD = 40


class AnalysisError(ValueError):
    pass


class ZeroErrorFloor(AnalysisError):
    """An error hit exact zero: below the roundoff floor, no order fits."""


class SweepError(AnalysisError):
    """The (N, M) lists cannot give a sweep; raised before any cell runs."""


@dataclass(frozen=True)
class ErrorReport:
    n: int
    m: int
    dt: mp.mpf
    errors: dict    # name -> value, names per ERROR_FIELDS

    def __getitem__(self, key):
        return self.errors[key]


@dataclass(frozen=True)
class ConvergenceTable:
    n_values: tuple
    m_values: tuple
    orders: dict        # N -> {column -> fitted order}, plus p_G / p_L refs
    reports: dict       # (N, M) -> ErrorReport
    trajectories: dict  # (N, M) -> Trajectory


def _vec_err(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def _vertex(a, fa, x, fx, c, fc):
    """Vertex of the parabola through three points a < x < c, or None when
    that parabola has no maximum."""
    q = (x - a) * (fx - fc) - (x - c) * (fx - fa)
    if q <= 0:  # q has the sign of minus the second divided difference
        return None
    return x - ((x - a) ** 2 * (fx - fc) - (x - c) ** 2 * (fx - fa)) / (2 * q)


def _parabolic_max(f, ts, vals):
    """Largest value of f around the best of the samples vals = f(ts).

    Successive parabolic interpolation (Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 5), seeded with the best sample and its
    two neighbours.  The error's maxima are smooth inside an interval (|.|
    has kinks only at minima), so the vertex closes in on the maximum in a
    few steps and the value found is off by the square of the last step:
    a step below 1e-15 of a sample spacing leaves a relative error near
    1e-30.

    A best sample at an interval end is refined only if the parabola
    through the three end samples has its maximum inside the end gap and
    that point beats the end sample; otherwise the end sample is the
    answer, at no extra evaluation.  With h the spacing and f2, f3 the
    second and third derivatives, the parabola's slope at the end is f's
    to O(h^2 f3), so the test misses only a maximum within O(h^2 f3/f2)
    of the end, and the end sample lies below such a maximum by
    O(h^4 f3^2/f2), fourth order in the spacing.  Checked against 40
    golden-section steps on 480 harmonic and pendulum intervals (N 1 to
    12, 120 digits): no end gap held a value above its end sample.
    """
    k = len(ts) - 1
    best = max(range(k + 1), key=lambda i: vals[i])
    if best in (0, k):
        j = 0 if best == 0 else k - 2     # the three end samples j..j+2
        lo, hi = (0, 1) if best == 0 else (k - 1, k)   # the end gap
        u = _vertex(ts[j], vals[j], ts[j + 1], vals[j + 1],
                    ts[j + 2], vals[j + 2])
        if u is None or not ts[lo] < u < ts[hi]:
            return vals[best]
        fu = f(u)
        if fu <= vals[best]:
            return vals[best]
        a, x, c = ts[lo], u, ts[hi]
        fa, fx, fc = vals[lo], fu, vals[hi]
    else:
        a, x, c = ts[best - 1], ts[best], ts[best + 1]
        fa, fx, fc = vals[best - 1], vals[best], vals[best + 1]
    tol = (ts[1] - ts[0]) * mp.mpf(10) ** -15
    # the bracket a < x < c shrinks at every step; the cap only guards
    # against a rough f
    for _ in range(40):
        u = _vertex(a, fa, x, fx, c, fc)
        if u is None or not a < u < c or abs(u - x) < tol:
            break
        fu = f(u)
        if fu > fx:
            if u < x:
                c, fc = x, fx
            else:
                a, fa = x, fx
            x, fx = u, fu
        elif u < x:
            a, fa = u, fu
        else:
            c, fc = u, fu
    return fx


def compute_errors(traj, reference, ctx):
    """All 14 global error measures of a trajectory against a reference.

    Node sums run n = 0..M weighting term n by the step of interval
    min(n, M-1).  The local solution at the grid nodes (ln_*) is taken
    from the stored traces: psi^T qhat of the first interval at t_0, and
    psi~^T qhat of the left interval at each later node, the end value
    that interface_identity_residual forms.  Continuous L1/L2 norms use a
    Gauss rule with N+8 points per interval; the continuous sup-norm is
    sampled at SUP_SAMPLES equispaced points and polished by successive
    parabolic interpolation around the best sample.

    The eight grid-node errors (n_*, ln_*) are evaluated at the working
    precision.  The other six (lq_*, l_*), which need the reference away
    from the grid nodes, are evaluated at p = min(working digits,
    ERROR_GUARD + d) digits: e is the smallest nonzero error, of either
    kind, at any grid node, s = max(1, max|u_n|) and d = max(0,
    ceil(-lg(e/s))).  An evaluation at p digits is good to about s 10^-p
    absolute, ERROR_GUARD digits below s 10^-d <= e.  If any of the six
    comes out below s 10^(ERROR_GUARD-p) = s 10^-d, all six are evaluated
    again at the working precision, so an error at the roundoff floor
    still reaches the working precision's floor.  compute_errors sets
    these precisions itself, and the reference and every basis value run
    at the ambient one, so the reference must work at mp.mp.dps digits.
    """
    tab = traj.tableau
    m = len(traj.locals)
    with ctx.workdps(10):
        full = mp.mp.dps
        ref_nodes = [reference(t) for t in traj.times]
        dtn = lambda i: traj.locals[min(i, m - 1)].dt_n

        # node solution, and the local solution at the grid nodes
        traces = ([combine_basis(tab.basis.psi, traj.locals[0].qhat)]
                  + [combine_basis(tab.basis.psi_tilde, loc.qhat)
                     for loc in traj.locals])
        node_err = [_vec_err(u, r) for u, r in zip(traj.values, ref_nodes)]
        ln_err = [_vec_err(u, r) for u, r in zip(traces, ref_nodes)]
        e = {}
        for kind, err in (("n", node_err), ("ln", ln_err)):
            e[kind + "_l1"] = mp.fsum(dtn(i) * err[i] for i in range(m + 1))
            e[kind + "_l2"] = mp.sqrt(mp.fsum(dtn(i) * err[i] ** 2
                                              for i in range(m + 1)))
            e[kind + "_linf"] = max(err)
            e[kind + "_final"] = err[m]

        # the other six at the digits the errors need (docstring)
        scale = max(1, max(abs(x) for u in traj.values for x in u))
        smallest = min((x for x in node_err + ln_err if x), default=0)
        dps = full
        if smallest:
            d = max(0, -int(mp.floor(mp.log10(smallest / scale))))
            dps = min(full, ERROR_GUARD + d)
        with mp.workdps(dps):
            local = _local_errors(traj, reference, ctx)
        if dps < full and min(local.values()) < (
                scale * mp.mpf(10) ** (ERROR_GUARD - dps)):
            local = _local_errors(traj, reference, ctx)
        e.update(local)
        return ErrorReport(n=tab.n, m=m,
                           dt=max(loc.dt_n for loc in traj.locals), errors=e)


def _local_errors(traj, reference, ctx):
    """The six local-solution norms (lq_*, l_*), at the ambient precision:
    basis values, the q-hat rows they combine and reference alike."""
    tab = traj.tableau
    basis = tab.basis
    e = {}
    # local solution at the quadrature nodal points
    tf = traj.times[-1]
    pts = []
    for loc in traj.locals:
        for p in range(tab.stages):
            t_np = loc.t_n + basis.tau[p] * loc.dt_n
            pts.append((t_np, _vec_err(loc.qhat[p], reference(t_np))))
    lq_l1 = lq_l2 = lq_linf = mp.mpf(0)
    for j, (t_np, err) in enumerate(pts):
        nxt = pts[j + 1][0] if j + 1 < len(pts) else tf
        gap = nxt - t_np
        lq_l1 += gap * err
        lq_l2 += gap * err ** 2
        lq_linf = max(lq_linf, err)
    e["lq_l1"], e["lq_l2"], e["lq_linf"] = lq_l1, mp.sqrt(lq_l2), lq_linf

    # continuous norms of the local solution; the Gauss points and the
    # sup-norm samples sit at the same tau in every interval, so their
    # basis values are tabulated once
    qtau, qw = quadrature_rule(tab.n + 7, "gauss-legendre", ctx)
    tau, lam = basis.tau, basis.lam
    q_basis = [eval_basis(tau, lam, tq) for tq in qtau]
    s_basis = [eval_basis(tau, lam, mp.mpf(i) / (SUP_SAMPLES - 1))
               for i in range(SUP_SAMPLES)]
    l_l1 = l_l2 = l_linf = mp.mpf(0)
    for loc in traj.locals:
        # q-hat rounded once to the ambient digits, so that combine_basis
        # does not multiply each short basis value by a full-length row
        qhat = [[+x for x in row] for row in loc.qhat]

        def err(t, lvals):
            return _vec_err(combine_basis(lvals, qhat), reference(t))
        for tq, wq, lvals in zip(qtau, qw, q_basis):
            v = err(loc.t_n + tq * loc.dt_n, lvals)
            l_l1 += loc.dt_n * wq * v
            l_l2 += loc.dt_n * wq * v ** 2
        ts = [loc.t_n + loc.dt_n * mp.mpf(i) / (SUP_SAMPLES - 1)
              for i in range(SUP_SAMPLES)]
        vals = [err(t, lvals) for t, lvals in zip(ts, s_basis)]
        l_linf = max(l_linf, _parabolic_max(lambda t: err(
            t, eval_basis(tau, lam, (t - loc.t_n) / loc.dt_n)), ts, vals))
    e["l_l1"], e["l_l2"], e["l_linf"] = l_l1, mp.sqrt(l_l2), l_linf
    return e


def fit_order(points, floor=None):
    """Least-squares slope of lg e against lg dt; needs >= 3 points.

    Returns (order, rms_residual).  Raises ZeroErrorFloor when any error
    is zero or sits at or below the supplied roundoff floor (run at
    higher digits or lower degree).
    """
    if len(points) < 3:
        raise AnalysisError("order fit needs at least 3 grid levels")
    for dt, err in points:
        if err <= 0 or (floor is not None and err <= floor):
            raise ZeroErrorFloor(
                "error at the roundoff floor; cannot fit an order")
    xs = [mp.log10(dt) for dt, _ in points]
    if len(set(str(x) for x in xs)) != len(xs):
        raise AnalysisError("dt values must be distinct")
    ys = [mp.log10(err) for _, err in points]
    xm = mp.fsum(xs) / len(xs)
    ym = mp.fsum(ys) / len(ys)
    sxx = mp.fsum((x - xm) ** 2 for x in xs)
    sxy = mp.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    slope = sxy / sxx
    icept = ym - slope * xm
    rms = mp.sqrt(mp.fsum((y - (icept + slope * x)) ** 2
                          for x, y in zip(xs, ys)) / len(xs))
    return slope, rms


def convergence_study(entry, n_values, m_values, ctx):
    """Run the (N, M) sweep for a catalog entry and fit all 14 orders; the
    table keeps every cell's trajectory."""
    if any(m < 1 for m in m_values):
        raise SweepError("all interval counts must be >= 1")
    if len(set(m_values)) != len(m_values):
        raise SweepError("interval counts must be distinct")
    if len(m_values) < 3:
        raise SweepError("order fit needs at least 3 interval counts")
    if len(set(n_values)) != len(n_values):
        raise SweepError("degrees must be distinct")
    reference = entry.problem.exact or build_oracle_reference(
        entry, max(n_values), max(m_values), ctx)

    reports = {}
    trajectories = {}
    for n in n_values:
        tab = build_tableau(n, "gauss-legendre", ctx)
        for m in m_values:
            traj = integrate(tab, entry.problem, m, ctx)
            reports[(n, m)] = compute_errors(traj, reference, ctx)
            trajectories[(n, m)] = traj

    orders = {}
    floor = 10 ** 6 * ctx.unit_roundoff
    for n in n_values:
        cells = [reports[(n, m)] for m in m_values]
        row = {name: fit_order([(rep.dt, rep[name]) for rep in cells], floor)[0]
               for name in ERROR_FIELDS}
        row["p_G"] = 2 * n + 1
        row["p_L"] = n + 1
        orders[n] = row
    return ConvergenceTable(n_values=tuple(n_values), m_values=tuple(m_values),
                            orders=orders, reports=reports,
                            trajectories=trajectories)


def interface_identity_residual(traj, ctx):
    """Max over intervals of |local solution at the interval end - u_{n+1}|,
    the end value sum_p psi~_p qhat_p formed from the stored l_p(1)."""
    psi_tilde = traj.tableau.basis.psi_tilde
    with ctx.workdps(10):
        return max(max(abs(a - b) for a, b in
                       zip(combine_basis(psi_tilde, loc.qhat), u_next))
                   for loc, u_next in zip(traj.locals, traj.values[1:]))


def format_order_table(table, fmt="table"):
    """Render the order table; columns follow ORDER_COLUMNS."""
    header = ["N"] + list(ORDER_COLUMNS)
    rows = []
    for n in table.n_values:
        row = [str(n)]
        for col in ORDER_COLUMNS:
            v = table.orders[n][col]
            row.append(str(v) if isinstance(v, int) else mp.nstr(v, 4))
        rows.append(row)
    if fmt == "csv":
        return "\n".join(",".join(r) for r in [header] + rows)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(r, widths))
             for r in [header] + rows]
    return "\n".join(lines)


def format_raw_errors(table, fmt="table"):
    """Dump (N, M, dt, 14 errors) rows for plotting."""
    header = ["N", "M", "dt"] + list(ERROR_FIELDS)
    rows = []
    for (n, m) in sorted(table.reports):
        rep = table.reports[(n, m)]
        rows.append([str(n), str(m), mp.nstr(rep.dt, 8)]
                    + [mp.nstr(rep[f], 8) for f in ERROR_FIELDS])
    sep = "," if fmt == "csv" else "  "
    return "\n".join(sep.join(r) for r in [header] + rows)

"""Time integration with the implicit DG-predictor method.

A step solves the stage system k_p = F(u_n + dt sum_q a_pq k_q, t_n +
tau_p dt) for the stage derivatives, reconstructs the predictor
coefficients qhat from them, and advances the node value with the
quadrature weights.  The predictor polynomial doubles as the dense
output between grid nodes.
"""

import bisect
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp

from . import linalg
from .basis import eval_basis

MAX_ITER = 60     # stage iterations per step, Newton or Picard
FACTOR_GUARD = 25  # digits past the decade a refresh or an iteration resolves
START_BOUND = 10   # multiple of the tolerance scale past which a start guess
                   # extended from the last interval is dropped


class SolverError(ValueError):
    pass


class StageSolveError(SolverError):
    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


@dataclass(frozen=True)
class OdeProblem:
    dim: int
    rhs: Callable                      # (u, t) -> vector
    jacobian: Callable                 # (u, t) -> matrix
    t0: mp.mpf
    tf: mp.mpf
    u0: tuple
    exact: Optional[Callable] = None   # t -> vector

    def __post_init__(self):
        if not self.t0 < self.tf:
            raise SolverError("t0 must be less than tf")


@dataclass(frozen=True)
class LocalSolution:
    t_n: mp.mpf
    dt_n: mp.mpf
    qhat: tuple       # (N+1) rows of D predictor coefficients
    u_next: tuple


@dataclass(frozen=True)
class Trajectory:
    tableau: object
    times: tuple      # grid nodes t_0 .. t_M
    values: tuple     # node values u_0 .. u_M
    locals: tuple     # per-interval LocalSolution


def stage_tol(ctx):
    """Max-norm stage residual, per unit of max(1, max|F(u_n)|), at which
    the stage iteration stops."""
    return mp.mpf(10) ** (-ctx.decimal_digits + 20)


@dataclass
class StageCarry:
    """Stage-iteration state that integrate carries from step to step."""
    lu: Optional[tuple] = None      # LU factorization of the Newton matrix
    decade: Optional[int] = None    # reached by the last step's first correction
    start: Optional[list] = None    # start guess for the stage derivatives k


def _newton_matrix(tab, jacs, dt):
    """Stacked (s*D)^2 matrix with blocks delta_pq I - dt a_pq J_p."""
    s = tab.stages
    d = len(jacs[0])
    n = s * d
    mat = [[mp.mpf(0)] * n for _ in range(n)]
    for p in range(s):
        jp = jacs[p]
        for q in range(s):
            c = dt * tab.a[p][q]
            for i in range(d):
                for j in range(d):
                    mat[p * d + i][q * d + j] = (1 if (p == q and i == j) else 0) - c * jp[i][j]
    return mat


def solve_stages(tab, problem, u_n, t_n, dt, ctx, picard=False, carry=None):
    """Stage derivatives k of one step, solved to the stage tolerance, and
    the predictor coefficients qhat_p = u_n + dt sum_q a_pq k_q: the stage
    states at which the converged residual was evaluated.  Returns (k, qhat).

    Newton works on the stacked residual r = k_p - F(state_p, t_p) and stops
    at max|r| <= stage_tol * max(1, max|F(u_n, t_p)|), since the rounding
    floor of r grows with the derivatives.  Convergence is accepted only
    from a residual evaluated at the working precision, so the Newton
    matrix and the digits of the other iterations set only the rate, never
    the fixed point.  Each iteration evaluates the stage states, right-hand
    sides, residual and correction at p = min(working digits, FACTOR_GUARD
    + the decade, relative to that scale, that the next residual can
    reach), with dt, u_n, t_p and k rounded to p digits: the residual
    must resolve only what its correction is to gain.  (The entries of a
    keep their digits: rounding s^2 of them every iteration costs more
    than the shorter products save.)  The decade is
    predicted from the gains the iteration has shown, and a refresh adds
    the decade it is taken at to the gain.  A residual at reduced digits
    that meets the tolerance, or whose correction the digits would cut
    short, is evaluated again at the working precision (the floor
    re-check), so a precision-limited iteration never counts as a stall.

    The StageCarry `carry` (a fresh one when None) holds the state that
    goes from step to step, and is updated in place: `lu`, the LU
    factorization of the Newton matrix; `decade`, the decade the first
    correction of the last step reached (the working precision when it
    converged); and `start`, the start guess for k.  A step with no
    `decade` runs at the working precision throughout, and one with no
    `start`, or one that is not finite or exceeds the tolerance scale
    START_BOUND times, starts from k_p = F(u_n, t_p).  With no `lu` the
    matrix is built from the Jacobian at (u_n, t_n).  Every 5 iterations
    it is rebuilt from per-stage Jacobians at the current states, evaluated
    and factored at the digits they carry, FACTOR_GUARD + the residual's
    decade; a refresh forced by a stalled contraction, or whose rounded
    matrix is singular, is evaluated and factored at the working
    precision.  Picard is the same iteration with the Jacobian taken as
    zero: the Newton matrix is I, k - r = F(states(k)) and no matrix is
    factored (Hairer & Wanner, Solving ODEs II, section IV.8).
    """
    if not dt > 0:
        raise SolverError("dt must be positive")
    carry = carry or StageCarry()
    s, d = tab.stages, problem.dim
    with ctx.workdps(10):
        full = mp.mp.dps
        t_p = [t_n + tab.basis.tau[p] * dt for p in range(s)]

        def residual(k, dps):
            # stage states of k and r = k - F(states) at dps digits
            with mp.workdps(dps):
                h, u, t = dt, u_n, t_p
                if dps < full:
                    k = [[+x for x in row] for row in k]
                    h, u, t = +dt, [+x for x in u], [+x for x in t]
                cols = [[row[i] for row in k] for i in range(d)]
                q = [[u[i] + h * linalg.dot(a_p, cols[i]) for i in range(d)]
                     for a_p in tab.a]
                f = [problem.rhs(q[p], t[p]) for p in range(s)]
                r = [k[p][i] - f[p][i] for p in range(s) for i in range(d)]
                return q, r, max(abs(x) for x in r)

        def factor(jacobians, dps):
            # jacobians() runs inside, so the Jacobians carry dps digits too
            try:
                with mp.workdps(dps):
                    jacs = jacobians()
                    return linalg.lu_factor(_newton_matrix(tab, jacs, dt))
            except linalg.SingularMatrixError as exc:
                if dps < full:
                    return factor(jacobians, full)
                raise StageSolveError("singular Newton matrix") from exc

        def decade(x):
            # -log10(x / scale), from the binary exponents
            return (mp.mag(scale) - mp.mag(x)) * 3 // 10

        f0 = [list(problem.rhs(u_n, t_p[p])) for p in range(s)]
        scale = max(1, max(abs(x) for row in f0 for x in row))
        tol = stage_tol(ctx) * scale
        done = decade(tol)
        k = carry.start
        if k is None or not all(mp.isfinite(x) and abs(x) <= START_BOUND * scale
                                for row in k for x in row):
            k = f0
        k = [list(row) for row in k]
        if not picard and carry.lu is None:
            carry.lu = factor(lambda: [problem.jacobian(u_n, t_n)] * s, full)
        reach = carried = carry.decade
        gain = None   # decades the next correction is expected to gain
        for it in range(MAX_ITER):
            dps = full if reach is None else min(full, FACTOR_GUARD + reach)
            q, r, rn = residual(k, dps)
            if dps < full and (rn <= tol or decade(rn) + (gain or 1) >= dps):
                # the floor re-check: neither accept nor correct from a
                # residual the reduced digits cannot vouch for
                dps = full
                q, r, rn = residual(k, dps)
            if rn <= tol:
                if it == 1:
                    carry.decade = full
                carry.start = k
                return tuple(map(tuple, k)), tuple(map(tuple, q))
            e = decade(rn)
            if it == 1:
                carry.decade = e
            if it > 0:
                gain = max(1, e - e_prev)
            elif carried is not None:
                gain = max(1, carried - e)
            if not picard and it > 0 and (rn > prev / 2 or it % 5 == 0):
                stall = rn > prev / 2
                carry.lu = factor(lambda: list(map(problem.jacobian, q, t_p)),
                                  full if stall else min(full, FACTOR_GUARD + e))
                gain = None if stall else gain + e
            with mp.workdps(dps):
                # k -= M^-1 r for the Newton matrix M, which is I for Picard
                delta = r if picard else linalg.lu_solve(carry.lu, r)
            for p in range(s):
                for i in range(d):
                    k[p][i] -= delta[p * d + i]
            prev, e_prev = rn, e
            reach = None
            if carried is not None and gain is not None and e + gain < done:
                # the residual this correction reaches, plus the next gain,
                # which a scheduled refresh raises by that residual's decade
                nxt = e + gain
                if not picard and (it + 1) % 5 == 0:
                    gain += nxt
                reach = nxt + gain
        raise StageSolveError(
            f"{'Picard' if picard else 'Newton'} not converged in {MAX_ITER} "
            f"iterations (residual {mp.nstr(rn, 5)})")


def step(tab, problem, u_n, t_n, dt, ctx, picard=False, carry=None):
    """One integration step; returns the interval's LocalSolution."""
    k, qhat = solve_stages(tab, problem, u_n, t_n, dt, ctx, picard, carry)
    with ctx.workdps(10):
        u_next = tuple(u_n[i] + dt * linalg.dot(tab.basis.w, [row[i] for row in k])
                       for i in range(problem.dim))
    return LocalSolution(t_n=t_n, dt_n=dt, qhat=qhat, u_next=u_next)


def eval_local(local, basis, t):
    """Dense evaluation of the predictor polynomial at t in the interval,
    at the ambient precision: call it inside ctx.workdps().

    A t that lands on a stored quadrature node (to rounding) returns the
    stored coefficient row verbatim, so nodal values never re-round.
    """
    eps = mp.eps * 16
    tau = (t - local.t_n) / local.dt_n
    if tau < -eps or tau > 1 + eps:
        raise SolverError(f"t={mp.nstr(mp.mpf(t), 10)} outside interval")
    for p, tp in enumerate(basis.tau):
        if abs(tau - tp) <= eps * (1 + abs(tp)):
            return tuple(local.qhat[p])
    return combine_basis(eval_basis(basis.tau, basis.lam, tau), local.qhat)


def combine_basis(vals, qhat):
    """Predictor value sum_p vals[p] qhat[p] from basis values at one point,
    per component, at the caller's precision: one linalg.dot each.  Its
    products are exact, so a caller at reduced precision rounds long rows
    first (as analysis._local_errors does)."""
    return tuple(linalg.dot(vals, [row[i] for row in qhat])
                 for i in range(len(qhat[0])))


def trajectory_eval(traj, t):
    """Evaluate the piecewise local solution at the ambient precision (call
    it inside ctx.workdps()); interior grid nodes resolve to the left
    interval (where the local solution matches the node value)."""
    times = traj.times
    if t < times[0] or t > times[-1]:
        raise SolverError(f"t={mp.nstr(mp.mpf(t), 10)} outside trajectory domain")
    n = bisect.bisect_left(times, t) - 1
    n = min(max(n, 0), len(traj.locals) - 1)
    return eval_local(traj.locals[n], traj.tableau.basis, t)


def _picard_bound_check(tab, problem, ctx, dt):
    with ctx.workdps(10):
        j = problem.jacobian(problem.u0, problem.t0)
        c = linalg.max_row_sum(j)
    amax = linalg.max_row_sum(tab.a)
    if not dt * c * amax < 1:
        raise SolverError(
            f"picard contraction bound violated: dt*C*max_row_sum(a) = "
            f"{mp.nstr(dt * c * amax, 5)} >= 1")


def integrate(tab, problem, m, ctx, picard=False):
    """Integrate over [t0, tf] on m equal intervals.

    One StageCarry goes from step to step (see solve_stages).  After each
    step its `start` becomes the interval's stage derivatives extended to
    the next interval's stage times, k_p = sum_q l_q(1 + tau_p) k_q
    (Hairer & Wanner, Solving ODEs II, section IV.8, starting values),
    from one (N+1)^2 table of l_q(1 + tau_p) evaluated at FACTOR_GUARD
    digits: the guess only starts the iteration.
    """
    if m < 1:
        raise SolverError("step count must be >= 1")
    with ctx.workdps(10):
        h = (problem.tf - problem.t0) / m
        times = [problem.t0 + i * h for i in range(m)] + [problem.tf]
        dts = [times[i + 1] - times[i] for i in range(m)]
        if picard:
            _picard_bound_check(tab, problem, ctx, max(dts))
    tau = tab.basis.tau
    with mp.workdps(FACTOR_GUARD):
        ext = [eval_basis(tau, tab.basis.lam, 1 + tp) for tp in tau]
    u = tuple(problem.u0)
    values = [u]
    locals_ = []
    carry = StageCarry()
    for i in range(m):
        try:
            loc = step(tab, problem, u, times[i], dts[i], ctx, picard, carry)
        except StageSolveError as exc:
            raise StageSolveError(f"interval {i}: {exc}", interval=i) from exc
        with ctx.workdps(10):
            cols = [[row[j] for row in carry.start] for j in range(problem.dim)]
            carry.start = [[linalg.dot(l_p, col) for col in cols] for l_p in ext]
        locals_.append(loc)
        u = loc.u_next
        values.append(u)
    return Trajectory(tableau=tab, times=tuple(times),
                      values=tuple(values), locals=tuple(locals_))

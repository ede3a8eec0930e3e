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
FACTOR_GUARD = 25  # digits past the residual's at which a refresh is factored


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
    t0: mp.mpf
    tf: mp.mpf
    u0: tuple
    jacobian: Optional[Callable] = None   # (u, t) -> matrix
    exact: Optional[Callable] = None      # t -> vector

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


def _fd_jacobian(problem, u, t, h):
    d = problem.dim
    cols = []
    for j in range(d):
        hj = h * (1 + abs(u[j]))
        up = list(u); up[j] += hj
        um = list(u); um[j] -= hj
        fp = problem.rhs(up, t)
        fm = problem.rhs(um, t)
        cols.append([(fp[i] - fm[i]) / (2 * hj) for i in range(d)])
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _stage_jacobian(problem, ctx, u, t):
    # analytic when the problem has one, central differences otherwise
    if problem.jacobian is not None:
        return [list(r) for r in problem.jacobian(u, t)]
    h = mp.mpf(10) ** (-(ctx.decimal_digits // 3))
    return _fd_jacobian(problem, u, t, h)


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


def solve_stages(tab, problem, u_n, t_n, dt, ctx, picard=False, newton=None):
    """Stage derivatives k of one step, solved to the stage tolerance.

    Newton works on the stacked residual r = k_p - F(state_p, t_p), always
    evaluated at the working precision, and stops at max|r| <= stage_tol *
    max(1, max|F(u_n, t_p)|), since the rounding floor of r grows with the
    derivatives.  The Newton matrix sets only the contraction rate, never
    the fixed point.  The optional one-element list `newton` carries its LU
    factorization from step to step; when it holds None the matrix is built
    from the Jacobian at (u_n, t_n).  Every 5 iterations it is rebuilt from
    per-stage Jacobians at the current states and factored at the digits
    they carry, FACTOR_GUARD + max(0, -log10(max|r|)); a refresh forced by
    a stalled contraction, or whose rounded matrix is singular, is factored
    at the working precision.  Picard is the same iteration with the
    Jacobian taken as zero: the Newton matrix is I, k - r = F(states(k)) and
    no matrix is factored (Hairer & Wanner, Solving ODEs II, section IV.8).
    """
    if not dt > 0:
        raise SolverError("dt must be positive")
    newton = newton or [None]
    s, d = tab.stages, problem.dim
    with ctx.workdps(10):
        full = mp.mp.dps
        t_p = [t_n + tab.basis.tau[p] * dt for p in range(s)]

        def states(k):
            return [[u_n[i] + dt * mp.fsum(tab.a[p][q] * k[q][i] for q in range(s))
                     for i in range(d)] for p in range(s)]

        def factor(jacs, dps):
            try:
                with mp.workdps(dps):
                    return linalg.lu_factor(_newton_matrix(tab, jacs, dt))
            except linalg.SingularMatrixError as exc:
                if dps < full:
                    return factor(jacs, full)
                raise StageSolveError("singular Newton matrix") from exc

        k = [list(problem.rhs(u_n, t_p[p])) for p in range(s)]
        tol = stage_tol(ctx) * max(1, max(abs(x) for row in k for x in row))
        if not picard and newton[0] is None:
            newton[0] = factor([_stage_jacobian(problem, ctx, u_n, t_n)] * s, full)
        prev = None
        for it in range(MAX_ITER):
            q = states(k)
            f = [problem.rhs(q[p], t_p[p]) for p in range(s)]
            r = [k[p][i] - f[p][i] for p in range(s) for i in range(d)]
            rn = max(abs(x) for x in r)
            if rn <= tol:
                return [tuple(row) for row in k]
            if not picard and it > 0 and (rn > prev / 2 or it % 5 == 0):
                dps = full if rn > prev / 2 else min(
                    full, FACTOR_GUARD + max(0, -int(mp.log10(rn))))
                newton[0] = factor([_stage_jacobian(problem, ctx, q[p], t_p[p])
                                    for p in range(s)], dps)
            # k -= M^-1 r for the Newton matrix M, which is I for Picard
            delta = r if picard else linalg.lu_solve(newton[0], r)
            for p in range(s):
                for i in range(d):
                    k[p][i] -= delta[p * d + i]
            prev = rn
        raise StageSolveError(
            f"{'Picard' if picard else 'Newton'} not converged in {MAX_ITER} "
            f"iterations (residual {mp.nstr(rn, 5)})")


def stages_to_qhat(tab, u_n, k, dt):
    """Predictor coefficients qhat_p = u_n + dt sum_q a_pq k_q."""
    s = tab.stages
    d = len(u_n)
    with mp.workdps(tab.basis.work_dps):
        return tuple(
            tuple(u_n[i] + dt * mp.fsum(tab.a[p][q] * k[q][i] for q in range(s))
                  for i in range(d))
            for p in range(s))


def step(tab, problem, u_n, t_n, dt, ctx, picard=False, newton=None):
    """One integration step; returns the interval's LocalSolution."""
    k = solve_stages(tab, problem, u_n, t_n, dt, ctx, picard, newton)
    with ctx.workdps(10):
        u_next = tuple(
            u_n[i] + dt * mp.fsum(tab.basis.w[p] * k[p][i]
                                  for p in range(tab.stages))
            for i in range(problem.dim))
    qhat = stages_to_qhat(tab, u_n, k, dt)
    return LocalSolution(t_n=t_n, dt_n=dt, qhat=qhat, u_next=u_next)


def eval_local(local, basis, t):
    """Dense evaluation of the predictor polynomial at t in the interval.

    A t that lands on a stored quadrature node (to rounding) returns the
    stored coefficient row verbatim, so nodal values never re-round.
    """
    eps = mp.eps * 16  # snap radius at the caller's precision, not the basis's
    with mp.workdps(basis.work_dps):
        tau = (mp.mpf(t) - local.t_n) / local.dt_n
        if tau < -eps or tau > 1 + eps:
            raise SolverError(f"t={mp.nstr(mp.mpf(t), 10)} outside interval")
        for p, tp in enumerate(basis.tau):
            if abs(tau - tp) <= eps * (1 + abs(tp)):
                return tuple(local.qhat[p])
        return combine_basis(basis, eval_basis(basis, tau), local.qhat)


def combine_basis(basis, vals, qhat):
    """Predictor value sum_p vals[p] qhat[p] from basis values at one point,
    per component, at the basis's working precision."""
    with mp.workdps(basis.work_dps):
        return tuple(mp.fsum(v * row[i] for v, row in zip(vals, qhat))
                     for i in range(len(qhat[0])))


def trajectory_eval(traj, t):
    """Evaluate the piecewise local solution; interior grid nodes resolve
    to the left interval (where the local solution matches the node value)."""
    times = traj.times
    if t < times[0] or t > times[-1]:
        raise SolverError(f"t outside trajectory domain")
    n = bisect.bisect_left(times, t) - 1
    n = min(max(n, 0), len(traj.locals) - 1)
    return eval_local(traj.locals[n], traj.tableau.basis, t)


def _picard_bound_check(tab, problem, ctx, dt):
    with ctx.workdps(10):
        j = _stage_jacobian(problem, ctx, list(problem.u0), problem.t0)
        c = linalg.max_row_sum(j)
    amax = linalg.max_row_sum([list(r) for r in tab.a])
    if not dt * c * amax < 1:
        raise SolverError(
            f"picard contraction bound violated: dt*C*max_row_sum(a) = "
            f"{mp.nstr(dt * c * amax, 5)} >= 1")


def integrate(tab, problem, m, ctx, picard=False):
    """Integrate over [t0, tf] on m equal intervals."""
    if m < 1:
        raise SolverError("step count must be >= 1")
    with ctx.workdps(10):
        h = (problem.tf - problem.t0) / m
        times = [problem.t0 + i * h for i in range(m)] + [problem.tf]
        dts = [times[i + 1] - times[i] for i in range(m)]
        if picard:
            _picard_bound_check(tab, problem, ctx, max(dts))
    u = tuple(problem.u0)
    values = [u]
    locals_ = []
    newton = [None]   # one Newton factorization, carried from step to step
    for i in range(m):
        try:
            loc = step(tab, problem, u, times[i], dts[i], ctx, picard, newton)
        except StageSolveError as exc:
            raise StageSolveError(f"interval {i}: {exc}", interval=i) from exc
        locals_.append(loc)
        u = loc.u_next
        values.append(u)
    return Trajectory(tableau=tab, times=tuple(times),
                      values=tuple(values), locals=tuple(locals_))

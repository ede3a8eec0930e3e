"""Time integration with the implicit DG-predictor method.

A step solves the stage system k_p = F(u_n + dt sum_q a_pq k_q, t_n +
tau_p dt) for the stage derivatives, reconstructs the predictor
coefficients qhat from them, and advances the node value with the
quadrature weights.  The predictor polynomial doubles as the dense
output between grid nodes.
"""

import bisect
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

import mpmath as mp

from . import linalg
from .basis import eval_basis
from .linalg import _fit, _mpf, _split

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
    """Stage-iteration state carried from step to step, for one tableau."""
    a: Optional[tuple] = None       # a and w as integers on one exponent (_split)
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


def _sub(x, y):
    """x - y of two splits, exactly."""
    e = min(x[1], y[1])
    return [(a << (x[1] - e)) - (b << (y[1] - e)) for a, b in zip(x[0], y[0])], e


def stage_sums(rows, cols, u, dt):
    """[u_i + dt sum_q rows[p][q] k_qi]_i for each row p, from the _split of
    the rows (one exponent), of each column k_i and of u: multiplied and
    summed exactly in integers, each rounded once at the ambient precision."""
    (man, ea), (um, eu), ((dm,), de) = rows, u, _split([dt])
    terms = []   # per column: k_i, u_i on the grid 2^e of the sum, shift of dt a k
    for (k, ek), ui in zip(cols, um):
        e = min(de + ea + ek, eu)
        terms.append((k, ui << (eu - e), de + ea + ek - e, e))
    return [[_mpf(base + (dm * sum(map(mul, row, k)) << sh), e)
             for k, base, sh, e in terms] for row in man]


def solve_stages(tab, problem, u_n, t_n, dt, ctx, picard=False, carry=None):
    """Stage derivatives k of one step, solved to the stage tolerance, the
    predictor coefficients qhat_p = u_n + dt sum_q a_pq k_q (the stage
    states of the converged residual) and u_next = u_n + dt sum_p w_p k_p:
    (k, qhat, u_next).  A non-finite F or J raises linalg.NotFiniteRealError.

    Newton works on the stacked residual r = k_p - F(state_p, t_p) and stops
    at max|r| <= stage_tol * max(1, max|F(u_n, t_p)|), since the rounding
    floor of r grows with the derivatives.  Convergence is accepted only
    from a residual evaluated at the working precision, so the Newton
    matrix and the digits of the other iterations set only the rate, never
    the fixed point.  Each iteration evaluates the states and right-hand
    sides at p = min(working digits, FACTOR_GUARD + the decade,
    relative to that scale, that the next residual can reach): the residual
    must resolve only what its correction is to gain.  The decade is
    predicted from the gains the iteration has shown, and a refresh adds
    the decade it is taken at to the gain.  A residual at reduced digits
    that meets the tolerance, or whose correction the digits would cut
    short, is evaluated again at the working precision (the floor
    re-check), so a precision-limited iteration never counts as a stall.
    k is kept as integer columns (_split, _fit): r, k -= r and M^-1 r are exact
    to the grid of r (lu_solve); stage_sums rounds each state (at p digits) and u_next once.

    The StageCarry `carry` (a fresh one when None) holds the state that goes
    from step to step, and is updated in place: `a`, the split of a and w;
    `lu`, the LU factorization of the Newton matrix; `decade`, the decade the
    first correction of the last step reached (the working precision when it
    converged); and `start`, the start guess for k.  A step with no `decade`
    runs at the working precision throughout, and one with no `start`, or one
    that is not finite or exceeds the tolerance scale START_BOUND times,
    starts from k_p = F(u_n, t_p).  With no `lu` the matrix is built from the
    Jacobian at (u_n, t_n).  Every 5 iterations it is rebuilt from per-stage
    Jacobians at the current states, evaluated and factored at the digits they
    carry, FACTOR_GUARD + the residual's decade; a refresh forced by a stalled
    contraction, or whose rounded matrix is singular, is evaluated and
    factored at the working precision.  Picard is the same iteration with the
    Jacobian taken as zero: the Newton matrix is I, k - r = F(states(k)) and
    no matrix is factored (Hairer & Wanner, Solving ODEs II, section IV.8).
    """
    if not dt > 0:
        raise SolverError("dt must be positive")
    carry = carry or StageCarry()
    s, d = tab.stages, problem.dim
    if carry.a is None:
        man, e = _split([x for row in (*tab.a, tab.basis.w) for x in row])
        carry.a = [man[i:i + s] for i in range(0, len(man), s)], e
    (a, ea), u = carry.a, _split(u_n)
    with ctx.workdps(10):
        full, bits = mp.mp.dps, mp.mp.prec
        t_p = [t_n + tab.basis.tau[p] * dt for p in range(s)]

        def residual(cols, dps):
            # stage states of k and the split columns of r = k - F(states)
            with mp.workdps(dps):
                short = [_fit(c, mp.mp.prec) for c in cols] if dps < full else cols
                q = stage_sums((a[:s], ea), short, u, dt)
                f = list(map(problem.rhs, q, t_p))
                r = [_sub(col, _split(fc)) for col, fc in zip(cols, zip(*f))]
                return q, r, max(_mpf(max(map(abs, m)), x) for m, x in r)

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

        k = list(map(_split, zip(*map(problem.rhs, [u_n] * s, t_p))))   # F(u_n, t_p)
        scale = max(1, max(_mpf(max(map(abs, m)), x) for m, x in k))
        tol = stage_tol(ctx) * scale
        done = decade(tol)
        start = carry.start
        if start is not None and all(mp.isfinite(x) and abs(x) <= START_BOUND * scale
                                     for row in start for x in row):
            k = list(map(_split, zip(*start)))
        k = [_fit(col, bits) for col in k]
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
                u_next = tuple(stage_sums((a[s:], ea), k, u, dt)[0])
                carry.start = [[_mpf(m[p], x) for m, x in k] for p in range(s)]
                return tuple(map(tuple, carry.start)), tuple(map(tuple, q)), u_next
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
            if not picard:   # k -= M^-1 r for the Newton matrix M, I for Picard
                er = min(x for _, x in r)   # r stacked as one split column
                x, ex = linalg.lu_solve(carry.lu, (
                    [m[p] << (em - er) for p in range(s) for m, em in r], er))
                r = [(x[i::d], ex) for i in range(d)]
            k = [_fit(_sub(col, x), bits) for col, x in zip(k, r)]
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
    _, qhat, u_next = solve_stages(tab, problem, u_n, t_n, dt, ctx, picard, carry)
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
        except (StageSolveError, linalg.NotFiniteRealError) as exc:
            raise StageSolveError(f"interval {i}: {exc}", interval=i) from exc
        with ctx.workdps(10):
            cols = [[row[j] for row in carry.start] for j in range(problem.dim)]
            carry.start = [[linalg.dot(l_p, col) for col in cols] for l_p in ext]
        locals_.append(loc)
        u = loc.u_next
        values.append(u)
    return Trajectory(tableau=tab, times=tuple(times),
                      values=tuple(values), locals=tuple(locals_))

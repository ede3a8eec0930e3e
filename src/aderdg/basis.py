"""Nodal Lagrange basis on [0, 1] at Legendre-type quadrature nodes.

Nodes are roots of the shifted Legendre polynomial of degree N+1
(gauss-legendre family) or of its Radau combinations.  The basis is kept
in nodal form only: the nodes, their barycentric weights lam and the
quadrature weights w.  Values come from the barycentric formula, weights
from the closed-form Gauss rule, which integrates every basis polynomial
exactly (Berrut & Trefethen, SIAM Rev. 46(3), 2004).
"""

import functools
import math
from dataclasses import dataclass, field

import mpmath as mp

from . import linalg

FAMILIES = ("gauss-legendre", "radau-left", "radau-right")

MAX_NEWTON_ROOT = 200


class BasisError(ValueError):
    pass


class RootConvergenceError(BasisError):
    pass


@dataclass(frozen=True)
class NodalBasis:
    n: int                      # polynomial degree N; N+1 nodes
    family: str
    tau: tuple                  # nodes, ascending in [0, 1]
    w: tuple                    # quadrature weights, sum to 1
    lam: tuple                  # barycentric weights of the nodes
    psi: tuple                  # l_p(0)
    psi_tilde: tuple            # l_p(1)
    work_dps: int = field(compare=False)


def work_digits(ctx, n):
    """Internal working digits: decimal_digits plus max(10, 1.2N + 15).

    Sized for the ~4^N growth of a monomial basis, which the nodal form
    lacks; kept because every stored coefficient is built at it."""
    return ctx.decimal_digits + max(10, int(1.2 * n) + 15)


def require_conditioning(n, ctx):
    need = 0.7 * n + 40
    if ctx.decimal_digits < need:
        raise BasisError(
            f"decimal_digits={ctx.decimal_digits} too low for degree N={n}; "
            f"need at least {math.ceil(need)}")


def shifted_legendre(n, tau):
    """(P~_n, P~_n', P~_{n-1}, P~_{n-1}') for the shifted Legendre
    polynomials on [0, 1], with P~_{-1} = 0, at the ambient precision.

    One three-term recurrence in x = 2*tau - 1 gives both values; the
    derivatives follow from (x^2 - 1) P_n' = n (x P_n - P_{n-1}) and
    (x^2 - 1) P_{n-1}' = n (P_n - x P_{n-1}) (Abramowitz & Stegun 22.8.5),
    with x^2 - 1 = 4 tau (tau - 1).  At tau = 0 and 1, where they divide
    by zero, the exact end values P~_k = x^k, P~_k' = x^(k+1) k (k+1) hold.
    """
    t = mp.mpf(tau)
    x = 2 * t - 1
    p_prev, p = (mp.mpf(1), x) if n else (mp.mpf(0), mp.mpf(1))
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    den = 2 * t * (t - 1)
    if den == 0:
        return p, x * p * n * (n + 1), p_prev, p * (n - 1) * n
    c = n / den
    return p, c * (x * p - p_prev), p_prev, c * (p - x * p_prev)


def _family_poly(n1, family):
    """Evaluator tau -> (value, derivative) of the node-defining polynomial
    of a family: P~_{N+1} (gauss-legendre) or P~_{N+1} -+ P~_N
    (radau-right / radau-left), both from one shifted_legendre pass."""
    sign = {"gauss-legendre": 0, "radau-right": -1, "radau-left": 1}[family]

    def f(tau):
        v1, d1, v0, d0 = shifted_legendre(n1, tau)
        return (v1 + sign * v0, d1 + sign * d0) if sign else (v1, d1)
    return f


def _newton_root(f, guess, eps):
    tau = guess
    for _ in range(MAX_NEWTON_ROOT):
        v, d = f(tau)
        if d == 0:
            break
        step = v / d
        tau = tau - step
        if abs(step) <= eps * (1 + abs(tau)):
            # one extra polish step past the convergence trigger
            v, d = f(tau)
            if d != 0:
                tau = tau - v / d
            return tau
    raise RootConvergenceError("Newton iteration for a node did not converge")


def _initial_guesses(n1, family):
    """One closed-form starting point per root of the family polynomial.

    Gauss-Legendre starts from the asymptotic zeros of P_{N+1},
    theta_i = (i - 1/4) pi / (N + 3/2).  Radau-right starts from the
    endpoint 1, an exact root since P~_k(1) = 1 for every k, plus the
    asymptotic zeros of the Jacobi polynomial P_N^(1,0),
    theta_k = (k + 1/4) pi / (N + 1) (Szego, Orthogonal Polynomials, 8.9;
    Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013); radau-left is its
    mirror image about 1/2.  Each theta maps to tau = (1 + cos theta) / 2.
    """
    if family == "gauss-legendre":
        return [(1 + mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n1 + mp.mpf(1) / 2))) / 2
                for i in range(1, n1 + 1)]
    right = [mp.mpf(1)] + [(1 + mp.cos(mp.pi * (k + mp.mpf(1) / 4) / n1)) / 2
                           for k in range(1, n1)]
    return right if family == "radau-right" else [1 - g for g in right]


def compute_nodes(n, family, ctx):
    """Ascending nodes of the degree-N basis, (N+1) of them, in [0, 1].

    Every node is a Newton root of the family polynomial started at its
    closed-form asymptotic zero; _check_roots rejects two starts that
    converge to one root.
    """
    if n < 0:
        raise BasisError("degree must be nonnegative")
    n1 = n + 1
    if family not in FAMILIES:
        raise BasisError(f"unknown node family: {family!r}")
    dps = work_digits(ctx, n)
    with mp.workdps(dps):
        eps = mp.mpf(10) ** (-(dps - 5))
        f = _family_poly(n1, family)
        roots = sorted(_newton_root(f, g, eps)
                       for g in _initial_guesses(n1, family))
        _check_roots(roots, f, ctx)
        return tuple(roots)


def _check_roots(roots, f, ctx):
    bound = 100 * ctx.unit_roundoff
    for t in roots:
        if not 0 <= t <= 1:
            raise BasisError(f"node {mp.nstr(t, 10)} outside [0, 1]")
        if abs(f(t)[0]) > bound:
            raise RootConvergenceError(
                f"node residual {mp.nstr(abs(f(t)[0]), 5)} above polish target")
    for a, b in zip(roots, roots[1:]):
        if not a < b:
            raise BasisError("nodes not strictly ascending")


def barycentric_weights(tau, ctx):
    """lam_p = 1 / prod_{k != p} (tau_p - tau_k) for the nodes tau."""
    if len(set(tau)) != len(tau):
        raise BasisError("coincident interpolation nodes")
    with mp.workdps(work_digits(ctx, len(tau) - 1)):
        return tuple(1 / mp.fprod(tp - tk for k, tk in enumerate(tau) if k != p)
                     for p, tp in enumerate(tau))


def eval_basis(tau, lam, t):
    """Values at t of the Lagrange polynomials of the nodes tau, whose
    barycentric weights are lam: l_p(t) = (lam_p / (t - tau_p)) / sum_k
    lam_k / (t - tau_k) (Berrut & Trefethen, SIAM Rev. 46(3), 2004, sec. 4).

    O(N) per point, at the ambient precision: call it inside ctx.workdps().
    t is not rounded first, so a node gives the exact Kronecker delta at
    any precision.
    """
    terms = []
    for p, tp in enumerate(tau):
        if t == tp:
            return tuple(mp.mpf(int(q == p)) for q in range(len(tau)))
        terms.append(lam[p] / (t - tp))
    total = mp.fsum(terms)
    return tuple(term / total for term in terms)


def _check_moments(tau, w, top, ctx):
    col, dev = [mp.mpf(1)] * len(tau), mp.mpf(0)
    for r in range(top + 1):
        dev = max(dev, abs(linalg.dot(w, col) - mp.mpf(1) / (r + 1)))
        col = [c * t for c, t in zip(col, tau)]
    if dev > ctx.identity_tol:
        raise BasisError(
            f"quadrature misses a moment of degree <= {top} "
            f"by {mp.nstr(dev, 5)}")


@functools.lru_cache(maxsize=32)
def gauss_rule(n, ctx):
    """Nodes and weights of the (n+1)-point Gauss-Legendre rule on [0, 1].

    w_p = 1 / (tau_p (1 - tau_p) P~'_{n+1}(tau_p)^2), the closed form of
    Abramowitz & Stegun 25.4.29 mapped to [0, 1]; checked on the moments
    the rule integrates exactly, degree 2n+1 and below.
    """
    tau = compute_nodes(n, "gauss-legendre", ctx)
    with mp.workdps(work_digits(ctx, n)):
        w = tuple(1 / (t * (1 - t) * shifted_legendre(n + 1, t)[1] ** 2)
                  for t in tau)
        _check_moments(tau, w, 2 * n + 1, ctx)
    return tau, w


def compute_weights(tau, lam, ctx):
    """Quadrature weights w_p = int l_p over [0, 1] for the nodes tau and
    their barycentric weights lam.

    l_p has degree N, so the (N+1)-point Gauss rule integrates it exactly;
    on the Gauss nodes the l_p values are Kronecker deltas and w is the
    Gauss weights themselves.  Every family's rule integrates degree 2N,
    which is checked on the monomials 1, tau, ..., tau^{2N}.
    """
    n = len(tau) - 1
    g_tau, g_w = gauss_rule(n, ctx)
    with mp.workdps(work_digits(ctx, n)):
        vals = [eval_basis(tau, lam, t) for t in g_tau]
        w = tuple(mp.fsum(g * v[p] for g, v in zip(g_w, vals))
                  for p in range(n + 1))
        _check_moments(tau, w, 2 * n, ctx)
        return w


def make_basis(n, family, ctx):
    """Build and validate the full nodal basis for degree n; lam and the
    boundary traces psi_p = l_p(0), psi~_p = l_p(1) follow from the nodes."""
    require_conditioning(n, ctx)
    # the Gauss rule is cached, and compute_weights needs it for every family
    tau = (gauss_rule(n, ctx)[0] if family == "gauss-legendre"
           else compute_nodes(n, family, ctx))
    lam = barycentric_weights(tau, ctx)
    w = compute_weights(tau, lam, ctx)
    dps = work_digits(ctx, n)
    tol = ctx.identity_tol
    with mp.workdps(dps):
        psi, psi_tilde = (eval_basis(tau, lam, t) for t in (0, 1))
        if any(wp <= 0 for wp in w):
            raise BasisError("nonpositive quadrature weight")
        if abs(mp.fsum(psi) - 1) > tol or abs(mp.fsum(psi_tilde) - 1) > tol:
            raise BasisError("boundary traces do not form a partition of unity")
        if family == "gauss-legendre":
            for p in range(n + 1):
                if (abs(tau[p] + tau[n - p] - 1) > tol
                        or abs(w[p] - w[n - p]) > tol):
                    raise BasisError("gauss-legendre node/weight symmetry violated")
    return NodalBasis(n=n, family=family, tau=tau, w=w, lam=lam,
                      psi=psi, psi_tilde=psi_tilde, work_dps=dps)

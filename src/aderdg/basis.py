"""Nodal Lagrange basis on [0, 1] at Legendre-type quadrature nodes.

Nodes are roots of the shifted Legendre polynomial of degree N+1
(gauss-legendre family) or of its Radau combinations, solved by Newton's
method on integers in fixed point with precision doubling; the mpf
recurrence at the working digits checks every root.  The basis is kept
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
# a family's nodes are the roots of P~_{N+1} + sign * P~_N
_SIGN = {"gauss-legendre": 0, "radau-right": -1, "radau-left": 1}

# _solve_root: iterations per root, first and guard bits, largest last step
MAX_NEWTON_ROOT, START_BITS, GUARD_BITS, STOP_UNITS = 200, 60, 24, 8


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


def _newton_correction(n1, sign, t, bits):
    """Newton correction, in units of 2^-bits, of f = P~_{N+1} + sign P~_N
    at tau = t / 2^bits: shifted_legendre's recurrence and identity on
    integers, f/f' = 2 tau (tau - 1) f / (n1 (x P - Q + sign (P - x Q)))."""
    one = 1 << bits
    x = 2 * t - one
    q, p = one, x
    for k in range(1, n1):
        q, p = p, ((2 * k + 1) * (x * p >> bits) - k * q) // (k + 1)
    d = n1 * ((x * p >> bits) - q + sign * (p - (x * q >> bits)))
    if not d:
        raise RootConvergenceError("zero derivative at a node iterate")
    return (2 * t * (t - one) >> bits) * (p + sign * q) // d


def _solve_root(n1, sign, guess, prec):
    """Root of P~_{N+1} + sign P~_N near guess, rounded once to prec bits.

    Newton on tau = t / 2^bits with integer t and precision doubling (Brent
    & Zimmermann, Modern Computer Arithmetic, 4.2): a correction of 2^-r
    leaves ~2r good bits and the next doubles them, so bits grows to 4r,
    up to prec + GUARD_BITS, where a correction <= STOP_UNITS ends it."""
    top, bits = prec + GUARD_BITS, START_BITS
    t = int(mp.ldexp(guess, bits))
    for _ in range(MAX_NEWTON_ROOT):
        step = _newton_correction(n1, sign, t, bits)
        t -= step
        if bits == top and abs(step) <= STOP_UNITS:
            return mp.mpf((t, -bits))
        grown = min(top, max(bits, 4 * (bits - abs(step).bit_length())))
        t, bits = t << (grown - bits), grown
    raise RootConvergenceError("Newton iteration for a node did not converge")


def _initial_guesses(n1, family):
    """Starting points at START_BITS, one per non-endpoint root of the family.

    Gauss-Legendre starts from the asymptotic zeros of P_{N+1},
    theta_i = (i - 1/4) pi / (N + 3/2).  Radau-right starts from the
    asymptotic zeros of the Jacobi polynomial P_N^(1,0),
    theta_k = (k + 1/4) pi / (N + 1) (Szego, Orthogonal Polynomials, 8.9;
    Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013); radau-left is its
    mirror image about 1/2.  Each theta maps to tau = (1 + cos theta) / 2.
    mpmath's cos, not math.cos, which maps ~0.12 MiB of libm tables.
    """
    with mp.workprec(START_BITS):
        if family == "gauss-legendre":
            return [(1 + mp.cos(mp.pi * (i - 0.25) / (n1 + 0.5))) / 2
                    for i in range(1, n1 + 1)]
        right = [(1 + mp.cos(mp.pi * (k + 0.25) / n1)) / 2
                 for k in range(1, n1)]
        return right if family == "radau-right" else [1 - g for g in right]


def compute_nodes(n, family, ctx):
    """Ascending nodes of the degree-N basis, (N+1) of them, in [0, 1].

    Each is solved by _solve_root, in integer fixed point with precision
    doubling, from its asymptotic zero; a Radau endpoint (1 or 0) is an
    exact root, as P~_k(1) = 1 and P~_k(0) = (-1)^k.  _check_roots, the
    mpf shifted_legendre at the working digits, is the acceptance check;
    it also rejects two starts that converge to one root.
    """
    if n < 0:
        raise BasisError("degree must be nonnegative")
    n1 = n + 1
    if family not in FAMILIES:
        raise BasisError(f"unknown node family: {family!r}")
    sign = _SIGN[family]
    with mp.workdps(work_digits(ctx, n)):
        ends = {"radau-right": [mp.mpf(1)], "radau-left": [mp.mpf(0)]}
        roots = sorted(ends.get(family, []) + [
            _solve_root(n1, sign, g, mp.mp.prec)
            for g in _initial_guesses(n1, family)])
        _check_roots(roots, n1, sign, ctx)
        return tuple(roots)


def _check_roots(roots, n1, sign, ctx):
    bound = 100 * ctx.unit_roundoff
    for t in roots:
        if not 0 <= t <= 1:
            raise BasisError(f"node {mp.nstr(t, 10)} outside [0, 1]")
        v1, _, v0, _ = shifted_legendre(n1, t)
        if abs(v1 + sign * v0) > bound:
            raise RootConvergenceError(
                f"node residual {mp.nstr(abs(v1 + sign * v0), 5)} above "
                f"{mp.nstr(bound, 3)}")
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

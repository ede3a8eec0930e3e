"""Nodal Lagrange basis on [0, 1] at Legendre-type quadrature nodes.

Nodes are roots of the shifted Legendre polynomial of degree N+1
(gauss-legendre family) or of its Radau combinations, solved by Newton's
method on integers in fixed point with precision doubling; the mpf
recurrence at the working digits checks every root and, in the same
pass, gives every family's quadrature weights in closed form.  The basis
is kept in nodal form only: the nodes, their barycentric weights lam and
the quadrature weights w.  Values come from the barycentric formula
(Berrut & Trefethen, SIAM Rev. 46(3), 2004).
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
# _check_roots: units of 2^-prec a node may sit from its root (measured:
# at most 1.4, every family, N up to 150)
CHECK_BITS = 4


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
    """(P~_n, P~_n', P~_{n-1}) for the shifted Legendre polynomials on
    [0, 1], with P~_{-1} = 0, at the ambient precision.

    One three-term recurrence in x = 2*tau - 1 gives both values; the
    derivative follows from (x^2 - 1) P_n' = n (x P_n - P_{n-1})
    (Abramowitz & Stegun 22.8.5), with x^2 - 1 = 4 tau (tau - 1).  At
    tau = 0 and 1, where it divides by zero, the exact end values
    P~_n = x^n, P~_n' = x^(n+1) n (n+1) hold.
    """
    t = mp.mpf(tau)
    x = 2 * t - 1
    p_prev, p = (mp.mpf(1), x) if n else (mp.mpf(0), mp.mpf(1))
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    den = 2 * t * (t - 1)
    if den == 0:
        return p, x * p * n * (n + 1), p_prev
    c = n / den
    return p, c * (x * p - p_prev), p_prev


def _newton_correction(n1, sign, t, bits):
    """Newton correction, in units of 2^-bits, of f = P~_{N+1} + sign P~_N
    at tau = t / 2^bits: shifted_legendre's recurrence on integers, and
    A&S 22.8.5 for both degrees, f/f' = 2 tau (tau - 1) f /
    (n1 (x P - Q + sign (P - x Q)))."""
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


@functools.lru_cache(maxsize=32)
def quadrature_rule(n, family, ctx):
    """Ascending nodes of the degree-N basis, (N+1) of them in [0, 1], and
    the weights of the family's (N+1)-point quadrature rule on them.

    Each interior node is solved by _solve_root, in integer fixed point
    with precision doubling, from its asymptotic zero; a Radau endpoint
    (1 or 0) is an exact root, as P~_k(1) = 1 and P~_k(0) = (-1)^k.
    _check_roots, the mpf shifted_legendre at the working digits, accepts
    the nodes and gives the weights from the same pass; they are checked
    on the moments the rule integrates exactly, degree 2N+1 for Gauss and
    2N for Radau.
    """
    if n < 0:
        raise BasisError("degree must be nonnegative")
    if family not in FAMILIES:
        raise BasisError(f"unknown node family: {family!r}")
    n1, sign = n + 1, _SIGN[family]
    with mp.workdps(work_digits(ctx, n)):
        ends = {"radau-right": [mp.mpf(1)], "radau-left": [mp.mpf(0)]}
        roots = tuple(sorted(ends.get(family, []) + [
            _solve_root(n1, sign, g, mp.mp.prec)
            for g in _initial_guesses(n1, family)]))
        w = _check_roots(roots, n1, sign)
        _check_moments(roots, w, 2 * n + 1 - abs(sign), ctx)
    return roots, w


def _check_roots(roots, n1, sign):
    """Accept roots of f = P~_{N+1} + sign P~_N at the ambient precision
    and return the quadrature weights there.  At a root inside (0, 1),
    f' = (1 + |sign|) P~'_{N+1} (A&S 22.8.5), so |f / P~'_{N+1}| is within
    a factor 2 of the distance to the root; it may be 2^(CHECK_BITS - prec).

    The weights are Abramowitz & Stegun 25.4.29 (Gauss) and 25.4.31
    (Radau) mapped to [0, 1]: w = 1 / (tau (1 - tau) P~'_{N+1}^2), and
    w = tau / ((N+1) P~_N)^2 for radau-right, (1 - tau) / ((N+1) P~_N)^2
    for radau-left, which gives the endpoint its 1 / (N+1)^2.
    """
    bound = mp.ldexp(1, CHECK_BITS - mp.mp.prec)
    w = []
    for t in roots:
        if not 0 <= t <= 1:
            raise BasisError(f"node {mp.nstr(t, 10)} outside [0, 1]")
        v1, d1, v0 = shifted_legendre(n1, t)
        res, lim = abs(v1 + sign * v0), bound * abs(d1)
        if res > lim:
            raise RootConvergenceError(
                f"node residual {mp.nstr(res, 5)} above {mp.nstr(lim, 3)}")
        w.append(1 / (t * (1 - t) * d1 ** 2) if not sign
                 else (t if sign < 0 else 1 - t) / (n1 * v0) ** 2)
    for a, b in zip(roots, roots[1:]):
        if not a < b:
            raise BasisError("nodes not strictly ascending")
    return tuple(w)


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


def make_basis(n, family, ctx):
    """Build and validate the full nodal basis for degree n: the nodes and
    weights of the family's quadrature_rule, whose weights are w_p = int l_p
    as the rule integrates the degree-N l_p exactly; lam and the boundary
    traces psi_p = l_p(0), psi~_p = l_p(1) follow from the nodes."""
    require_conditioning(n, ctx)
    tau, w = quadrature_rule(n, family, ctx)
    lam = barycentric_weights(tau, ctx)
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

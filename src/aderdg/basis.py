"""Nodal Lagrange basis on [0, 1] at Legendre-type quadrature nodes.

Nodes are roots of the shifted Legendre polynomial of degree N+1
(gauss-legendre family) or of its Radau combinations.  The basis is kept
in monomial form: weights and all coefficient integrals reduce to exact
monomial integration, so residuals of downstream identities reflect only
rounding.  Monomial coefficients grow roughly like 4^N, hence all
construction and evaluation runs at an elevated internal precision.
"""

import math
from dataclasses import dataclass, field

import mpmath as mp

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
    phi: tuple                  # (N+1)x(N+1) monomial coefficients, phi[p][k]
    psi: tuple                  # phi_p(0)
    psi_tilde: tuple            # phi_p(1)
    work_dps: int = field(default=0, compare=False)


def work_digits(ctx, n):
    """Internal working digits absorbing ~4^N monomial coefficient growth."""
    return ctx.decimal_digits + max(10, int(1.2 * n) + 15)


def require_conditioning(n, ctx):
    need = 0.7 * n + 40
    if ctx.decimal_digits < need:
        raise BasisError(
            f"decimal_digits={ctx.decimal_digits} too low for degree N={n}; "
            f"need at least {math.ceil(need)}")


def shifted_legendre(n_poly, tau, ctx=None):
    """Value and derivative of the shifted Legendre polynomial on [0, 1].

    Three-term recurrence in x = 2*tau - 1; runs at the ambient precision
    when ctx is None.
    """
    def compute():
        x = 2 * mp.mpf(tau) - 1
        p_prev, p = mp.mpf(1), x
        d_prev, d = mp.mpf(0), mp.mpf(2)
        if n_poly == 0:
            return p_prev, d_prev
        for k in range(1, n_poly):
            p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            d_next = ((2 * k + 1) * (2 * p + x * d) - k * d_prev) / (k + 1)
            p_prev, p = p, p_next
            d_prev, d = d, d_next
        return p, d

    if ctx is None:
        return compute()
    with ctx.workdps():
        return compute()


def _family_poly(n1, family):
    """Evaluator for the node-defining polynomial of a family (value, deriv)."""
    if family == "gauss-legendre":
        def f(tau):
            return shifted_legendre(n1, tau)
    elif family == "radau-right":
        def f(tau):
            v1, d1 = shifted_legendre(n1, tau)
            v0, d0 = shifted_legendre(n1 - 1, tau)
            return v1 - v0, d1 - d0
    elif family == "radau-left":
        def f(tau):
            v1, d1 = shifted_legendre(n1, tau)
            v0, d0 = shifted_legendre(n1 - 1, tau)
            return v1 + v0, d1 + d0
    else:
        raise BasisError(f"unknown node family: {family!r}")
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


def _poly_mul(a, b):
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def poly_integral01(coeffs):
    """Exact integral over [0, 1] of a polynomial in monomial form."""
    return mp.fsum(c / (k + 1) for k, c in enumerate(coeffs))


def lagrange_coefficients(tau, ctx):
    """Monomial coefficients phi[p][k] of the Lagrange basis, plus traces.

    Returns (phi, psi, psi_tilde) with psi_p = phi_p(0), psi_tilde_p = phi_p(1).
    """
    n1 = len(tau)
    with mp.workdps(work_digits(ctx, n1 - 1)):
        for p in range(n1):
            for q in range(p + 1, n1):
                if tau[p] == tau[q]:
                    raise BasisError("coincident interpolation nodes")
        phi = []
        for p in range(n1):
            coeffs = [mp.mpf(1)]
            denom = mp.mpf(1)
            for k in range(n1):
                if k == p:
                    continue
                coeffs = _poly_mul(coeffs, [-tau[k], mp.mpf(1)])
                denom *= tau[p] - tau[k]
            phi.append(tuple(c / denom for c in coeffs))
        psi = tuple(row[0] for row in phi)
        psi_tilde = tuple(mp.fsum(row) for row in phi)
        return tuple(phi), psi, psi_tilde


def compute_weights(phi, ctx):
    """Quadrature weights w_p = int phi_p over [0, 1], by monomial integration.

    phi are the Lagrange rows from lagrange_coefficients.  Cross-checks the
    equivalent definition w_p = int phi_p^2 and fails if the two disagree
    beyond identity_tol.
    """
    with mp.workdps(work_digits(ctx, len(phi) - 1)):
        w = tuple(poly_integral01(row) for row in phi)
        w_sq = tuple(poly_integral01(_poly_mul(row, row)) for row in phi)
        dev = max(abs(a - b) for a, b in zip(w, w_sq))
        if dev > ctx.identity_tol:
            raise BasisError(
                f"weight definitions disagree by {mp.nstr(dev, 5)}")
        return w


def eval_basis(basis, tau):
    """Values of all basis polynomials at tau, in barycentric form.

    l_p(tau) = (lam_p / (tau - tau_p)) / sum_k lam_k / (tau - tau_k), where
    the barycentric weight lam_p = 1 / prod_{k != p} (tau_p - tau_k) is the
    leading monomial coefficient phi[p][-1] (Berrut & Trefethen, SIAM Rev.
    46(3), 2004).  O(N) per point and free of the monomial coefficient
    growth.  A tau on a node gives the exact Kronecker delta.
    """
    with mp.workdps(basis.work_dps or mp.mp.dps):
        tau = mp.mpf(tau)
        terms = []
        for p, tp in enumerate(basis.tau):
            if tau == tp:
                return tuple(mp.mpf(int(q == p)) for q in range(len(basis.tau)))
            terms.append(basis.phi[p][-1] / (tau - tp))
        total = mp.fsum(terms)
        return tuple(t / total for t in terms)


def make_basis(n, family, ctx):
    """Build and validate the full nodal basis for degree n."""
    require_conditioning(n, ctx)
    tau = compute_nodes(n, family, ctx)
    phi, psi, psi_tilde = lagrange_coefficients(tau, ctx)
    w = compute_weights(phi, ctx)
    tol = ctx.identity_tol
    with mp.workdps(work_digits(ctx, n)):
        if any(wp <= 0 for wp in w):
            raise BasisError("nonpositive quadrature weight")
        if abs(mp.fsum(w) - 1) > tol:
            raise BasisError("weights do not sum to 1")
        if abs(mp.fsum(psi) - 1) > tol or abs(mp.fsum(psi_tilde) - 1) > tol:
            raise BasisError("boundary traces do not form a partition of unity")
        if family == "gauss-legendre":
            for p in range(n + 1):
                if abs(tau[p] + tau[n - p] - 1) > tol or abs(w[p] - w[n - p]) > tol:
                    raise BasisError("gauss-legendre node/weight symmetry violated")
    return NodalBasis(n=n, family=family, tau=tau, w=w, phi=phi,
                      psi=psi, psi_tilde=psi_tilde,
                      work_dps=work_digits(ctx, n))

"""Coefficient matrices of the DG-predictor time integrator.

kappa collects the weak-form coupling of the nodal basis, mu is the
diagonal of quadrature weights, and a = kappa^{-1} mu is the implicit
Runge-Kutta matrix the method is equivalent to.  Everything the matrices
are supposed to satisfy (row/column sum identities, simplifying order
conditions, dyadic stability structure, the rational stability function)
is checked numerically here.
"""

import json
from dataclasses import dataclass

import mpmath as mp

from . import linalg
from .arith import format_decimal, parse_decimal
from .basis import (FAMILIES, NodalBasis, _poly_mul, compute_nodes,
                    lagrange_coefficients, make_basis, poly_integral01,
                    require_conditioning, work_digits)

SCHEMA_VERSION = 1


class TableauError(ValueError):
    pass


class ImportVerificationError(TableauError):
    pass


@dataclass(frozen=True)
class AderDgTableau:
    n: int
    basis: NodalBasis
    kappa: tuple        # (N+1)^2, weak-form coupling matrix
    a: tuple            # (N+1)^2, RK matrix kappa^{-1} mu
    stages: int
    digits: int         # precision the tableau was built at

    @property
    def family(self):
        return self.basis.family


@dataclass(frozen=True)
class QMStability:
    q: tuple
    m: tuple
    lambda_m: mp.mpf          # |a^T psi|^2, the nonzero eigenvalue of M
    q_residual: mp.mpf        # max |Q - psi psi^T|
    m_residual: mp.mpf        # max |M - (a^T psi)(a^T psi)^T|
    gershgorin_lower: mp.mpf  # certified lower eigenvalue bound of M


def _deriv_coeffs(row):
    # a constant's derivative is the zero row, not an empty one
    return tuple((k + 1) * c for k, c in enumerate(row[1:])) or (mp.mpf(0),)


def build_kappa(basis, ctx):
    """kappa_pq = psi~_p psi~_q - int phi_p' phi_q, by monomial integration.

    The equivalent form psi_p psi_q + int phi_p phi_q' must agree to
    identity_tol; a disagreement signals coefficient corruption.
    """
    n1 = basis.n + 1
    with mp.workdps(basis.work_dps):
        dphi = [_deriv_coeffs(row) for row in basis.phi]
        cross = [[poly_integral01(_poly_mul(list(dphi[p]), list(basis.phi[q])))
                  for q in range(n1)] for p in range(n1)]
        kappa = [[basis.psi_tilde[p] * basis.psi_tilde[q] - cross[p][q]
                  for q in range(n1)] for p in range(n1)]
        alt = [[basis.psi[p] * basis.psi[q] + cross[q][p]
                for q in range(n1)] for p in range(n1)]
        dev = max(abs(kappa[p][q] - alt[p][q])
                  for p in range(n1) for q in range(n1))
        if dev > ctx.identity_tol:
            raise TableauError(
                f"kappa forms disagree by {mp.nstr(dev, 5)}")
        return tuple(tuple(row) for row in kappa)


def build_tableau(n, family, ctx):
    """Build the full tableau for degree n; a solved from kappa a = mu."""
    if n < 0:
        raise TableauError("degree must be nonnegative")
    require_conditioning(n, ctx)
    basis = make_basis(n, family, ctx)
    kappa = build_kappa(basis, ctx)
    n1 = n + 1
    with mp.workdps(basis.work_dps):
        mu = [[basis.w[p] if p == q else mp.mpf(0) for q in range(n1)]
              for p in range(n1)]
        try:
            a = linalg.solve_matrix([list(r) for r in kappa], mu)
        except linalg.SingularMatrixError as exc:
            raise TableauError("kappa is singular") from exc
    return AderDgTableau(n=n, basis=basis, kappa=kappa,
                         a=tuple(tuple(row) for row in a),
                         stages=n1, digits=ctx.decimal_digits)


def verify_lemma21(tab, ctx):
    """Max residuals of the six coupling-matrix identities:

    0: sum_q [mu kappa^-1]_pq psi_q - w_p   3: sum_p a_pq psi~_p - w_q
    1: sum_q [kappa^-1]_pq psi_q - 1        4: sum_p kappa_pq - psi~_q
    2: sum_q kappa_pq - psi_p               5: tr kappa - (|psi|^2+|psi~|^2)/2

    Relation 0 carries the weight matrix on the left of kappa^-1; with it
    on the right (the matrix a) the relation only holds for equal weights,
    since mu and kappa^-1 do not commute.  The trace relation reduces to
    |psi|^2 alone only for node sets symmetric about 1/2.
    """
    b = tab.basis
    n1 = tab.stages
    with mp.workdps(b.work_dps):
        x = linalg.solve([list(r) for r in tab.kappa], list(b.psi))
        r0 = max(abs(b.w[p] * x[p] - b.w[p]) for p in range(n1))
        r1 = max(abs(xp - 1) for xp in x)
        r2 = max(abs(mp.fsum(tab.kappa[p]) - b.psi[p]) for p in range(n1))
        r3 = max(abs(mp.fsum(tab.a[p][q] * b.psi_tilde[p] for p in range(n1)) - b.w[q])
                 for q in range(n1))
        r4 = max(abs(mp.fsum(tab.kappa[p][q] for p in range(n1)) - b.psi_tilde[q])
                 for q in range(n1))
        r5 = abs(mp.fsum(tab.kappa[p][p] for p in range(n1))
                 - mp.fsum(pp ** 2 + pt ** 2
                           for pp, pt in zip(b.psi, b.psi_tilde)) / 2)
        return (r0, r1, r2, r3, r4, r5)


def check_simplifying(tab, which, order, ctx):
    """Max residual of simplifying condition B/C/D over 0 <= r < order."""
    b = tab.basis
    n1 = tab.stages
    if order < 1:
        raise TableauError("condition order must be >= 1")
    with mp.workdps(b.work_dps):
        res = mp.mpf(0)
        for r in range(order):
            if which == "B":
                lhs = mp.fsum(b.w[q] * b.tau[q] ** r for q in range(n1))
                res = max(res, abs(lhs - mp.mpf(1) / (r + 1)))
            elif which == "C":
                for p in range(n1):
                    lhs = mp.fsum(tab.a[p][q] * b.tau[q] ** r for q in range(n1))
                    res = max(res, abs(lhs - b.tau[p] ** (r + 1) / (r + 1)))
            elif which == "D":
                for p in range(n1):
                    lhs = mp.fsum(b.w[q] * tab.a[q][p] * b.tau[q] ** r
                                  for q in range(n1))
                    rhs = b.w[p] / (r + 1) * (1 - b.tau[p] ** (r + 1))
                    res = max(res, abs(lhs - rhs))
            else:
                raise TableauError(f"unknown simplifying condition {which!r}")
        return res


def build_q_m(tab, ctx):
    """Nonlinear-stability matrices Q and M with their dyadic certificates.

    Q = mu alpha + alpha^T mu - alpha^T w w^T alpha with alpha = mu^{-1} kappa;
    Q must equal psi psi^T and M = a^T Q a must equal the dyadic square of
    a^T psi, both to identity_tol.
    """
    b = tab.basis
    n1 = tab.stages
    with mp.workdps(b.work_dps + 20):
        alpha = [[tab.kappa[p][q] / b.w[p] for q in range(n1)] for p in range(n1)]
        v = [mp.fsum(alpha[p][q] * b.w[p] for p in range(n1)) for q in range(n1)]
        q_mat = [[b.w[p] * alpha[p][q] + b.w[q] * alpha[q][p] - v[p] * v[q]
                  for q in range(n1)] for p in range(n1)]
        at = linalg.transpose([list(r) for r in tab.a])
        m_mat = linalg.mat_mul(linalg.mat_mul(at, q_mat), [list(r) for r in tab.a])
        u = linalg.mat_vec(at, list(b.psi))
        q_res = max(abs(q_mat[p][q] - b.psi[p] * b.psi[q])
                    for p in range(n1) for q in range(n1))
        m_res = max(abs(m_mat[p][q] - u[p] * u[q])
                    for p in range(n1) for q in range(n1))
        if q_res > ctx.identity_tol or m_res > ctx.identity_tol:
            raise TableauError("dyadic stability structure violated")
        # eigenvalues of the dyadic square are {lambda, 0, ...}; Gershgorin on
        # the defect matrix bounds how far M's spectrum can dip below zero
        defect = [[m_mat[p][q] - u[p] * u[q] for q in range(n1)] for p in range(n1)]
        gersh = -linalg.max_row_sum(defect)
        lam_m = mp.fsum(up ** 2 for up in u)
        return QMStability(
            q=tuple(tuple(r) for r in q_mat), m=tuple(tuple(r) for r in m_mat),
            lambda_m=lam_m, q_residual=q_res, m_residual=m_res,
            gershgorin_lower=gersh)


def stability_function(tab, z, ctx):
    """One-step amplification factor R(z) = 1 + z w^T (I - z a)^{-1} 1."""
    n1 = tab.stages
    with ctx.workdps(10):
        z = mp.mpc(z) if (isinstance(z, complex) or isinstance(z, mp.mpc)) else mp.mpf(z)
        if z == 0:
            return mp.mpf(1)
        sys = [[(1 if p == q else 0) - z * tab.a[p][q] for q in range(n1)]
               for p in range(n1)]
        try:
            x = linalg.solve(sys, [mp.mpf(1)] * n1)
        except linalg.SingularMatrixError as exc:
            raise TableauError(f"stability function pole at z={z}") from exc
        return 1 + z * mp.fsum(wp * xp for wp, xp in zip(tab.basis.w, x))


def pade_exp_coefficients(n, ctx):
    """Closed-form coefficients of the (n, n+1) Pade approximant of exp.

    Returns (num, den) in ascending monomial order; numerator degree n,
    denominator degree n+1.
    """
    m, k = n, n + 1
    with ctx.workdps(10):
        num = [mp.factorial(m) * mp.factorial(m + k - j)
               / (mp.factorial(m + k) * mp.factorial(j) * mp.factorial(m - j))
               for j in range(m + 1)]
        den = [(-1) ** j * mp.factorial(k) * mp.factorial(m + k - j)
               / (mp.factorial(m + k) * mp.factorial(j) * mp.factorial(k - j))
               for j in range(k + 1)]
        return tuple(num), tuple(den)


def pade_exp(n, z, ctx):
    """Evaluate the (n, n+1) Pade approximant of exp at z."""
    num, den = pade_exp_coefficients(n, ctx)
    with ctx.workdps(10):
        z = mp.mpc(z) if (isinstance(z, complex) or isinstance(z, mp.mpc)) else mp.mpf(z)
        p = num[-1]
        for c in reversed(num[:-1]):
            p = p * z + c
        q = den[-1]
        for c in reversed(den[:-1]):
            q = q * z + c
        if q == 0:
            raise TableauError(f"Pade approximant pole at z={z}")
        return p / q


def export_tableau(tab):
    """Serialize a tableau to a JSON document of decimal strings."""
    from .arith import make_context
    ctx = make_context(tab.digits)
    b = tab.basis

    def fmt_vec(v):
        return [format_decimal(x, ctx) for x in v]

    doc = {
        "schema_version": SCHEMA_VERSION,
        "n": tab.n,
        "family": b.family,
        "digits": tab.digits,
        "tau": fmt_vec(b.tau),
        "w": fmt_vec(b.w),
        "psi": fmt_vec(b.psi),
        "psi_tilde": fmt_vec(b.psi_tilde),
        "kappa": [fmt_vec(row) for row in tab.kappa],
        "a": [fmt_vec(row) for row in tab.a],
    }
    return json.dumps(doc, indent=1)


def import_tableau(document, ctx):
    """Parse an exported tableau and re-verify it; rejects corrupt files."""
    try:
        doc = json.loads(document) if isinstance(document, str) else dict(document)
        n = int(doc["n"])
        family = doc["family"]
        digits = int(doc["digits"])
        if doc["schema_version"] != SCHEMA_VERSION:
            raise TableauError(f"unsupported schema_version {doc['schema_version']}")
        tau = tuple(parse_decimal(s, ctx) for s in doc["tau"])
        w = tuple(parse_decimal(s, ctx) for s in doc["w"])
        psi = tuple(parse_decimal(s, ctx) for s in doc["psi"])
        psi_tilde = tuple(parse_decimal(s, ctx) for s in doc["psi_tilde"])
        kappa = tuple(tuple(parse_decimal(s, ctx) for s in row)
                      for row in doc["kappa"])
        a = tuple(tuple(parse_decimal(s, ctx) for s in row) for row in doc["a"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, TableauError):
            raise
        raise TableauError(f"malformed tableau document: {exc}") from exc
    if family not in FAMILIES:
        raise ImportVerificationError(f"unknown node family: {family!r}")
    n1 = n + 1
    if n < 0 or any(len(v) != n1 for v in (tau, w, psi, psi_tilde)) or \
       any(len(m) != n1 or any(len(row) != n1 for row in m) for m in (kappa, a)):
        raise ImportVerificationError(f"stored arrays do not fit degree N={n}")
    tol = max(ctx.identity_tol, mp.mpf(10) ** (-digits + 10))

    def require(dev, what):
        if dev > tol:
            raise ImportVerificationError(f"{what}, deviation {mp.nstr(dev, 5)}")

    require(max(abs(x - y) for x, y in zip(tau, compute_nodes(n, family, ctx))),
            f"stored nodes are not the {family} nodes")
    # the basis polynomials are a pure function of the nodes
    phi, psi_c, psit_c = lagrange_coefficients(tau, ctx)
    require(max(abs(x - y) for x, y in zip(psi + psi_tilde, psi_c + psit_c)),
            "stored boundary traces disagree with nodes")
    basis = NodalBasis(n=n, family=family, tau=tau, w=w, phi=phi,
                       psi=psi, psi_tilde=psi_tilde,
                       work_dps=work_digits(ctx, n))
    tab = AderDgTableau(n=n, basis=basis, kappa=kappa, a=a,
                        stages=n1, digits=digits)
    require(check_simplifying(tab, "B", 2 * n + 1, ctx),
            f"stored weights fail quadrature order B({2 * n + 1})")
    with mp.workdps(basis.work_dps):
        ka = linalg.mat_mul([list(r) for r in kappa], [list(r) for r in a])
        require(max(abs(ka[p][q] - (w[p] if p == q else 0))
                    for p in range(n1) for q in range(n1)),
                "stored stage matrix fails kappa a = diag(w)")
    require(max(verify_lemma21(tab, ctx)),
            "imported tableau fails identity check")
    return tab

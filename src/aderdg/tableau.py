"""Coefficient matrices of the DG-predictor time integrator.

kappa collects the weak-form coupling of the nodal basis, mu is the
diagonal of quadrature weights, and a = kappa^{-1} mu is the implicit
Runge-Kutta matrix the method is equivalent to.  Everything the matrices
are supposed to satisfy (row/column sum identities, simplifying order
conditions, dyadic stability structure, the rational stability function)
is checked numerically here.
"""

import functools
import json
from dataclasses import dataclass, replace

import mpmath as mp

from . import linalg
from .arith import MIN_DIGITS, format_decimal, parse_decimal
from .basis import FAMILIES, NodalBasis, make_basis

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
    digits: int         # precision the tableau was built at

    @property
    def family(self):
        return self.basis.family

    @property
    def stages(self):
        return self.n + 1


@dataclass(frozen=True)
class QMStability:
    q: tuple
    m: tuple
    lambda_m: mp.mpf          # |a^T psi|^2, the nonzero eigenvalue of M
    q_residual: mp.mpf        # max |Q - psi psi^T|
    m_residual: mp.mpf        # max |M - (a^T psi)(a^T psi)^T|
    gershgorin_lower: mp.mpf  # certified lower eigenvalue bound of M


def build_kappa(basis, ctx):
    """kappa_pq = psi~_p psi~_q - int l_p' l_q, by the basis's own quadrature.

    l_p' l_q has degree 2N-1, which every family's rule integrates exactly,
    so int l_p' l_q = w_q D_qp with the differentiation matrix
    D_qp = l_p'(tau_q) = (lam_p / lam_q) / (tau_q - tau_p) off the
    diagonal and the negative row sum on it (Berrut & Trefethen, SIAM Rev.
    46(3), 2004, section 9).  The equivalent form psi_p psi_q + w_p D_pq,
    from integration by parts, must agree to identity_tol.
    """
    n1 = basis.n + 1
    tau, lam, w = basis.tau, basis.lam, basis.w
    with mp.workdps(basis.work_dps):
        d = [[(lam[p] / lam[q]) / (tau[q] - tau[p]) if p != q else 0
              for p in range(n1)] for q in range(n1)]
        for q in range(n1):
            d[q][q] = -mp.fsum(d[q])
        kappa = [[basis.psi_tilde[p] * basis.psi_tilde[q] - w[q] * d[q][p]
                  for q in range(n1)] for p in range(n1)]
        alt = [[basis.psi[p] * basis.psi[q] + w[p] * d[p][q]
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
                         digits=ctx.decimal_digits)


def verify_lemma21(tab, ctx):
    """Max residuals of the six coupling-matrix identities:

    0: sum_q [mu kappa^-1]_pq psi_q - w_p   3: sum_p a_pq psi~_p - w_q
    1: sum_q [kappa^-1]_pq psi_q - 1        4: sum_p kappa_pq - psi~_q
    2: sum_q kappa_pq - psi_p               5: tr kappa - (|psi|^2+|psi~|^2)/2

    Relation 0 carries the weight matrix on the left of kappa^-1; with it
    on the right (the matrix a) the relation only holds for equal weights,
    since mu and kappa^-1 do not commute.  The trace relation reduces to
    |psi|^2 alone only for node sets symmetric about 1/2.  Relations 0 and
    1 read kappa^-1 from the stored a = kappa^-1 mu, as
    [kappa^-1 psi]_p = sum_q a_pq psi_q / w_q; 2, 4 and 5 read kappa.
    """
    b = tab.basis
    n1 = tab.stages
    with mp.workdps(b.work_dps):
        psi_w = [pq / wq for pq, wq in zip(b.psi, b.w)]
        x = [linalg.dot(row, psi_w) for row in tab.a]
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


def simplifying_residuals(tab, which, order, ctx):
    """Residual of simplifying condition B/C/D for each r < order, the max
    over p; the first k are those of order k:
    B sum_q w_q tau_q^r = 1/(r+1), C sum_q a_pq tau_q^r = tau_p^(r+1)/(r+1),
    D sum_q w_q a_qp tau_q^r = w_p (1 - tau_p^(r+1))/(r+1), for every p.

    The powers tau_q^r and the D weights w_q a_qp are formed once per call,
    and each sum is one linalg.dot: exact products, rounded once."""
    b = tab.basis
    n1 = tab.stages
    if order < 1:
        raise TableauError("condition order must be >= 1")
    if which not in ("B", "C", "D"):
        raise TableauError(f"unknown simplifying condition {which!r}")
    with mp.workdps(b.work_dps):
        pw = [[mp.mpf(1)] * n1]     # pw[r][q] = tau_q^r
        for _ in range(order):
            pw.append([c * t for c, t in zip(pw[-1], b.tau)])
        if which == "B":
            return [abs(linalg.dot(b.w, pw[r]) - mp.mpf(1) / (r + 1))
                    for r in range(order)]
        if which == "C":
            return [max(abs(linalg.dot(tab.a[p], pw[r]) - pw[r + 1][p] / (r + 1))
                        for p in range(n1)) for r in range(order)]
        wa = [[b.w[q] * tab.a[q][p] for q in range(n1)] for p in range(n1)]
        return [max(abs(linalg.dot(wa[p], pw[r])
                        - b.w[p] / (r + 1) * (1 - pw[r + 1][p]))
                    for p in range(n1)) for r in range(order)]


def check_simplifying(tab, which, order, ctx):
    """Max residual of simplifying condition B/C/D over 0 <= r < order."""
    return max(simplifying_residuals(tab, which, order, ctx))


def build_q_m(tab, ctx):
    """Nonlinear-stability matrices Q and M with their dyadic certificates.

    Q = mu alpha + alpha^T mu - alpha^T w w^T alpha with alpha = mu^{-1} kappa.
    M = BA + A^T B - w w^T with B = diag(w) is the algebraic-stability
    matrix (Burrage & Butcher, SIAM J. Numer. Anal. 16, 1979); it equals
    a^T Q a because a = kappa^{-1} mu.  Q must equal psi psi^T and M the
    dyadic square of u = a^T psi, both to identity_tol.
    """
    b = tab.basis
    n1 = tab.stages
    a = tab.a
    with mp.workdps(b.work_dps + 20):
        alpha = [[tab.kappa[p][q] / b.w[p] for q in range(n1)] for p in range(n1)]
        v = [mp.fsum(alpha[p][q] * b.w[p] for p in range(n1)) for q in range(n1)]
        q_mat = [[b.w[p] * alpha[p][q] + b.w[q] * alpha[q][p] - v[p] * v[q]
                  for q in range(n1)] for p in range(n1)]
        m_mat = [[b.w[p] * a[p][q] + b.w[q] * a[q][p] - b.w[p] * b.w[q]
                  for q in range(n1)] for p in range(n1)]
        u = [mp.fsum(a[p][q] * b.psi[p] for p in range(n1)) for q in range(n1)]
        q_res = max(abs(q_mat[p][q] - b.psi[p] * b.psi[q])
                    for p in range(n1) for q in range(n1))
        defect = [[m_mat[p][q] - u[p] * u[q] for q in range(n1)] for p in range(n1)]
        m_res = max(abs(x) for row in defect for x in row)
        if q_res > ctx.identity_tol or m_res > ctx.identity_tol:
            raise TableauError("dyadic stability structure violated")
        # eigenvalues of the dyadic square are {lambda, 0, ...}; Gershgorin on
        # the defect matrix bounds how far M's spectrum can dip below zero
        gersh = -linalg.max_row_sum(defect)
        lam_m = mp.fsum(up ** 2 for up in u)
        return QMStability(
            q=tuple(tuple(r) for r in q_mat), m=tuple(tuple(r) for r in m_mat),
            lambda_m=lam_m, q_residual=q_res, m_residual=m_res,
            gershgorin_lower=gersh)


def stability_function(tab, z, ctx):
    """One-step amplification factor R(z) = 1 + z w^T (I - z a)^{-1} 1.

    At a complex z = zr + i zi, (I - z a) x = 1 is solved in its real 2s form
    [[I - zr a, zi a], [-zi a, I - zr a]] [Re x; Im x] = [1; 0].
    Runs at ctx's digits + 10, whatever digits tab was built at, so a
    caller sizes ctx to what it checks."""
    n1 = tab.stages
    with ctx.workdps(10):
        z = mp.mpc(z) if (isinstance(z, complex) or isinstance(z, mp.mpc)) else mp.mpf(z)
        if z == 0:
            return mp.mpf(1)
        sys = [[(p == q) - z.real * x for q, x in enumerate(row)] for p, row in enumerate(tab.a)]
        if z.imag:
            ya = [[z.imag * x for x in row] for row in tab.a]
            sys = [r + y for r, y in zip(sys, ya)] + [[-v for v in y] + r for r, y in zip(sys, ya)]
        try:
            x = linalg.solve(sys, [mp.mpf(1)] * n1 + [mp.mpf(0)] * (len(sys) - n1))
        except linalg.SingularMatrixError as exc:
            raise TableauError(f"stability function pole at z={z}") from exc
        wx = linalg.dot(tab.basis.w, x[:n1])
        return 1 + z * (mp.mpc(wx, linalg.dot(tab.basis.w, x[n1:])) if z.imag else wx)


@functools.lru_cache(maxsize=32)
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
    """Parse an exported tableau, rebuild it at ctx's digits and compare
    every stored array; rejects corrupt files.

    document is the JSON text, as str or as UTF-8 bytes.  Each stored array
    (tau, w, psi, psi_tilde, kappa, a) must match build_tableau's to
    max(identity_tol, 10^(10 - digits)), and the stored digits may not be
    below MIN_DIGITS, so a file cannot loosen its own tolerance.  Returns
    the rebuilt tableau labelled with the stored digits.
    """
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        doc = json.loads(document)
        n = int(doc["n"])
        family = doc["family"]
        digits = int(doc["digits"])
        if doc["schema_version"] != SCHEMA_VERSION:
            raise TableauError(f"unsupported schema_version {doc['schema_version']}")
        stored = {key: tuple(parse_decimal(s, ctx) for s in doc[key])
                  for key in ("tau", "w", "psi", "psi_tilde")}
        for key in ("kappa", "a"):
            stored[key] = tuple(tuple(parse_decimal(s, ctx) for s in row)
                                for row in doc[key])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, TableauError):
            raise
        raise TableauError(f"malformed tableau document: {exc}") from exc
    if family not in FAMILIES:
        raise ImportVerificationError(f"unknown node family: {family!r}")
    if digits < MIN_DIGITS:
        raise ImportVerificationError(
            f"stored digits {digits} below the minimum {MIN_DIGITS}")
    n1 = n + 1
    if n < 0 or any(len(v) != n1 for v in stored.values()) or \
       any(len(row) != n1 for key in ("kappa", "a") for row in stored[key]):
        raise ImportVerificationError(f"stored arrays do not fit degree N={n}")
    tab = build_tableau(n, family, ctx)
    b = tab.basis
    rebuilt = {"tau": b.tau, "w": b.w, "psi": b.psi, "psi_tilde": b.psi_tilde,
               "kappa": tab.kappa, "a": tab.a}
    tol = max(ctx.identity_tol, mp.mpf(10) ** (-digits + 10))
    for key, ref in rebuilt.items():
        got = stored[key]
        if key in ("kappa", "a"):
            got, ref = sum(got, ()), sum(ref, ())
        dev = max(abs(x - y) for x, y in zip(got, ref))
        if dev > tol:
            raise ImportVerificationError(
                f"stored {key} differs from the rebuilt {family} tableau, "
                f"deviation {mp.nstr(dev, 5)}")
    return replace(tab, digits=digits)

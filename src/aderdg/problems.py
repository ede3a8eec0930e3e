"""Built-in test problems with exact or self-converged reference solutions."""

import random
from dataclasses import dataclass
from typing import Callable, Optional

import mpmath as mp

from .solver import OdeProblem, integrate, trajectory_eval


class ProblemError(ValueError):
    pass


class OracleValidationError(ProblemError):
    pass


# catalog constants (pi, parsed parameters) are materialized well above any
# desk-scale working precision so entries never limit a run's accuracy
_CONST_DPS = 1200

# the oracle runs this many digits above the caller's precision; its grid
# halving must agree, and its invariant hold, to 10^ORACLE_TOL_EXP
ORACLE_EXTRA_DIGITS = 60
ORACLE_TOL_EXP = -40


@dataclass(frozen=True)
class ProblemCatalogEntry:
    name: str
    problem: OdeProblem
    invariant: Optional[Callable] = None   # conserved quantity (u, t) -> real


def harmonic_oscillator():
    """Unit harmonic oscillator as a first-order system, four full periods."""
    def exact(t):
        c, s = mp.cos_sin(t)  # one series for both, same values as cos, sin
        return (c, -s)

    with mp.workdps(_CONST_DPS):
        problem = OdeProblem(
            dim=2,
            rhs=lambda u, t: (u[1], -u[0]),
            jacobian=lambda u, t: ((mp.mpf(0), mp.mpf(1)), (mp.mpf(-1), mp.mpf(0))),
            exact=exact,
            t0=mp.mpf(0), tf=4 * mp.pi, u0=(mp.mpf(1), mp.mpf(0)))
    return ProblemCatalogEntry(name="harmonic", problem=problem)


def pendulum():
    """Nonlinear pendulum released horizontally; reference is self-converged."""
    with mp.workdps(_CONST_DPS):
        problem = OdeProblem(
            dim=2,
            rhs=lambda u, t: (u[1], -mp.sin(u[0])),
            jacobian=lambda u, t: ((mp.mpf(0), mp.mpf(1)), (-mp.cos(u[0]), mp.mpf(0))),
            t0=mp.mpf(0), tf=mp.mpf(10), u0=(mp.pi / 2, mp.mpf(0)))
    return ProblemCatalogEntry(
        name="pendulum", problem=problem,
        invariant=lambda u, t: u[1] ** 2 / 2 - mp.cos(u[0]))


def dahlquist(lam):
    """Scalar linear test problem u' = lam*u, u(0) = 1."""
    with mp.workdps(_CONST_DPS):
        lam = mp.mpmathify(lam)
    if not mp.isfinite(lam):
        raise ProblemError(f"dahlquist lambda must be finite, got {lam}")
    problem = OdeProblem(
        dim=1,
        rhs=lambda u, t: (lam * u[0],),
        jacobian=lambda u, t: ((lam,),),
        exact=lambda t: (mp.exp(lam * t),),
        t0=mp.mpf(0), tf=mp.mpf(1), u0=(mp.mpf(1),))
    return ProblemCatalogEntry(name=f"dahlquist:{lam}", problem=problem)


def polynomial_problem(coeffs, u0=mp.mpf(0)):
    """u' = f(t) on [0, 1] with f given in ascending monomial coefficients."""
    coeffs = tuple(mp.mpmathify(c) for c in coeffs)

    def f(t):
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * t + c
        return acc

    def antideriv(t):
        return mp.fsum(c * t ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    u0 = mp.mpmathify(u0)
    return OdeProblem(
        dim=1,
        rhs=lambda u, t: (f(t),),
        jacobian=lambda u, t: ((mp.mpf(0),),),
        exact=lambda t: (u0 + antideriv(t),),
        t0=mp.mpf(0), tf=mp.mpf(1), u0=(u0,))


def polynomial_rhs(degree, seed):
    """Seeded random polynomial right-hand side, independent of u.

    Coefficients are drawn with magnitude in [0.25, 1.25] so the leading
    term never degenerates; same seed, same problem.
    """
    if degree < 0:
        raise ProblemError("polynomial degree must be nonnegative")
    rng = random.Random(seed)
    coeffs = [rng.choice((-1, 1)) * (mp.mpf(1) / 4 + rng.random())
              for _ in range(degree + 1)]
    problem = polynomial_problem(coeffs, u0=mp.mpf(1))
    return ProblemCatalogEntry(name=f"poly:{degree}:{seed}", problem=problem)


def catalog_lookup(spec):
    """Resolve a catalog name like 'harmonic' or 'dahlquist:-1e6'."""
    if spec == "harmonic":
        return harmonic_oscillator()
    if spec == "pendulum":
        return pendulum()
    if spec.startswith("dahlquist:"):
        try:
            # dahlquist() parses the string at the catalog precision
            return dahlquist(spec.split(":", 1)[1])
        except (ValueError, TypeError) as exc:
            raise ProblemError(
                f"bad dahlquist parameter in {spec!r}: {exc}") from exc
    if spec.startswith("poly:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ProblemError(f"expected poly:<degree>:<seed>, got {spec!r}")
        try:
            return polynomial_rhs(int(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ProblemError(f"bad poly parameters in {spec!r}") from exc
    raise ProblemError(f"unknown problem {spec!r}")


def build_oracle_reference(entry, n_max, m_max, ctx):
    """Self-converged dense reference for problems without a closed form.

    Runs the integrator itself at degree n_max+8 on 4*m_max and 8*m_max
    intervals with ORACLE_EXTRA_DIGITS more working digits; accepts the
    finer run only if the two agree at shared nodes and (when the entry
    carries a conserved quantity) the finer run's drift stays below
    10^ORACLE_TOL_EXP.
    """
    from .arith import make_context
    from .tableau import build_tableau

    octx = make_context(ctx.decimal_digits + ORACLE_EXTRA_DIGITS)
    tol = mp.mpf(10) ** ORACLE_TOL_EXP
    n_ref = n_max + 8
    m_ref = 4 * m_max
    tab = build_tableau(n_ref, "gauss-legendre", octx)
    coarse = integrate(tab, entry.problem, m_ref, octx)
    fine = integrate(tab, entry.problem, 2 * m_ref, octx)
    with octx.workdps():
        agree = max(abs(coarse.values[i][c] - fine.values[2 * i][c])
                    for i in range(m_ref + 1)
                    for c in range(entry.problem.dim))
        if agree > tol:
            raise OracleValidationError(
                f"oracle grid-halving disagreement {mp.nstr(agree, 5)}")
        if entry.invariant is not None:
            h0 = entry.invariant(fine.values[0], fine.times[0])
            drift = max(abs(entry.invariant(u, t) - h0)
                        for u, t in zip(fine.values, fine.times))
            if drift > tol:
                raise OracleValidationError(
                    f"oracle invariant drift {mp.nstr(drift, 5)}")

    def reference(t):
        return trajectory_eval(fine, t)

    return reference

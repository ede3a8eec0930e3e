import random

import mpmath as mp
import pytest

from aderdg.arith import make_context
from aderdg.problems import (OracleValidationError, ProblemError,
                             build_oracle_reference, catalog_lookup,
                             dahlquist, harmonic_oscillator, pendulum,
                             polynomial_problem, polynomial_rhs)

CTX = make_context(60)


def test_harmonic_exact_solves_ode():
    entry = harmonic_oscillator()
    with CTX.workdps():
        h = mp.mpf(10) ** -25
        for t in (mp.mpf(1) / 3, mp.mpf(2)):
            u = entry.problem.exact(t)
            du = [(a - b) / (2 * h) for a, b in
                  zip(entry.problem.exact(t + h), entry.problem.exact(t - h))]
            f = entry.problem.rhs(u, t)
            assert max(abs(a - b) for a, b in zip(du, f)) < mp.mpf(10) ** -20
        u0 = entry.problem.exact(entry.problem.t0)
        assert max(abs(a - b) for a, b in zip(u0, entry.problem.u0)) == 0


def test_harmonic_exact_equals_cos_sin():
    # the one-series reference gives the very numbers of mp.cos and mp.sin
    exact = harmonic_oscillator().problem.exact
    rng = random.Random(5)
    with mp.workdps(510):
        for _ in range(20):
            t = mp.mpf(rng.uniform(0, 13))
            assert exact(t) == (mp.cos(t), -mp.sin(t))


def test_pendulum_invariant_at_start():
    entry = pendulum()
    with CTX.workdps():
        h0 = entry.invariant(entry.problem.u0, entry.problem.t0)
        # released at rest from the horizontal: H = 0 - cos(pi/2) = 0
        assert abs(h0) < CTX.identity_tol


def test_dahlquist_exact():
    entry = dahlquist(-3)
    with CTX.workdps():
        t = mp.mpf(1) / 2
        assert abs(entry.problem.exact(t)[0] - mp.exp(-3 * t)) < CTX.identity_tol
        f = entry.problem.rhs((mp.mpf(2),), t)
        assert abs(f[0] + 6) < CTX.identity_tol


def test_catalog_constants_survive_high_precision():
    # entries must not bake low-precision constants in
    ctx = make_context(200)
    entry = harmonic_oscillator()
    with ctx.workdps():
        assert abs(entry.problem.tf - 4 * mp.pi) < mp.mpf(10) ** -199


def test_polynomial_problem_antiderivative():
    with CTX.workdps():
        prob = polynomial_problem([mp.mpf(2), mp.mpf(0), mp.mpf(3)],
                                  u0=mp.mpf(1))
        # u(t) = 1 + 2t + t^3
        for t in (mp.mpf(0), mp.mpf(1) / 2, mp.mpf(1)):
            assert abs(prob.exact(t)[0] - (1 + 2 * t + t ** 3)) < CTX.identity_tol


def test_polynomial_rhs_seeding():
    a = polynomial_rhs(3, 42)
    b = polynomial_rhs(3, 42)
    c = polynomial_rhs(3, 43)
    with CTX.workdps():
        t = mp.mpf(1) / 3
        assert a.problem.rhs((0,), t) == b.problem.rhs((0,), t)
        assert a.problem.rhs((0,), t) != c.problem.rhs((0,), t)


def test_polynomial_rhs_leading_term_bounded():
    for seed in range(10):
        entry = polynomial_rhs(4, seed)
        # sample the 4th derivative of f: constant 24*c4, |c4| >= 1/4
        with CTX.workdps():
            h = mp.mpf(1) / 10
            vals = [entry.problem.rhs((0,), i * h)[0] for i in range(5)]
            d4 = vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3] + vals[4]
            c4 = d4 / (24 * h ** 4)
            assert abs(c4) >= mp.mpf(1) / 4 - mp.mpf(10) ** -30


def test_catalog_lookup():
    assert catalog_lookup("harmonic").name == "harmonic"
    assert catalog_lookup("pendulum").reference_kind == "high-order-oracle"
    assert catalog_lookup("poly:3:7").name == "poly:3:7"
    with CTX.workdps():
        assert catalog_lookup("dahlquist:-2.5").problem.rhs((mp.mpf(1),), 0)[0] == mp.mpf(-2.5)


def test_catalog_lookup_parses_lambda_at_catalog_precision():
    lam = catalog_lookup("dahlquist:-316227.8").problem.jacobian((1,), 0)[0][0]
    with mp.workdps(1200):
        assert lam == mp.mpf("-316227.8")


@pytest.mark.parametrize("bad", ["", "unknown", "poly:3", "poly:a:b",
                                 "dahlquist:xyz", "poly:-1:0"])
def test_catalog_lookup_rejects(bad):
    with pytest.raises(ProblemError):
        catalog_lookup(bad)


def test_oracle_reference_matches_closed_form():
    # run the self-converged reference machinery on a problem whose
    # answer is known and compare
    entry = harmonic_oscillator()
    ref = build_oracle_reference(entry, 6, 10, CTX)
    with CTX.workdps():
        # between its own grid nodes the reference is only as good as its
        # degree-14 local polynomial, not the superconvergent node values
        for t in (mp.mpf(1), mp.mpf(7)):
            got = ref(t)
            exact = entry.problem.exact(t)
            assert max(abs(a - b) for a, b in zip(got, exact)) < mp.mpf(10) ** -30


def test_oracle_validation_rejects_drift():
    entry = pendulum()
    with pytest.raises(OracleValidationError):
        with CTX.workdps():
            build_oracle_reference(entry, 0, 1, CTX,
                                   drift_tol=mp.mpf(10) ** -200)

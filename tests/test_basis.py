import random

import mpmath as mp
import pytest

from aderdg.arith import make_context
from aderdg import basis
from aderdg.basis import (FAMILIES, BasisError, RootConvergenceError,
                          barycentric_weights, compute_nodes,
                          compute_weights, eval_basis, make_basis,
                          require_conditioning, shifted_legendre,
                          work_digits)

CTX = make_context(60)


def test_shifted_legendre_low_degrees():
    # P~_1 = 2t - 1, P~_2 = 6t^2 - 6t + 1 on [0, 1]
    with CTX.workdps():
        t = mp.mpf(3) / 7
        v1, d1, v0, d0 = shifted_legendre(1, t)
        assert abs(v1 - (2 * t - 1)) < CTX.identity_tol
        assert abs(d1 - 2) < CTX.identity_tol
        assert v0 == 1 and abs(d0) < CTX.identity_tol
        v2, d2, v1, d1 = shifted_legendre(2, t)
        assert abs(v2 - (6 * t ** 2 - 6 * t + 1)) < CTX.identity_tol
        assert abs(d2 - (12 * t - 6)) < CTX.identity_tol
        assert abs(v1 - (2 * t - 1)) < CTX.identity_tol
        assert abs(d1 - 2) < CTX.identity_tol


def _legendre_reference(k, t):
    # P~_k(t) = P_k(2t - 1) from mpmath, derivative by numerical
    # differentiation of that value
    return (mp.legendre(k, 2 * t - 1),
            mp.diff(lambda s: mp.legendre(k, 2 * s - 1), t))


@pytest.mark.parametrize("n", range(1, 26))
def test_shifted_legendre_matches_mpmath(n):
    # both degrees of one pass inside (0, 1) and exactly at 0, 1/2 and 1,
    # and the integer Newton correction of the three family polynomials
    # built from them inside (0, 1); at 0 and 1 the derivative identity
    # divides by zero and the exact end values P~_k(1) = 1,
    # P~_k'(1) = k(k+1) and their mirror images take over
    with CTX.workdps():
        tol = CTX.identity_tol
        for t in (mp.mpf(0), mp.mpf(1) / 2, mp.mpf(1), mp.mpf(1) / 7,
                  mp.mpf(3) / 10, mp.mpf(9) / 10, mp.mpf(999) / 1000):
            got = shifted_legendre(n, t)
            (v1, d1), (v0, d0) = (_legendre_reference(n, t),
                                  _legendre_reference(n - 1, t))
            for x, want in zip(got, (v1, d1, v0, d0)):
                assert abs(x - want) <= tol * max(1, abs(want))
            if not 0 < t < 1:
                continue
            bits = mp.mp.prec
            t_int = int(mp.ldexp(t, bits))
            (v1, d1), (v0, d0) = (
                _legendre_reference(n, mp.ldexp(t_int, -bits)),
                _legendre_reference(n - 1, mp.ldexp(t_int, -bits)))
            for sign in (0, -1, 1):
                if d1 + sign * d0 == 0:
                    # P~_n' at 1/2 for even n
                    with pytest.raises(RootConvergenceError):
                        basis._newton_correction(n, sign, t_int, bits)
                    continue
                want = (v1 + sign * v0) / (d1 + sign * d0)
                step = basis._newton_correction(n, sign, t_int, bits)
                assert abs(mp.ldexp(step, -bits) - want) <= tol * max(
                    1, abs(want))
        for t, x in ((mp.mpf(0), -1), (mp.mpf(1), 1)):
            assert shifted_legendre(n, t) == (
                x ** n, x ** (n + 1) * n * (n + 1),
                x ** (n - 1), x ** n * (n - 1) * n)


@pytest.mark.parametrize("n, family, iterations", [
    (12, "gauss-legendre", 113), (6, "radau-right", 55)])
def test_node_solve_evaluation_count(monkeypatch, n, family, iterations):
    # the integer solve makes every Newton evaluation, and a change that
    # doubles its work breaks the pin; the mpf shifted_legendre runs once
    # per node, all of them in the _check_roots acceptance check
    seen, steps, in_check = [], [], []

    def counted(k, t):
        seen.append((k, bool(in_check)))
        return shifted_legendre(k, t)

    def correction(*args):
        steps.append(args[0])
        return newton_correction(*args)

    def check(*args):
        in_check.append(True)
        check_roots(*args)
        in_check.clear()

    newton_correction, check_roots = (basis._newton_correction,
                                      basis._check_roots)
    monkeypatch.setattr(basis, "shifted_legendre", counted)
    monkeypatch.setattr(basis, "_newton_correction", correction)
    monkeypatch.setattr(basis, "_check_roots", check)
    compute_nodes(n, family, make_context(500))
    assert seen == [(n + 1, True)] * (n + 1)
    assert len(steps) == iterations and set(steps) == {n + 1}


def _mpf_newton_nodes(n, family, dps):
    """Nodes by Newton's method in mpf arithmetic at dps digits, from the
    asymptotic starts in mpf, with one polish step past convergence: the
    reference for the integer solve, run at twice its digits."""
    n1, sign = n + 1, {"gauss-legendre": 0, "radau-right": -1,
                       "radau-left": 1}[family]
    with mp.workdps(dps):
        if family == "gauss-legendre":
            starts = [(1 + mp.cos(mp.pi * (i - mp.mpf(1) / 4)
                                  / (n1 + mp.mpf(1) / 2))) / 2
                      for i in range(1, n1 + 1)]
        else:
            starts = [mp.mpf(1)] + [
                (1 + mp.cos(mp.pi * (k + mp.mpf(1) / 4) / n1)) / 2
                for k in range(1, n1)]
            if family == "radau-left":
                starts = [1 - g for g in starts]

        def f(tau):
            v1, d1, v0, d0 = shifted_legendre(n1, tau)
            return v1 + sign * v0, d1 + sign * d0

        eps, roots = mp.mpf(10) ** (-(dps - 5)), []
        for tau in starts:
            for _ in range(200):
                v, d = f(tau)
                step = v / d
                tau -= step
                if abs(step) <= eps * (1 + abs(tau)):
                    v, d = f(tau)
                    roots.append(tau - v / d if d else tau)
                    break
            else:
                raise AssertionError("reference Newton did not converge")
        return sorted(roots)


@pytest.mark.parametrize("digits", [30, 120, 500])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 24])
@pytest.mark.parametrize("family", FAMILIES)
def test_nodes_match_mpf_newton_at_twice_the_digits(family, n, digits):
    # the integer solve rounds each root once from GUARD_BITS past the
    # working precision, so it lands within one ulp of it (within 0.5 in
    # every case here); the Radau endpoints are exact
    ctx = make_context(digits)
    dps = work_digits(ctx, n)
    tau = compute_nodes(n, family, ctx)
    ref = _mpf_newton_nodes(n, family, 2 * dps)
    with mp.workdps(dps):
        prec = mp.mp.prec
    assert len(tau) == len(ref) == n + 1
    for t, r in zip(tau, ref):
        ulp = mp.ldexp(1, mp.mag(r) - prec) if r else mp.ldexp(1, -prec)
        assert abs(t - r) <= ulp
    if family == "radau-right":
        assert tau[-1] == 1
    if family == "radau-left":
        assert tau[0] == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_root_check_rejects_a_root_off_by_half_the_bits(monkeypatch, family):
    # _check_roots evaluates the mpf recurrence itself, so one root off by
    # 2^(-prec/2) fails it whatever the integer solve reports
    solve_root, solved = basis._solve_root, []

    def off(n1, sign, guess, prec):
        solved.append(guess)
        root = solve_root(n1, sign, guess, prec)
        return root + mp.ldexp(1, -(prec // 2)) if len(solved) == 1 else root

    monkeypatch.setattr(basis, "_solve_root", off)
    with pytest.raises(RootConvergenceError, match="residual"):
        compute_nodes(6, family, make_context(120))
    # every root is solved before the check; a Radau endpoint needs none
    assert len(solved) == (7 if family == "gauss-legendre" else 6)


def test_node_solve_gives_up_at_its_iteration_cap(monkeypatch):
    # corrections that alternate past STOP_UNITS, as evaluation noise above
    # the stop size would, never end the iteration: it stops at the cap
    newton_correction, steps = basis._newton_correction, []

    def noisy(*args):
        steps.append(args)
        jitter = (basis.STOP_UNITS + 1) * (-1) ** len(steps)
        return newton_correction(*args) + jitter

    monkeypatch.setattr(basis, "_newton_correction", noisy)
    with pytest.raises(RootConvergenceError, match="did not converge"):
        compute_nodes(6, "gauss-legendre", make_context(120))
    assert len(steps) == basis.MAX_NEWTON_ROOT


def test_nodes_n1_closed_form():
    tau = compute_nodes(1, "gauss-legendre", CTX)
    with CTX.workdps():
        r3 = mp.sqrt(3) / 6
        assert abs(tau[0] - (mp.mpf(1) / 2 - r3)) < CTX.identity_tol
        assert abs(tau[1] - (mp.mpf(1) / 2 + r3)) < CTX.identity_tol


def test_radau_nodes_n1_closed_form():
    right = compute_nodes(1, "radau-right", CTX)
    left = compute_nodes(1, "radau-left", CTX)
    with CTX.workdps():
        assert abs(right[0] - mp.mpf(1) / 3) < CTX.identity_tol
        assert right[1] == 1
        assert left[0] == 0
        assert abs(left[1] - mp.mpf(2) / 3) < CTX.identity_tol


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left",
                                    "radau-right"])
@pytest.mark.parametrize("n", [0, 1, 3, 7, 12, 24])
def test_basis_invariants(n, family):
    b = make_basis(n, family, CTX)
    with CTX.workdps():
        assert all(0 <= t <= 1 for t in b.tau)
        assert all(a < c for a, c in zip(b.tau, b.tau[1:]))
        assert all(w > 0 for w in b.w)
        assert abs(mp.fsum(b.w) - 1) < CTX.identity_tol
        assert abs(mp.fsum(b.psi) - 1) < CTX.identity_tol
        assert abs(mp.fsum(b.psi_tilde) - 1) < CTX.identity_tol


def test_quadrature_exactness_monomials():
    # exact through degree 2N+1 for the interior-node family, 2N for Radau
    for family, top in (("gauss-legendre", 2), ("radau-left", 1),
                        ("radau-right", 1)):
        for n in (1, 3, 6, 12):
            b = make_basis(n, family, CTX)
            with CTX.workdps():
                for r in range(2 * n + top):
                    s = mp.fsum(b.w[p] * b.tau[p] ** r for p in range(n + 1))
                    assert abs(s - mp.mpf(1) / (r + 1)) < CTX.identity_tol


def test_radau_left_mirrors_radau_right():
    for n in range(25):
        right = compute_nodes(n, "radau-right", CTX)
        left = compute_nodes(n, "radau-left", CTX)
        with CTX.workdps():
            assert max(abs(x - (1 - y)) for x, y in zip(left, right[::-1])) \
                < CTX.identity_tol


# radau-right N=12 at 60 digits, from the earlier sign-change bracketing
RADAU_RIGHT_12 = (
    "0.0085390549884274193686644608778398028060904145665777",
    "0.044446463155407723025466798785552766241309303788997",
    "0.1068544908834766576341067704324992625897998143695",
    "0.19215105452985404099105725622861333038270136702152",
    "0.29538088426258022162291683437601490593989071331085",
    "0.41054508120145768248903435055933241184331869519092",
    "0.53095084931281767062893024289681813932450826350163",
    "0.6496006502772549927662917233429805722256531182773",
    "0.75959888952522705374260257404342034194220643508854",
    "0.85455254376493588079021191640561712848595950373956",
    "0.92894210126441101784881015513431529985049324147698",
    "0.97843793683414963909190691691699603836806912966763",
    "1")


def test_radau_right_n12_pinned():
    tau = compute_nodes(12, "radau-right", CTX)
    with CTX.workdps():
        assert len(tau) == len(RADAU_RIGHT_12)
        for t, want in zip(tau, RADAU_RIGHT_12):
            assert abs(t - mp.mpf(want)) < mp.mpf(10) ** -50


def test_interpolation_exactness():
    rng = random.Random(99)
    for n in (2, 5):
        b = make_basis(n, "gauss-legendre", CTX)
        with CTX.workdps():
            coeffs = [mp.mpf(rng.uniform(-1, 1)) for _ in range(n + 1)]

            def f(t):
                return mp.fsum(c * t ** k for k, c in enumerate(coeffs))

            for _ in range(10):
                t = mp.mpf(rng.random())
                vals = eval_basis(b.tau, b.lam, t)
                interp = mp.fsum(f(b.tau[p]) * vals[p] for p in range(n + 1))
                assert abs(interp - f(t)) < CTX.identity_tol


def test_partition_of_unity_pointwise():
    b = make_basis(6, "gauss-legendre", CTX)
    with CTX.workdps():
        for t in (mp.mpf(0), mp.mpf(1) / 7, mp.mpf(1)):
            assert (abs(mp.fsum(eval_basis(b.tau, b.lam, t)) - 1)
                    < CTX.identity_tol)


def test_gauss_legendre_symmetry():
    b = make_basis(8, "gauss-legendre", CTX)
    with CTX.workdps():
        for p in range(9):
            assert abs(b.tau[p] + b.tau[8 - p] - 1) < CTX.identity_tol
            assert abs(b.w[p] - b.w[8 - p]) < CTX.identity_tol


def test_psi_is_kronecker_at_nodes():
    # exact delta at every node, the Radau endpoints 0 and 1 included, at
    # mpmath's default 15 digits and at the working precision, both below
    # the digits the nodes are stored at
    for family in ("gauss-legendre", "radau-left", "radau-right"):
        b = make_basis(4, family, CTX)
        for ambient in (mp.workdps(15), CTX.workdps()):
            with ambient:
                assert mp.mp.dps < b.work_dps
                for p in range(5):
                    assert eval_basis(b.tau, b.lam, b.tau[p]) == tuple(
                        1 if p == q else 0 for q in range(5))


def _horner_basis(b, t):
    # monomial rows of l_p = prod_{k != p} (t - tau_k) / (tau_p - tau_k),
    # expanded from the nodes alone and evaluated by Horner's rule
    with mp.workdps(b.work_dps):
        out = []
        for p, tp in enumerate(b.tau):
            row = [mp.mpf(1)]
            for k, tk in enumerate(b.tau):
                if k != p:
                    row = [mp.mpf(0)] + row      # multiply by t ...
                    for i in range(len(row) - 1):
                        row[i] -= tk * row[i + 1]   # ... minus tau_k
                    row = [c / (tp - tk) for c in row]
            acc = row[-1]
            for c in reversed(row[:-1]):
                acc = acc * t + c
            out.append(acc)
        return out


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left",
                                    "radau-right"])
@pytest.mark.parametrize("n", [1, 4, 12])
def test_eval_basis_matches_horner(n, family):
    # the barycentric form against an independent monomial expansion
    b = make_basis(n, family, CTX)
    rng = random.Random(n)
    with CTX.workdps():
        for _ in range(20):
            t = mp.mpf(rng.random())
            bary = eval_basis(b.tau, b.lam, t)
            horner = _horner_basis(b, t)
            assert max(abs(x - y) for x, y in zip(bary, horner)) \
                < CTX.identity_tol


def test_weights_n1_are_half():
    tau = compute_nodes(1, "gauss-legendre", CTX)
    w = compute_weights(tau, barycentric_weights(tau, CTX), CTX)
    with CTX.workdps():
        assert abs(w[0] - mp.mpf(1) / 2) < CTX.identity_tol
        assert abs(w[1] - mp.mpf(1) / 2) < CTX.identity_tol


def test_weights_reject_nodes_off_the_rule():
    # interpolatory weights on perturbed Gauss nodes still integrate degree
    # N, but miss the degree-2N moments every family's rule must reach
    tau = list(compute_nodes(4, "gauss-legendre", CTX))
    with CTX.workdps():
        tau[2] += mp.mpf(10) ** -30
    with pytest.raises(BasisError, match="moment"):
        compute_weights(tuple(tau), barycentric_weights(tau, CTX), CTX)


def test_make_basis_computes_barycentric_weights_once(monkeypatch):
    calls = []

    def counted(tau, ctx):
        calls.append(tau)
        return barycentric_weights(tau, ctx)

    monkeypatch.setattr(basis, "barycentric_weights", counted)
    b = make_basis(8, "radau-right", make_context(60))
    assert len(calls) == 1 and calls[0] == b.tau


def test_conditioning_guard():
    ctx30 = make_context(30)
    with pytest.raises(BasisError):
        require_conditioning(20, ctx30)
    with pytest.raises(BasisError):
        make_basis(20, "gauss-legendre", ctx30)
    require_conditioning(20, make_context(60))


def test_bad_family_rejected():
    with pytest.raises(BasisError):
        compute_nodes(2, "chebyshev", CTX)


def test_negative_degree_rejected():
    with pytest.raises(BasisError):
        compute_nodes(-1, "gauss-legendre", CTX)

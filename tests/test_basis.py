import random

import mpmath as mp
import pytest

from aderdg.arith import make_context
from aderdg import basis
from aderdg.basis import (BasisError, barycentric_weights, compute_nodes,
                          compute_weights, eval_basis, make_basis,
                          require_conditioning, shifted_legendre)

CTX = make_context(60)


def test_shifted_legendre_low_degrees():
    # P~_1 = 2t - 1, P~_2 = 6t^2 - 6t + 1 on [0, 1]
    with CTX.workdps():
        t = mp.mpf(3) / 7
        v1, d1 = shifted_legendre(1, t)
        assert abs(v1 - (2 * t - 1)) < CTX.identity_tol
        assert abs(d1 - 2) < CTX.identity_tol
        v2, d2 = shifted_legendre(2, t)
        assert abs(v2 - (6 * t ** 2 - 6 * t + 1)) < CTX.identity_tol
        assert abs(d2 - (12 * t - 6)) < CTX.identity_tol


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
                vals = eval_basis(b, t)
                interp = mp.fsum(f(b.tau[p]) * vals[p] for p in range(n + 1))
                assert abs(interp - f(t)) < CTX.identity_tol


def test_partition_of_unity_pointwise():
    b = make_basis(6, "gauss-legendre", CTX)
    with CTX.workdps():
        for t in (mp.mpf(0), mp.mpf(1) / 7, mp.mpf(1)):
            assert abs(mp.fsum(eval_basis(b, t)) - 1) < CTX.identity_tol


def test_gauss_legendre_symmetry():
    b = make_basis(8, "gauss-legendre", CTX)
    with CTX.workdps():
        for p in range(9):
            assert abs(b.tau[p] + b.tau[8 - p] - 1) < CTX.identity_tol
            assert abs(b.w[p] - b.w[8 - p]) < CTX.identity_tol


def test_psi_is_kronecker_at_nodes():
    # exact delta at every node, the Radau endpoints 0 and 1 included
    for family in ("gauss-legendre", "radau-left", "radau-right"):
        b = make_basis(4, family, CTX)
        for p in range(5):
            assert eval_basis(b, b.tau[p]) == tuple(
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
            bary = eval_basis(b, t)
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

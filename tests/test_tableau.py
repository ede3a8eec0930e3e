import json

import mpmath as mp
import pytest

from aderdg.arith import make_context
from aderdg.tableau import (ImportVerificationError, TableauError, build_q_m,
                            build_tableau, check_simplifying, export_tableau,
                            import_tableau, pade_exp, pade_exp_coefficients,
                            stability_function, verify_lemma21)

CTX = make_context(60)


def _tab(n, family="gauss-legendre", ctx=CTX):
    return build_tableau(n, family, ctx)


def test_a_matrix_n1_closed_form():
    tab = _tab(1)
    with CTX.workdps():
        r3 = mp.sqrt(3)
        expect = ((mp.mpf(1) / 3, (1 - r3) / 6),
                  ((1 + r3) / 6, mp.mpf(1) / 3))
        for p in range(2):
            for q in range(2):
                assert abs(tab.a[p][q] - expect[p][q]) < CTX.identity_tol


def test_a_matrix_n2_closed_form():
    tab = _tab(2)
    with CTX.workdps():
        s = mp.sqrt(15)
        expect = ((mp.mpf(29) / 180, mp.mpf(8) / 45 - s / 15,
                   mp.mpf(29) / 180 - s / 30),
                  (mp.mpf(1) / 9 + s / 24, mp.mpf(5) / 18,
                   mp.mpf(1) / 9 - s / 24),
                  (mp.mpf(29) / 180 + s / 30, mp.mpf(8) / 45 + s / 15,
                   mp.mpf(29) / 180))
        for p in range(3):
            for q in range(3):
                assert abs(tab.a[p][q] - expect[p][q]) < CTX.identity_tol


def test_kappa_n1_closed_form():
    tab = _tab(1)
    with CTX.workdps():
        r3 = mp.sqrt(3)
        expect = ((mp.mpf(1), (r3 - 1) / 2), (-(r3 + 1) / 2, mp.mpf(1)))
        for p in range(2):
            for q in range(2):
                assert abs(tab.kappa[p][q] - expect[p][q]) < CTX.identity_tol


def _monomial_kappa(tau):
    """Reference kappa and w from monomial coefficients of the Lagrange
    basis, integrated exactly; independent of any quadrature rule."""
    n1 = len(tau)
    phi = []
    for p, tp in enumerate(tau):
        row = [mp.mpf(1)]
        for k, tk in enumerate(tau):
            if k != p:
                row = [mp.mpf(0)] + row      # multiply by t ...
                for i in range(len(row) - 1):
                    row[i] -= tk * row[i + 1]   # ... minus tau_k
                row = [c / (tp - tk) for c in row]
        phi.append(row)
    # cross[p][q] = int phi_p' phi_q = sum_ij i phi[p][i] phi[q][j] / (i + j)
    dphi = [[(i + 1) * row[i + 1] for i in range(n1 - 1)] for row in phi]
    dh = [[mp.fsum(dp[i] / (i + j + 1) for i in range(n1 - 1))
           for j in range(n1)] for dp in dphi]
    cross = [[mp.fsum(x * y for x, y in zip(d, phi[q])) for q in range(n1)]
             for d in dh]
    psi_tilde = [mp.fsum(row) for row in phi]
    kappa = [[psi_tilde[p] * psi_tilde[q] - cross[p][q] for q in range(n1)]
             for p in range(n1)]
    w = [mp.fsum(c / (k + 1) for k, c in enumerate(row)) for row in phi]
    return kappa, w


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left",
                                    "radau-right"])
@pytest.mark.parametrize("n", [0, 1, 4, 12, 24])
def test_kappa_matches_monomial_reference(n, family):
    ctx = make_context(120)
    tab = _tab(n, family, ctx)
    with mp.workdps(tab.basis.work_dps):
        kappa, w = _monomial_kappa(tab.basis.tau)
        assert max(abs(x - y) for row, ref in zip(tab.kappa, kappa)
                   for x, y in zip(row, ref)) <= ctx.identity_tol
        assert max(abs(x - y) for x, y in zip(tab.basis.w, w)) \
            <= ctx.identity_tol


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left",
                                    "radau-right"])
@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_coupling_identities_all_families(n, family):
    tab = _tab(n, family)
    assert max(verify_lemma21(tab, CTX)) <= CTX.identity_tol


def test_row_sums_of_a_are_nodes():
    for n in (1, 3, 8):
        tab = _tab(n)
        with CTX.workdps():
            for p in range(n + 1):
                assert abs(mp.fsum(tab.a[p]) - tab.basis.tau[p]) < CTX.identity_tol


def test_simplifying_conditions():
    for n in (1, 3, 6):
        tab = _tab(n)
        assert check_simplifying(tab, "B", 2 * n + 2, CTX) <= CTX.identity_tol
        assert check_simplifying(tab, "C", n, CTX) <= CTX.identity_tol
        assert check_simplifying(tab, "D", n, CTX) <= CTX.identity_tol
        # the next stage order is genuinely not reached
        assert check_simplifying(tab, "C", n + 1, CTX) > 10 ** 6 * CTX.unit_roundoff


def test_radau_right_reaches_next_stage_order():
    for n in (1, 3):
        tab = _tab(n, "radau-right")
        assert check_simplifying(tab, "C", n + 1, CTX) <= CTX.identity_tol


def test_simplifying_rejects_bad_input():
    tab = _tab(1)
    with pytest.raises(TableauError):
        check_simplifying(tab, "E", 1, CTX)
    with pytest.raises(TableauError):
        check_simplifying(tab, "B", 0, CTX)


def test_q_m_dyadic_structure():
    for n in (1, 2, 5):
        tab = _tab(n)
        qm = build_q_m(tab, CTX)
        assert qm.q_residual <= CTX.identity_tol
        assert qm.m_residual <= CTX.identity_tol
        with CTX.workdps():
            assert qm.gershgorin_lower >= -CTX.identity_tol * qm.lambda_m
            # Q is symmetric
            n1 = n + 1
            assert max(abs(qm.q[p][q] - qm.q[q][p])
                       for p in range(n1) for q in range(n1)) <= CTX.identity_tol


def test_lambda_m_n1():
    qm = build_q_m(_tab(1), CTX)
    with CTX.workdps():
        assert abs(qm.lambda_m - mp.mpf(1) / 6) <= CTX.identity_tol


def test_stability_function_n1_values():
    tab = _tab(1)
    with CTX.workdps():
        # (1 + z/3) / (1 - 2z/3 + z^2/6) at z = 1 is 8/3
        assert abs(stability_function(tab, 1, CTX) - mp.mpf(8) / 3) < CTX.identity_tol
        assert stability_function(tab, 0, CTX) == 1


def test_pade_series_match():
    # the rational function agrees with exp through order 2N+1
    for n in (1, 2, 4):
        num, den = pade_exp_coefficients(n, CTX)
        with CTX.workdps():
            taylor = mp.taylor(mp.exp, 0, 2 * n + 2)
            # den * exp - num has no terms below z^{2N+2}
            for k in range(2 * n + 2):
                conv = mp.fsum(den[j] * taylor[k - j]
                               for j in range(min(k, n + 1) + 1))
                target = num[k] if k <= n else mp.mpf(0)
                assert abs(conv - target) < CTX.identity_tol


def test_stability_matches_pade_samples():
    for n in (1, 3, 6):
        tab = _tab(n)
        with CTX.workdps():
            for z in (mp.mpf(2), mp.mpc(1, 2), mp.mpc(-3, 1), mp.mpf(-5)):
                rv = stability_function(tab, z, CTX)
                pv = pade_exp(n, z, CTX)
                assert abs(rv - pv) / abs(pv) < CTX.identity_tol


def test_stiff_decay():
    with CTX.workdps():
        big = -mp.mpf(10) ** 8
        for n in (1, 4, 8):
            tab = _tab(n)
            assert abs(stability_function(tab, big, CTX)) <= (n + 1) / mp.mpf(10) ** 8


def test_export_import_roundtrip():
    tab = _tab(3)
    doc = export_tableau(tab)
    back = import_tableau(doc, CTX)
    assert back.n == 3 and back.family == "gauss-legendre"
    with CTX.workdps():
        for p in range(4):
            for q in range(4):
                assert abs(back.a[p][q] - tab.a[p][q]) < CTX.identity_tol
    assert max(verify_lemma21(back, CTX)) <= CTX.identity_tol


def test_import_rejects_corruption():
    doc = json.loads(export_tableau(_tab(2)))
    doc["a"][1][1] = "0.123"
    with pytest.raises(ImportVerificationError):
        import_tableau(json.dumps(doc), CTX)


def test_import_rejects_tampered_stage_matrix():
    # a[0][0] + 0.01, compensated in a[1][0] so that Lemma 2.1 still holds
    tab = _tab(3)
    doc = json.loads(export_tableau(tab))
    with CTX.workdps():
        shift = mp.mpf("0.01")
        comp = shift * tab.basis.psi_tilde[0] / tab.basis.psi_tilde[1]
        doc["a"][0][0] = mp.nstr(tab.a[0][0] + shift, 62)
        doc["a"][1][0] = mp.nstr(tab.a[1][0] - comp, 62)
        back_a = [[mp.mpf(x) for x in row] for row in doc["a"]]
        assert max(abs(mp.fsum(back_a[p][q] * tab.basis.psi_tilde[p]
                               for p in range(4)) - tab.basis.w[q])
                   for q in range(4)) < CTX.identity_tol
    with pytest.raises(ImportVerificationError, match="kappa a"):
        import_tableau(json.dumps(doc), CTX)


def test_import_rejects_tampered_nodes():
    doc = json.loads(export_tableau(_tab(3)))
    with CTX.workdps():
        doc["tau"][1] = mp.nstr(mp.mpf(doc["tau"][1]) + mp.mpf(10) ** -40, 62)
    with pytest.raises(ImportVerificationError, match="nodes"):
        import_tableau(json.dumps(doc), CTX)
    # a self-consistent Gauss tableau stored under another family's name
    doc = json.loads(export_tableau(_tab(3)))
    doc["family"] = "radau-right"
    with pytest.raises(ImportVerificationError, match="radau-right nodes"):
        import_tableau(json.dumps(doc), CTX)


def test_import_rejects_unknown_family():
    doc = json.loads(export_tableau(_tab(2)))
    doc["family"] = "chebyshev"
    with pytest.raises(ImportVerificationError):
        import_tableau(json.dumps(doc), CTX)


def test_import_rejects_shape_mismatch():
    doc = json.loads(export_tableau(_tab(3)))
    for n in (2, 4):
        with pytest.raises(ImportVerificationError, match="do not fit"):
            import_tableau(json.dumps(dict(doc, n=n)), CTX)
    ragged = dict(doc, a=[row[:3] for row in doc["a"]])
    with pytest.raises(ImportVerificationError, match="do not fit"):
        import_tableau(json.dumps(ragged), CTX)


def test_import_rejects_malformed():
    with pytest.raises(TableauError):
        import_tableau("{\"n\": 2}", CTX)
    with pytest.raises(TableauError):
        import_tableau("not json at all", CTX)


def test_import_rejects_wrong_schema():
    doc = json.loads(export_tableau(_tab(1)))
    doc["schema_version"] = 99
    with pytest.raises(TableauError):
        import_tableau(json.dumps(doc), CTX)

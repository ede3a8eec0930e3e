import json
from dataclasses import replace

import mpmath as mp
import pytest

from aderdg import linalg
from aderdg.arith import make_context
from aderdg.basis import FAMILIES
from aderdg.tableau import (ImportVerificationError, TableauError, build_q_m,
                            build_tableau, check_simplifying, export_tableau,
                            import_tableau, pade_exp, pade_exp_coefficients,
                            simplifying_residuals, stability_function,
                            verify_lemma21)

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


def _perturbed(tab, key, p, q, delta):
    # tab with entry (p, q) of its a or kappa raised by delta
    rows = [list(row) for row in getattr(tab, key)]
    with mp.workdps(tab.basis.work_dps):
        rows[p][q] += delta
    return replace(tab, **{key: tuple(tuple(row) for row in rows)})


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [0, 3, 8])
def test_lemma21_sees_every_entry_of_a_and_kappa(n, family):
    # relations 0 and 1 read kappa^-1 psi from a, relation 3 reads a, and
    # 2, 4 and 5 read kappa: an error of 100 identity tolerances in any
    # one entry of a fails 0, 1 or 3 and leaves 2, 4 and 5 alone, and the
    # other way round for kappa.  Every entry of a enters 0, 1 or 3 with a
    # weight psi_q / w_q or psi~_p of at least 1/9 here (radau-left, N=8),
    # so 100 tolerances stand clear of the rounding floor
    ctx = make_context(120)
    tab = _tab(n, family, ctx)
    tol = ctx.identity_tol
    delta = 100 * tol
    for p in range(n + 1):
        for q in range(n + 1):
            r = verify_lemma21(_perturbed(tab, "a", p, q, delta), ctx)
            assert max(r[0], r[1], r[3]) > tol
            assert max(r[2], r[4], r[5]) <= tol
            r = verify_lemma21(_perturbed(tab, "kappa", p, q, delta), ctx)
            assert max(r[2], r[4], r[5]) > tol
            assert max(r[0], r[1], r[3]) <= tol


def _c_residual(tab, order):
    # the C(order) residual as one max over every power and row, each sum
    # one linalg.dot of a row of a with the tabulated powers
    b, n1 = tab.basis, tab.stages
    with mp.workdps(b.work_dps):
        pw = [[mp.mpf(1)] * n1]
        for _ in range(order):
            pw.append([c * t for c, t in zip(pw[-1], b.tau)])
        return max(abs(linalg.dot(tab.a[p], pw[r]) - pw[r + 1][p] / (r + 1))
                   for r in range(order) for p in range(n1))


@pytest.mark.parametrize("family", FAMILIES)
def test_one_c_pass_gives_c_n_and_c_n1_bit_for_bit(family):
    # the verify command takes C(N) as the max of the first N rows of the
    # C(N+1) pass; both residuals keep the bits of a pass of their own
    ctx = make_context(120)
    for n in range(1, 13):
        tab = _tab(n, family, ctx)
        rows = simplifying_residuals(tab, "C", n + 1, ctx)
        assert len(rows) == n + 1
        assert max(rows[:n]) == _c_residual(tab, n) \
            == check_simplifying(tab, "C", n, ctx)
        assert max(rows) == _c_residual(tab, n + 1) \
            == check_simplifying(tab, "C", n + 1, ctx)


def test_row_sums_of_a_are_nodes():
    for n in (1, 3, 8):
        tab = _tab(n)
        with CTX.workdps():
            for p in range(n + 1):
                assert abs(mp.fsum(tab.a[p]) - tab.basis.tau[p]) < CTX.identity_tol


def test_simplifying_conditions():
    for n in (1, 3, 6):
        tab = _tab(n)
        for which, order in (("B", 2 * n + 2), ("C", n), ("D", n)):
            assert check_simplifying(tab, which, order, CTX) <= CTX.identity_tol
            # the next order is genuinely not reached, so the top power
            # r = order - 1 of each check counts
            assert (check_simplifying(tab, which, order + 1, CTX)
                    > 10 ** 6 * CTX.unit_roundoff)


def test_radau_right_reaches_next_stage_order():
    for n in (1, 3):
        tab = _tab(n, "radau-right")
        assert check_simplifying(tab, "C", n + 1, CTX) <= CTX.identity_tol


def _nudged(tab, w_at=None, a_at=None):
    # tab with one entry of w or of a raised by 1e-30
    b, a = tab.basis, [list(row) for row in tab.a]
    with mp.workdps(b.work_dps):
        if w_at is not None:
            w = list(b.w)
            w[w_at] += mp.mpf(10) ** -30
            b = replace(b, w=tuple(w))
        if a_at is not None:
            a[a_at[0]][a_at[1]] += mp.mpf(10) ** -30
    return replace(tab, basis=b, a=tuple(tuple(row) for row in a))


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left"])
@pytest.mark.parametrize("n", [3, 6])
def test_simplifying_checks_see_every_entry(n, family):
    # a 1e-30 error in any one entry of w or a breaks each condition whose
    # sums it enters, so no stage row, column or power may be skipped;
    # radau-left's node tau_0 = 0 enters only the power r = 0
    tab = _tab(n, family)
    tol = CTX.identity_tol
    b_order = 2 * n + 2 if family == "gauss-legendre" else 2 * n + 1
    for i in range(n + 1):
        nudged = _nudged(tab, w_at=i)
        assert check_simplifying(nudged, "B", b_order, CTX) > tol
        assert check_simplifying(nudged, "D", n, CTX) > tol
        for j in range(n + 1):
            nudged = _nudged(tab, a_at=(i, j))
            assert check_simplifying(nudged, "C", n, CTX) > tol
            assert check_simplifying(nudged, "D", n, CTX) > tol


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


def test_pade_coefficients_are_cached_per_degree_and_context():
    pade_exp_coefficients.cache_clear()
    first = pade_exp_coefficients(5, CTX)
    # an equal context built again shares the entry
    assert pade_exp_coefficients(5, make_context(CTX.decimal_digits)) is first
    other = pade_exp_coefficients(5, make_context(CTX.decimal_digits + 40))
    assert pade_exp_coefficients(5, make_context(CTX.decimal_digits + 40)) is other
    info = pade_exp_coefficients.cache_info()
    assert (info.hits, info.misses) == (2, 2)
    # 5/11 is num[1]: the second context rounds it at its own digits
    assert other[0][1] != first[0][1]
    with mp.workdps(CTX.decimal_digits + 50):
        assert abs(other[0][1] - mp.mpf(5) / 11) < mp.mpf(10) ** -105


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
    with pytest.raises(ImportVerificationError, match="stored a differs"):
        import_tableau(json.dumps(doc), CTX)


def test_import_rejects_tampered_nodes():
    doc = json.loads(export_tableau(_tab(3)))
    with CTX.workdps():
        doc["tau"][1] = mp.nstr(mp.mpf(doc["tau"][1]) + mp.mpf(10) ** -40, 62)
    with pytest.raises(ImportVerificationError, match="stored tau"):
        import_tableau(json.dumps(doc), CTX)
    # a self-consistent Gauss tableau stored under another family's name
    doc = json.loads(export_tableau(_tab(3)))
    doc["family"] = "radau-right"
    with pytest.raises(ImportVerificationError,
                       match="rebuilt radau-right tableau"):
        import_tableau(json.dumps(doc), CTX)


def test_import_rejects_trace_free_kappa_perturbation(trace_free_tampered):
    # every identity the stored arrays satisfy among themselves still holds;
    # only the comparison with the rebuilt tableau sees the change
    with pytest.raises(ImportVerificationError, match="stored kappa differs"):
        import_tableau(trace_free_tampered(3, 60), CTX)


@pytest.mark.parametrize("digits", [1, -5, 29])
def test_import_rejects_low_stored_digits(digits):
    # a file may not loosen its own tolerance 10^(10 - digits)
    doc = json.loads(export_tableau(_tab(3)))
    doc["digits"] = digits
    with pytest.raises(ImportVerificationError, match="stored digits"):
        import_tableau(json.dumps(doc), CTX)


def test_import_returns_rebuilt_tableau_with_stored_digits():
    stored = export_tableau(_tab(4, "radau-left", make_context(90)))
    back = import_tableau(stored, CTX)
    assert back.digits == 90
    rebuilt = _tab(4, "radau-left")
    assert (back.basis, back.kappa, back.a) == (rebuilt.basis, rebuilt.kappa,
                                                rebuilt.a)


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


def test_import_rejects_non_utf8_and_non_object_documents():
    text = export_tableau(_tab(1))
    assert import_tableau(text.encode(), CTX).n == 1
    for raw in (text.encode().replace(b'"n"', b'"\xff"'),
                text.encode("utf-16")):
        with pytest.raises(TableauError, match="malformed"):
            import_tableau(raw, CTX)
    with pytest.raises(TableauError, match="malformed"):
        import_tableau("[1, 2]", CTX)


def test_import_rejects_wrong_schema():
    doc = json.loads(export_tableau(_tab(1)))
    doc["schema_version"] = 99
    with pytest.raises(TableauError):
        import_tableau(json.dumps(doc), CTX)

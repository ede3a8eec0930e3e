import importlib.util
import json
import os
import random
import shlex
import sys
from dataclasses import replace

import mpmath as mp
import pytest

from aderdg import cli
from aderdg.basis import FAMILIES
from aderdg.cli import build_parser, main
from aderdg.solver import eval_local, integrate
from aderdg.tableau import (build_q_m, build_tableau, export_tableau,
                            stability_function)
from aderdg.arith import MIN_DIGITS, make_context


def run(*argv):
    return main(list(argv))


def test_no_command_is_usage_error(capsys):
    assert run() == 1


def test_unknown_command(capsys):
    assert run("frobnicate") == 1


def test_verify_passes(capsys):
    assert run("verify", "2", "--digits", "60") == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_verify_radau_right(capsys):
    assert run("verify", "1", "--family", "radau-right", "--digits", "60") == 0


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left",
                                    "radau-right"])
def test_degree_zero_verifies_and_round_trips(family, tmp_path, capsys):
    assert run("verify", "0", "--family", family, "--digits", "60") == 0
    path = str(tmp_path / "tab0.json")
    assert run("tableau", "0", "--family", family, "--digits", "60",
               "--format", "json", "--out", path) == 0
    assert run("tableau", "--check", path, "--digits", "60") == 0


BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")


def _bench_module(name):
    # a bench/ script loaded from its file, so the test runs the
    # benchmark's own commands and summary, not a copy of them
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_verify_rows_match_the_benchmark_golden(tmp_path, monkeypatch, capsys):
    # each verify command of the verify-tableau workload prints exactly
    # the row labels, and fails exactly the rows, of bench/golden.json: a
    # renamed, added or dropped row fails here before the benchmark.
    # bench/run.py adds itself to sys.path; bench/ gets no bytecode
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    bench = _bench_module("run")
    with open(bench.GOLDEN) as fh:
        golden = json.load(fh)
    cmds, _ = bench.verify_tableau(random.Random(0), str(tmp_path))
    verify = {label: argv for label, argv in cmds if label.startswith("verify:")}
    assert set(verify) == {k for k in golden if k.startswith("verify:")}
    for label, argv in sorted(verify.items()):
        assert main(argv) == 0
        assert bench.checks.summarize_verify(capsys.readouterr().out) \
            == golden[label], label


DAMP = "stiff damping |R(-1e8)|"
PADE = "R(z) matches subdiagonal Pade"


def _verify_bent(monkeypatch, capsys, digits, delta):
    # verify 4's JSON rows for the tableau with a_00 raised by delta; the
    # dyadic check would raise before the R(z) rows, so build_q_m returns
    # the unperturbed tableau's result
    ctx = make_context(digits)
    tab = build_tableau(4, "gauss-legendre", ctx)
    qm = build_q_m(tab, ctx)
    a = [list(row) for row in tab.a]
    with mp.workdps(tab.basis.work_dps):
        a[0][0] += delta
    bent = replace(tab, a=tuple(tuple(row) for row in a))
    monkeypatch.setattr(cli, "build_tableau", lambda n, family, c: bent)
    monkeypatch.setattr(cli, "build_q_m", lambda t, c: qm)
    assert run("verify", "4", "--digits", str(digits), "--format", "json") == 2
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("digits", [120, 500])
def test_verify_r_rows_keep_their_verdicts(digits, monkeypatch, capsys):
    # the verdicts a full-digit evaluation of R(z) gives: the Pade row
    # resolves an error in a within 3 decades of its 10^-(d//2), and the
    # damping row sees one of 1e-4
    half = digits // 2
    with mp.workdps(digits + 10):
        coarse, fine = mp.mpf(10) ** -(half - 3), mp.mpf(10) ** -(half + 3)
        big = mp.mpf("1e-4")
    rows = _verify_bent(monkeypatch, capsys, digits, coarse)
    assert rows[PADE]["pass"] is False and rows[DAMP]["pass"] is True
    rows = _verify_bent(monkeypatch, capsys, digits, fine)
    assert rows[PADE]["pass"] is True and rows[DAMP]["pass"] is True
    rows = _verify_bent(monkeypatch, capsys, digits, big)
    assert rows[DAMP]["pass"] is False


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [0, 5, 12])
def test_verify_damping_residual_matches_full_digits(n, family, capsys):
    # the 40-digit evaluation prints the same 20 digits as one at d + 10,
    # each rounded from its own digits, not from 53 bits
    assert run("verify", str(n), "--family", family, "--digits", "120",
               "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    ctx = make_context(120)
    tab = build_tableau(n, family, ctx)
    with ctx.workdps():
        want = mp.nstr(abs(stability_function(tab, -1e8, ctx)), 20)
    assert rows[DAMP]["residual"] == want


@pytest.mark.parametrize("n, digits", [(0, 40), (4, 120), (4, 500)])
def test_verify_sizes_each_r_row_to_its_check(n, digits, monkeypatch, capsys):
    # the damping row at MIN_DIGITS, the four Pade points at about d/2 + 10,
    # never the user's d; 40 digits is the least any degree verifies at
    seen = []

    def recording(tab, z, ctx):
        seen.append(ctx.decimal_digits)
        return stability_function(tab, z, ctx)

    monkeypatch.setattr(cli, "stability_function", recording)
    assert run("verify", str(n), "--digits", str(digits),
               "--format", "json") == 0
    pade = min(digits, max(MIN_DIGITS, digits // 2 + 10))
    assert seen == [MIN_DIGITS] + [pade] * 4


def test_verify_rejects_degree_above_cap(capsys):
    assert run("verify", "25", "--digits", "120") == 1
    assert "cap 24" in capsys.readouterr().err


def test_default_digits_is_120():
    assert build_parser().parse_args(["verify", "1"]).digits == 120


def test_site_config_variable_is_ignored(tmp_path, monkeypatch):
    # no environment variable changes the CLI, a garbage file included
    cfg = tmp_path / "site.cfg"
    cfg.write_text("nonsense_key = 5\nn_cap = 0\n")
    monkeypatch.setenv("ADERDG_CONFIG", str(cfg))
    assert run("verify", "1", "--digits", "60") == 0


def test_tableau_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert run("tableau", "2", "--digits", "60", "--format", "json",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 2 and len(doc["a"]) == 3
    assert run("tableau", "--check", str(out), "--digits", "60") == 0


def test_tableau_check_rejects_corrupt(tmp_path, capsys):
    ctx = make_context(60)
    doc = json.loads(export_tableau(build_tableau(2, "gauss-legendre", ctx)))
    doc["kappa"][0][0] = "42.0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("tableau", "--check", str(bad), "--digits", "60") == 2


def test_tableau_check_rejects_tampered_stage_matrix(tmp_path, capsys):
    # a[0][0] + 0.01, compensated in a[1][0] so Lemma 2.1 still holds
    ctx = make_context(60)
    tab = build_tableau(3, "gauss-legendre", ctx)
    doc = json.loads(export_tableau(tab))
    with ctx.workdps():
        shift = mp.mpf("0.01")
        doc["a"][0][0] = mp.nstr(tab.a[0][0] + shift, 62)
        doc["a"][1][0] = mp.nstr(
            tab.a[1][0] - shift * tab.basis.psi_tilde[0] / tab.basis.psi_tilde[1],
            62)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("tableau", "--check", str(bad), "--digits", "60") == 2
    assert "stored a differs" in capsys.readouterr().err


def test_tableau_check_rejects_trace_free_kappa_perturbation(
        tmp_path, capsys, trace_free_tampered):
    bad = tmp_path / "bad.json"
    bad.write_text(trace_free_tampered(8, 120))
    assert run("tableau", "--check", str(bad), "--digits", "120") == 2
    assert "stored kappa differs" in capsys.readouterr().err


def test_tableau_check_rejects_low_stored_digits(tmp_path, capsys):
    ctx = make_context(60)
    doc = json.loads(export_tableau(build_tableau(3, "gauss-legendre", ctx)))
    doc["digits"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("tableau", "--check", str(bad), "--digits", "60") == 2
    assert "stored digits 1" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["gauss-legendre", "radau-left",
                                    "radau-right"])
def test_tableau_check_accepts_exports_at_other_digits(family, tmp_path,
                                                       capsys):
    # the comparison tolerance follows the coarser of the stored and the
    # checking precision
    for stored_digits in ("500", "60"):
        for n in ("0", "1", "8"):
            path = str(tmp_path / f"t{n}-{stored_digits}.json")
            assert run("tableau", n, "--family", family, "--digits",
                       stored_digits, "--format", "json", "--out", path) == 0
            assert run("tableau", "--check", path, "--digits", "120") == 0
            assert capsys.readouterr().out == (
                f"ok: degree {n} {family} tableau, "
                f"{stored_digits} stored digits\n")


def test_tableau_check_non_utf8_is_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": "\xff\xfe"}')
    assert run("tableau", "--check", str(bad), "--digits", "60") == 2
    err = capsys.readouterr().err
    assert "malformed tableau document" in err and err.count("\n") == 1


def test_tableau_check_refuses_degree_family_and_low_digits(tmp_path,
                                                            capsys):
    path = str(tmp_path / "t.json")
    assert run("tableau", "12", "--digits", "60", "--format", "json",
               "--out", path) == 0
    assert run("tableau", "4", "--check", path, "--digits", "60") == 1
    assert run("tableau", "--family", "radau-right", "--check", path,
               "--digits", "60") == 1
    assert run("tableau", "--check", path, "--digits", "30") == 1
    assert run("tableau", "--check", path, "--digits", "60") == 0


def test_tableau_check_writes_out_and_refuses_format(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    assert run("tableau", "3", "--digits", "60", "--format", "json",
               "--out", path) == 0
    report = tmp_path / "report.txt"
    assert run("tableau", "--check", path, "--digits", "60",
               "--out", str(report)) == 0
    assert capsys.readouterr().out == ""
    assert report.read_text() == ("ok: degree 3 gauss-legendre tableau, "
                                  "60 stored digits\n")
    # the check prints one line, so a csv or json format is a usage error
    for fmt in ("csv", "json"):
        assert run("tableau", "--check", path, "--digits", "60",
                   "--format", fmt) == 1


def test_tableau_insufficient_digits_is_usage():
    assert run("tableau", "12", "--digits", "30") == 1


def test_solve_harmonic(capsys):
    assert run("solve", "harmonic", "--n", "2", "--m", "4",
               "--digits", "60", "--dense", "2") == 0
    out = capsys.readouterr().out
    assert "node" in out and "dense" in out and "interface residual" in out


def test_solve_unknown_problem():
    assert run("solve", "nosuch", "--n", "2", "--m", "4",
               "--digits", "60") == 1


def test_solve_solver_failure_exit():
    # the fixed-point mode refuses a step violating its contraction bound
    assert run("solve", "dahlquist:-1000", "--n", "2", "--m", "1",
               "--digits", "60", "--jacobian", "picard") == 3


def test_solve_singular_newton_matrix_exits_3(capsys):
    # N=0 has a = 1, so the Newton matrix 1 - dt a lam of lam = 1 on one
    # interval is exactly 0, at the working digits too
    assert run("solve", "dahlquist:1", "--n", "0", "--m", "1") == 3
    assert "singular Newton matrix" in capsys.readouterr().err


@pytest.mark.parametrize("problem, family", [("harmonic", "gauss-legendre"),
                                             ("pendulum", "radau-left")])
def test_solve_dense_json(problem, family, capsys):
    # the JSON the benchmark parses: its keys, a row per node and per dense
    # sample, decimals throughout, and each dense row the predictor at
    # t_n + dt j/(K+1) to a unit in the last printed digit
    n, m, k, digits = 3, 4, 3, 50
    assert run("solve", problem, "--n", str(n), "--m", str(m), "--dense",
               str(k), "--family", family, "--digits", str(digits),
               "--format", "json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"rows", "interface_residual"}
    mp.mpf(doc["interface_residual"])
    rows = doc["rows"]
    assert len(rows) == m * (k + 1) + 1
    keys = {"t", "kind", "u"} | ({"error"} if problem == "harmonic" else set())
    assert all(set(row) == keys for row in rows)
    assert [row["kind"] for row in rows] == ["node"] + (["dense"] * k + ["node"]) * m
    ctx = make_context(digits)
    tab = build_tableau(n, family, ctx)
    traj = integrate(tab, cli.catalog_lookup(problem).problem, m, ctx)
    with ctx.workdps(10):
        for i, loc in enumerate(traj.locals):
            for j in range(1, k + 1):
                row = rows[i * (k + 1) + j]
                t = loc.t_n + loc.dt_n * mp.mpf(j) / (k + 1)
                printed = [mp.mpf(x) for x in [row["t"]] + row["u"]]
                for x, want in zip(printed, (t,) + eval_local(loc, tab.basis, t)):
                    unit = mp.mpf(10) ** (mp.floor(mp.log10(abs(want))) - digits + 1)
                    assert abs(x - want) <= unit
        for i, row in enumerate(rows[::k + 1]):
            assert [mp.mpf(x) for x in row["u"]] == [
                mp.mpf(mp.nstr(x, digits)) for x in traj.values[i]]
            if "error" in row:
                mp.mpf(row["error"])


@pytest.mark.xfail(strict=True, reason=(
    "node values are accurate in absolute terms only: the update u_n + dt "
    "sum_p w_p k_p cancels log10|lam dt| digits, and a step whose |F(u_n)| "
    "is below the absolute stage tolerance accepts k = 0 and keeps u_n, so "
    "nodes 3 and 4 print node 2's 1.44e-88 in place of R^3 = 1.7e-132 and "
    "R^4 = 2.1e-176"))
def test_stiff_solve_prints_node_signs_and_magnitudes(capsys):
    # node i of dahlquist(lam) on 4 intervals is R(lam/4)^i
    assert run("solve", "dahlquist:-1e45", "--n", "2", "--m", "4",
               "--digits", "60") == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.split()[1:2] == ["node"]]
    assert len(rows) == 5
    ctx = make_context(300)
    with ctx.workdps():
        r = stability_function(build_tableau(2, "gauss-legendre", ctx),
                               mp.mpf("-1e45") / 4, ctx)
        for i, row in enumerate(rows):
            u, want = mp.mpf(row[2]), r ** i
            assert mp.sign(u) == mp.sign(want), f"node {i} sign"
            assert abs(u / want - 1) < mp.mpf(10) ** -6, f"node {i}"


def test_converge_harmonic(capsys):
    assert run("converge", "harmonic", "--n", "1", "--m", "4,6,8",
               "--digits", "60") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].lstrip().startswith("N")


def test_converge_zero_floor_exit(capsys):
    assert run("converge", "poly:3:7", "--n", "5", "--m", "2,4,8",
               "--digits", "60") == 4


def test_converge_bad_lists():
    assert run("converge", "harmonic", "--n", "x", "--m", "4,8",
               "--digits", "60") == 1
    assert run("converge", "harmonic", "--n", "2", "--m", "",
               "--digits", "60") == 1
    # bad interval counts are usage errors, caught before any cell runs
    assert run("converge", "harmonic", "--n", "2", "--m", "0,4,8",
               "--digits", "60") == 1
    assert run("converge", "harmonic", "--n", "2", "--m", "4,4,8",
               "--digits", "60") == 1
    # so are fewer than 3 interval counts (no order fits) and repeated degrees
    assert run("converge", "harmonic", "--n", "2", "--m", "4,6",
               "--digits", "60") == 1
    assert run("converge", "harmonic", "--n", "2,2", "--m", "4,6,8",
               "--digits", "60") == 1
    assert run("converge", "harmonic", "--n", "2", "--m", "4,6,8",
               "--digits", "60", "--jobs", "2") == 1


@pytest.mark.parametrize("n", ["0", "2"])
def test_stability_default_grid(n, capsys):
    # N = 0 has its pole at z = 1, which the default grid must avoid
    assert run("stability", n, "--digits", "60") == 0
    out = capsys.readouterr().out
    assert "-1.0e+8" in out


def test_stability_explicit_points(capsys):
    assert run("stability", "1", "--digits", "60", "--z", "1,-2,0+3i") == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_stability_imaginary_axis(capsys):
    zs = ",".join(f"0+1e{k - 3}i" for k in range(7))
    assert run("stability", "3", "--digits", "60", f"--z={zs}") == 0
    out = capsys.readouterr().out.splitlines()[1:]
    assert len(out) == 7
    # spot check of the neutral-stability property on the axis
    for line in out:
        assert float(line.split()[-2]) <= 1 + 1e-30


def test_stability_bad_z():
    assert run("stability", "1", "--digits", "60", "--z", "zzz") == 1


@pytest.mark.parametrize("z", ["inf", "-inf", "nan", "1+infi"])
def test_stability_refuses_non_finite_z(z, capsys):
    assert run("stability", "1", "--digits", "60", f"--z={z}") == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_readme_command_lines_parse():
    # every example in the README's "Command line" block must parse
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines()
             if ln.startswith("aderdg ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command


def test_readme_library_example_runs(capsys):
    # the README's python block must run as printed
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Library example", 1)[1].split("```python", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2

import json
import os
import shlex

import mpmath as mp
import pytest

from aderdg.cli import CONFIG_DEFAULTS, build_parser, main
from aderdg.tableau import build_tableau, export_tableau
from aderdg.arith import make_context


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


def test_verify_rejects_degree_above_cap():
    assert run("verify", "30", "--digits", "120") == 1


def test_config_overrides_cap(tmp_path, monkeypatch):
    cfg = tmp_path / "site.cfg"
    cfg.write_text("n_cap = 2\n# comment\ndefault_digits = 60\n")
    monkeypatch.setenv("ADERDG_CONFIG", str(cfg))
    assert run("verify", "3") == 1       # cap lowered
    assert run("verify", "2") == 0       # default digits picked up


def test_config_rejects_garbage(tmp_path, monkeypatch):
    cfg = tmp_path / "site.cfg"
    cfg.write_text("nonsense_key = 5\n")
    monkeypatch.setenv("ADERDG_CONFIG", str(cfg))
    assert run("verify", "1") == 1


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
    assert run("stability", "3", "--digits", "60", "--axis", "imaginary",
               "--count", "7") == 0
    out = capsys.readouterr().out.splitlines()[1:]
    assert len(out) == 7
    # spot check of the neutral-stability property on the axis
    for line in out:
        assert float(line.split()[-2]) <= 1 + 1e-30


def test_stability_bad_z():
    assert run("stability", "1", "--digits", "60", "--z", "zzz") == 1


def test_readme_command_lines_parse():
    # every example in the README's "Command line" block must parse
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines()
             if ln.startswith("aderdg ")]
    assert len(lines) >= 5
    parser = build_parser(CONFIG_DEFAULTS)
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command

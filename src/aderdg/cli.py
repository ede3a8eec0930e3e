"""Command line front end.

Exit codes: 0 success, 1 usage or configuration error, 2 a verification
check failed, 3 the stage solver failed, 4 an analysis could not be
completed (for example an error sitting at the roundoff floor).
"""

import argparse
import json
import sys

import mpmath as mp

from .analysis import (AnalysisError, SweepError, convergence_study,
                       format_order_table, format_raw_errors,
                       interface_identity_residual)
from .arith import MIN_DIGITS, ArithError, make_context
from .basis import FAMILIES, BasisError, eval_basis
from .problems import ProblemError, catalog_lookup
from .solver import SolverError, combine_basis, integrate
from .tableau import (ImportVerificationError, TableauError, build_q_m,
                      build_tableau, check_simplifying, export_tableau,
                      import_tableau, pade_exp, simplifying_residuals,
                      stability_function, verify_lemma21)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_SOLVER = 3
EXIT_ANALYSIS = 4

N_CAP = 24
DEFAULT_DIGITS = 120


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; that slot is taken by
    # verification failures here, so route usage problems through 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_list(text):
    try:
        vals = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"expected a comma separated integer list, got {text!r}")
    if not vals:
        raise UsageError("empty integer list")
    return vals


def _parse_z(text, ctx):
    # only a trailing i is the imaginary unit: "inf" stays infinity
    num = text.strip()
    if num.endswith("i"):
        num = num[:-1] + "j"
    with ctx.workdps(10):
        try:
            z = mp.mpmathify(num)
        except (ValueError, TypeError, AttributeError):
            raise UsageError(f"cannot parse {text!r} as a (complex) number")
    if not mp.isfinite(z):
        raise UsageError(f"--z point {text!r} is not finite")
    return z


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def build_parser():
    top = _Parser(prog="aderdg",
                  description="High order implicit time integration with "
                              "a DG predictor tableau.")
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                       help="working decimal digits (default %(default)s)")
        p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
        p.add_argument("--out", help="write the result to a file")

    p = sub.add_parser("tableau", help="build or re-check a tableau")
    p.add_argument("n", type=int, nargs="?", help="polynomial degree N")
    p.add_argument("--family", choices=FAMILIES,
                   help="node family (default gauss-legendre)")
    p.add_argument("--check", metavar="FILE",
                   help="import FILE, rebuild it at --digits and compare "
                        "every stored array, instead of building")
    common(p)

    p = sub.add_parser("verify",
                       help="machine check every tableau identity and bound")
    p.add_argument("n", type=int, help="polynomial degree N")
    p.add_argument("--family", choices=FAMILIES, default="gauss-legendre")
    common(p)

    p = sub.add_parser("solve", help="integrate a catalog problem")
    p.add_argument("problem",
                   help="harmonic | pendulum | dahlquist:<lam> | poly:<L>:<seed>")
    p.add_argument("--n", type=int, required=True, help="polynomial degree N")
    p.add_argument("--m", type=int, required=True, help="number of intervals")
    p.add_argument("--family", choices=FAMILIES, default="gauss-legendre")
    p.add_argument("--dense", type=int, default=0, metavar="K",
                   help="also print K interior samples per interval")
    p.add_argument("--jacobian", default="auto", choices=("auto", "picard"),
                   help="auto: Newton with the problem's analytic "
                        "Jacobian; picard: fixed-point iteration, no Jacobian")
    common(p)

    p = sub.add_parser("converge", help="run an (N, M) convergence sweep")
    p.add_argument("problem")
    p.add_argument("--n", required=True, metavar="LIST",
                   help="comma separated degrees, e.g. 2,3,4")
    p.add_argument("--m", required=True, metavar="LIST",
                   help="comma separated interval counts, e.g. 4,8,16")
    p.add_argument("--raw", action="store_true",
                   help="print the raw errors as well as the fitted orders")
    common(p)

    p = sub.add_parser("stability",
                       help="evaluate the stability function against its "
                            "rational reference")
    p.add_argument("n", type=int, help="polynomial degree N")
    p.add_argument("--z", metavar="LIST",
                   help="comma separated points, e.g. --z=-1e8,-1,2+3i "
                        "(a list led by '-' needs the '=')")
    common(p)

    return top


def _require_degree(n):
    if n is None:
        raise UsageError("a degree N is required")
    if n < 0:
        raise UsageError("degree must be nonnegative")
    if n > N_CAP:
        raise UsageError(f"degree N={n} above the cap {N_CAP}")


def cmd_tableau(args):
    ctx = make_context(args.digits)
    if args.check:
        if args.n is not None or args.family is not None:
            raise UsageError("--check takes its degree and family from FILE")
        if args.format != "table":
            raise UsageError("--check prints one line; --format does not apply")
        with open(args.check, "rb") as fh:
            doc = fh.read()
        try:
            tab = import_tableau(doc, ctx)
        except ImportVerificationError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        _emit(f"ok: degree {tab.n} {tab.family} tableau, "
              f"{tab.digits} stored digits", args.out)
        return EXIT_OK
    _require_degree(args.n)
    tab = build_tableau(args.n, args.family or "gauss-legendre", ctx)
    if args.format == "json":
        _emit(export_tableau(tab), args.out)
        return EXIT_OK
    b = tab.basis
    sep = "," if args.format == "csv" else "  "
    nd = min(ctx.decimal_digits, 30) if args.format == "table" else ctx.decimal_digits
    lines = [sep.join(["tau"] + [mp.nstr(t, nd) for t in b.tau]),
             sep.join(["w"] + [mp.nstr(x, nd) for x in b.w])]
    for p in range(tab.stages):
        lines.append(sep.join([f"a[{p}]"] + [mp.nstr(x, nd) for x in tab.a[p]]))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_verify(args):
    ctx = make_context(args.digits)
    _require_degree(args.n)
    n = args.n
    tab = build_tableau(n, args.family, ctx)
    tol = ctx.identity_tol
    checks = []

    res = verify_lemma21(tab, ctx)
    labels = ("mu kappa^-1 psi=w", "kappa^-1 psi=1", "row-sum kappa=psi",
              "col-sum a~ =w", "col-sum kappa=psi~", "trace kappa=|psi|^2")
    for lbl, r in zip(labels, res):
        checks.append((lbl, r, r <= tol))
    # interior-node quadrature is exact one degree further than Radau
    b_order = 2 * n + 2 if args.family == "gauss-legendre" else 2 * n + 1
    # C(N) is the max of the first N of the C(N+1) rows
    c_rows = simplifying_residuals(tab, "C", n + 1, ctx)
    cn1 = max(c_rows)
    for lbl, r in (
            (f"quadrature order B({b_order})",
             check_simplifying(tab, "B", b_order, ctx)),
            ("stage order C(N)", max(c_rows[:n], default=mp.mpf(0))),
            ("weighted stage order D(N)",
             check_simplifying(tab, "D", n, ctx) if n else mp.mpf(0))):
        checks.append((lbl, r, r <= tol))
    if args.family == "radau-right":
        checks.append(("stage order C(N+1)", cn1, cn1 <= tol))

    qm = build_q_m(tab, ctx)
    checks.append(("Q dyadic structure", qm.q_residual, qm.q_residual <= tol))
    checks.append(("M dyadic structure", qm.m_residual, qm.m_residual <= tol))

    # each R(z) row runs at the digits its check resolves: 1 + z w^T x
    # cancels ~8 of MIN_DIGITS + 10 at z = -1e8, leaving more than the 20
    # printed; the Pade row's rounding floor sits ~20 decades below its tol
    with ctx.workdps(10):
        r_inf = abs(stability_function(tab, -mp.mpf(10) ** 8,
                                       make_context(MIN_DIGITS)))
        damp_ok = r_inf <= mp.mpf(n + 1) / mp.mpf(10) ** 8
    checks.append(("stiff damping |R(-1e8)|", r_inf, bool(damp_ok)))
    if args.family == "gauss-legendre":
        d = ctx.decimal_digits
        pade_tol = mp.mpf(10) ** (-(d // 2))
        pade_ctx = make_context(max(MIN_DIGITS, d // 2 + 10))
        with ctx.workdps(10):
            dev = mp.mpf(0)
            # z = 1 is the pole of the N = 0 approximant 1/(1 - z)
            for z in (mp.mpf(1) / 2, mp.mpf(-2), mp.mpc(0, 3), mp.mpc(-1, 1)):
                rv = stability_function(tab, z, pade_ctx)
                pv = pade_exp(n, z, pade_ctx)
                dev = max(dev, abs(rv - pv) / abs(pv))
        checks.append(("R(z) matches subdiagonal Pade", dev, dev <= pade_tol))

    sep = "," if args.format == "csv" else "  "
    lines = []
    ok = True
    for lbl, val, passed in checks:
        ok = ok and passed
        lines.append(sep.join([lbl, mp.nstr(val, 5),
                               "pass" if passed else "FAIL"]))
    if args.family == "gauss-legendre":
        lines.append(sep.join(["stage order C(N+1) residual (expected > 0)",
                               mp.nstr(cn1, 5), "info"]))
    if args.format == "json":
        doc = {lbl: {"residual": mp.nstr(val, 20), "pass": passed}
               for lbl, val, passed in checks}
        _emit(json.dumps(doc, indent=1), args.out)
    else:
        _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_solve(args):
    ctx = make_context(args.digits)
    _require_degree(args.n)
    if args.m < 1:
        raise UsageError("interval count must be >= 1")
    if args.dense < 0:
        raise UsageError("--dense must be nonnegative")
    entry = catalog_lookup(args.problem)
    tab = build_tableau(args.n, args.family, ctx)
    traj = integrate(tab, entry.problem, args.m, ctx,
                     picard=args.jacobian == "picard")

    nd = ctx.decimal_digits
    rows = []
    with ctx.workdps(10):
        def add(t, u, kind):
            row = {"t": mp.nstr(t, nd), "kind": kind,
                   "u": [mp.nstr(x, nd) for x in u]}
            if entry.problem.exact is not None:
                ex = entry.problem.exact(t)
                row["error"] = mp.nstr(
                    max(abs(a - b) for a, b in zip(u, ex)), 5)
            rows.append(row)

        add(traj.times[0], traj.values[0], "node")
        taus = [mp.mpf(j) / (args.dense + 1) for j in range(1, args.dense + 1)]
        dense = [(tj, eval_basis(tab.basis.tau, tab.basis.lam, tj)) for tj in taus]
        for i, loc in enumerate(traj.locals):
            for tj, vals in dense:
                add(loc.t_n + loc.dt_n * tj, combine_basis(vals, loc.qhat), "dense")
            add(traj.times[i + 1], traj.values[i + 1], "node")
        seam = interface_identity_residual(traj, ctx)

    if args.format == "json":
        _emit(json.dumps({"rows": rows,
                          "interface_residual": mp.nstr(seam, 5)}, indent=1),
              args.out)
    else:
        sep = "," if args.format == "csv" else "  "
        lines = [sep.join([r["t"], r["kind"]] + r["u"]
                          + ([r["error"]] if "error" in r else []))
                 for r in rows]
        lines.append(f"interface residual {mp.nstr(seam, 5)}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_converge(args):
    ctx = make_context(args.digits)
    n_values = _int_list(args.n)
    m_values = _int_list(args.m)
    for n in n_values:
        _require_degree(n)
    entry = catalog_lookup(args.problem)
    table = convergence_study(entry, n_values, m_values, ctx)
    if args.format == "json":
        doc = {"orders": {str(n): {k: (v if isinstance(v, int)
                                       else mp.nstr(v, 8))
                                   for k, v in table.orders[n].items()}
                          for n in table.n_values}}
        if args.raw:
            doc["errors"] = {f"{n},{m}": {k: mp.nstr(v, 12)
                                          for k, v in rep.errors.items()}
                             for (n, m), rep in sorted(table.reports.items())}
        _emit(json.dumps(doc, indent=1), args.out)
    else:
        text = format_order_table(table, args.format)
        if args.raw:
            text += "\n\n" + format_raw_errors(table, args.format)
        _emit(text, args.out)
    return EXIT_OK


def cmd_stability(args):
    ctx = make_context(args.digits)
    _require_degree(args.n)
    tab = build_tableau(args.n, "gauss-legendre", ctx)
    with ctx.workdps(10):
        if args.z:
            zs = [_parse_z(s, ctx) for s in args.z.split(",") if s.strip()]
            if not zs:
                raise UsageError("empty --z list")
        else:
            # z = 1 is the pole of the N = 0 approximant 1/(1 - z)
            zs = [-mp.mpf(10) ** 8, -mp.mpf(10) ** 4, mp.mpf(-100),
                  mp.mpf(-10), mp.mpf(-1), mp.mpc(0, 1), mp.mpc(0, 10),
                  mp.mpc(-1, 1), mp.mpf(1) / 2]
        rows = []
        # the user's digits, unlike verify: it prints their rounding floor
        for z in zs:
            rv = stability_function(tab, z, ctx)
            pv = pade_exp(tab.n, z, ctx)
            rows.append((mp.nstr(z, 8), mp.nstr(abs(rv), 10),
                         mp.nstr(abs(rv - pv) / abs(pv), 5)))
    if args.format == "json":
        _emit(json.dumps([{"z": a, "abs_R": b, "pade_rel_dev": c}
                          for a, b, c in rows], indent=1), args.out)
    else:
        sep = "," if args.format == "csv" else "  "
        header = sep.join(("z", "abs_R", "pade_rel_dev"))
        _emit("\n".join([header] + [sep.join(r) for r in rows]), args.out)
    return EXIT_OK


COMMANDS = {"tableau": cmd_tableau, "verify": cmd_verify, "solve": cmd_solve,
            "converge": cmd_converge, "stability": cmd_stability}


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return COMMANDS[args.command](args)
    except (UsageError, ArithError, ProblemError, SweepError, OSError,
            BasisError) as exc:
        # a basis's conditioning refusals and root failures are
        # configuration issues too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TableauError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AnalysisError as exc:
        print(f"analysis aborted: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""aderdg benchmark: CLI workloads timed end to end, plus a traced pass.

Usage, from the repository root:

    python3 bench/run.py --workload solve --seed 0 --seconds 42 --trace 0
    python3 bench/run.py --workload all       # every workload in BENCHMARK.json
    python3 bench/run.py --write-golden      # at a commit whose outputs are right

A run repeats passes of one workload until --seconds is used up.  Each pass
is a fresh interpreter (bench/child.py) that imports aderdg.cli from src/
and runs the workload's commands through `aderdg.cli.main` one after the
other in one thread: a closed loop with one client.  Every output is
checked (bench/checks.py against bench/golden.json).  With --trace 0 the
run reports the end-to-end metrics as medians over its passes, each time
scaled to the reference machine's speed by the starts of an interpreter
that imports only mpmath, taken next to it (`reference_start`); with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of bench/tracer.py, plus trace.overhead.  The last line
of stdout is one JSON object; the full record, with the environment stamp,
goes to bench/out/.  Workload choices and known defects: bench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, HERE)

import mpmath as mp  # noqa: E402

import checks  # noqa: E402

DEFAULT_SEED = 0
DIGITS = "500"
# import-only interpreters of an untraced run, each followed by a reference
# start, after a warm-up: some at the start of the run and some after each
# pass, so the samples span the whole run
SETUP_SAMPLES, SETUP_PER_PASS = 4, 2
RUN_LIMIT = 170       # seconds; a run is killed and fails past this
# start of a fresh interpreter that imports mpmath on the quiet reference
# machine (2 vCPUs, Python 3.11.7, mpmath 1.3.0 pure Python); a run scales
# its times to it (`reference_start`)
REF_START_S = 0.05

# per-command wall time, summed over the commands of each group in a pass
GROUPS = {"verify": "verify_s", "tableau_export": "tableau_io_s",
          "tableau_check": "tableau_io_s", "solve_newton": "solve_newton_s",
          "solve_stiff": "solve_stiff_s", "solve_picard": "solve_picard_s"}


def load_spec():
    """BENCHMARK.json: the listed workloads and the metrics a run reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class BenchError(RuntimeError):
    pass


# -- workloads --------------------------------------------------------------
# Each builder returns the pass's (label, argv) commands and the Dahlquist
# lambda (None when the workload has no Dahlquist solve).  The label names
# the golden entry and, before the first ':', the timing group.

def verify_tableau(rng, tmp):
    units = [[(f"verify:{fam}:{n}",
               ["verify", str(n), "--family", fam, "--digits", DIGITS,
                "--format", "json"])]
             for fam, n in ([("gauss-legendre", n) for n in (4, 8, 12)]
                            + [("radau-right", 6), ("radau-left", 6)])]
    for n in (8, 12):
        path = os.path.join(tmp, f"tableau-{n}.json")
        units.append([(f"tableau_export:{n}",
                       ["tableau", str(n), "--format", "json", "--out", path]),
                      (f"tableau_check:{n}", ["tableau", "--check", path])])
    rng.shuffle(units)
    return [cmd for unit in units for cmd in unit], None


def solve(rng, tmp):
    # log-uniform in [-1e8, -1e2], rounded to an integer: the CLI parses the
    # parameter at double precision (bench/NOTES.md, known defects)
    lam_text = str(-round(10 ** rng.uniform(2, 8)))
    cmds = [("solve_newton",
             ["solve", "pendulum", "--n", "8", "--m", "16", "--dense", "4",
              "--digits", DIGITS, "--format", "json"]),
            ("solve_stiff",
             ["solve", f"dahlquist:{lam_text}", "--n", "8", "--m", "128",
              "--digits", DIGITS]),
            ("solve_picard",
             ["solve", "pendulum", "--n", "8", "--m", "64", "--jacobian",
              "picard", "--digits", "60"])]
    rng.shuffle(cmds)
    return cmds, lam_text


def converge(problem, n_lists, m_sweep, digits):
    """One `converge` command per N list; orders are fitted per N, so a
    sweep split by N gives the same rows as the combined sweep."""
    def build(rng, tmp):
        return [(f"converge:{problem}:{n_list}",
                 ["converge", problem, "--n", n_list, "--m", m_sweep,
                  "--digits", digits, "--raw", "--format", "json"])
                for n_list in n_lists], None
    return build


# converge-pendulum is runnable by hand but not listed in BENCHMARK.json:
# one pass (~56 s, ~75 s traced) does not fit the per-run time budget, and
# its oracle needs the full sweep up to M=18 with every N at once
# (bench/NOTES.md).
WORKLOADS = {"verify-tableau": verify_tableau, "solve": solve,
             "converge-harmonic": converge("harmonic", ("2", "4"), "4,6,8",
                                           DIGITS),
             "converge-pendulum": converge("pendulum", ("2,4",),
                                           "4,6,8,10,12,14,16,18", "120")}


# -- output checks ----------------------------------------------------------

class Checker:
    """Checks one command's output; counts attempted and failed checks."""

    def __init__(self, golden, lam):
        self.golden = golden
        self.lam = lam
        self.reference = checks.PendulumReference()
        self.attempted = self.failed = 0
        self.failures = []

    def count(self, label, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{label}: {failed} of {attempted} checks failed")

    def summary(self, label, argv, res):
        """The golden-comparable summary of one output (None: no golden)."""
        group = label.split(":")[0]
        out = res["stdout"]
        if group == "verify":
            return checks.summarize_verify(out)
        if group == "tableau_export":
            with open(argv[-1]) as fh:
                doc = json.load(fh)
            return {"n": doc["n"], "family": doc["family"],
                    "digits": doc["digits"], "stages": len(doc["a"])}
        if group == "tableau_check":
            return {"stdout": out.strip()}
        if group in ("solve_newton", "solve_picard"):
            if group == "solve_newton":
                rows = [(r["t"], r["kind"], *r["u"])
                        for r in json.loads(out)["rows"]]
            else:
                rows = checks.parse_table_rows(out)
            return checks.summarize_pendulum(rows, self.reference)
        if group == "converge":
            return checks.summarize_converge(out)
        return None

    def check(self, label, argv, res):
        if res["rc"] != 0:
            self.count(label, 1, 1)
            return
        self.count(label, 1, 0)
        try:
            if label == "solve_stiff":
                n, m, digits = (int(argv[argv.index(k) + 1])
                                for k in ("--n", "--m", "--digits"))
                rows = checks.parse_table_rows(res["stdout"])
                self.count(label, *checks.check_dahlquist(
                    rows, self.lam, n, m, digits))
                return
            got = self.summary(label, argv, res)
            if label.startswith("verify:"):
                self.count(label, len(got["labels"]), len(got["failed"]))
            want = self.golden.get(label)
            if want is None:
                self.count(label + " (no golden)", 1, 1)
            else:
                self.count(label, *checks.compare(got, want))
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            self.count(f"{label} ({type(exc).__name__}: {exc})", 1, 1)


# -- passes -----------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("ADERDG_CONFIG", None)      # site overrides would change the CLI
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, spec=None, deadline=None):
    t_spawn = time.monotonic()
    timeout = None if deadline is None else max(1.0, deadline - t_spawn)
    try:
        proc = subprocess.run([sys.executable, CHILD, ROOT] + args,
                              input="" if spec is None else json.dumps(spec),
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT} s")
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout)
    doc["setup_s"] = doc["ready"] - t_spawn
    doc["wall_s"] = wall
    return doc


def run_pass(commands, checker, deadline, trace=False, spans_out=None):
    doc = spawn([], {"commands": commands, "trace": trace,
                     "spans_out": spans_out}, deadline)
    for res in doc["commands"]:
        checker.check(res["label"], res["argv"], res)
    doc["groups"] = {}
    for res in doc["commands"]:
        metric = GROUPS.get(res["label"].split(":")[0])
        if metric:
            doc["groups"][metric] = (doc["groups"].get(metric, 0.0)
                                     + res["t1"] - res["t0"])
    doc["command_s"] = {res["label"]: res["t1"] - res["t0"]
                        for res in doc["commands"]}
    return doc


def reference_start():
    """Seconds from spawning a fresh interpreter until it has imported
    mpmath.  It runs no aderdg code, so no change to the program moves it;
    it gauges how fast the machine is during the run (bench/NOTES.md)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import time, mpmath; print(repr(time.monotonic()))"],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            timeout=60)
    except subprocess.TimeoutExpired:
        raise BenchError("reference start took over 60 s")
    if proc.returncode != 0:
        raise BenchError(f"reference start exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return float(proc.stdout) - t_spawn


def layer_metrics(traced, untraced, declared):
    """Per-layer metrics: counts and ratios from the first traced pass
    (they repeat exactly), times as medians over the traced passes."""
    def value(summary, name):
        stats, ratios = summary["stats"], summary["ratios"]
        if name in ratios:
            return ratios[name]
        base, _, kind = name.rpartition(".")
        s = stats.get(base, {"calls": 0, "total_ns": 0, "self_ns": 0})
        return {"calls": s["calls"], "self_s": s["self_ns"] / 1e9,
                "s": s["total_ns"] / 1e9}[kind]

    metrics = {}
    for m in declared:
        name = m["name"]
        if name == "trace.overhead":     # each traced pass vs the one before
            val = statistics.median(t["run_s"] / u["run_s"] for t, u
                                    in zip(traced, untraced)) - 1
        elif m["unit"] == "s":
            val = statistics.median(value(d["trace"], name) for d in traced)
        else:
            val = value(traced[0]["trace"], name)
        metrics[name] = {"value": val, "unit": m["unit"]}
    return metrics


def repeat_check(traced, checker):
    """Counts and ratios must repeat exactly between traced passes."""
    def counts(summary):
        return ({k: v["calls"] for k, v in summary["stats"].items()},
                summary["ratios"])
    first = counts(traced[0]["trace"])
    for doc in traced[1:]:
        checker.count("trace counts repeat", 1,
                      int(counts(doc["trace"]) != first))


# -- environment stamp ------------------------------------------------------

def environment():
    src = os.path.join(ROOT, "src", "aderdg")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if (top.returncode == 0
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"python": platform.python_version(), "mpmath": mp.__version__,
            "mpmath_backend": mp.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()}


# -- main -------------------------------------------------------------------

def measure(spec, workload, seed, seconds, trace):
    """One run of one workload; prints its summary, writes its record and
    returns (attempted, failed, metrics)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "aderdg", "cli.py")):
        raise BenchError(f"no aderdg sources under {ROOT}/src")
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    commands, lam = WORKLOADS[workload](random.Random(seed), tmp)
    checker = Checker(golden, lam)

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT
    spawn(["--setup-only"], None, deadline)     # warm-up: byte-compile
    setups = []
    untraced, traced = [], []
    spans_out = os.path.join(OUT, f"spans-{workload}.csv")

    ref_starts = []
    speeds = []     # per untraced pass, from the reference starts next to it

    def sample_starts(count):
        for _ in range(count):
            setups.append(spawn(["--setup-only"], None, deadline)["setup_s"])
            ref_starts.append(reference_start())

    if not trace:
        sample_starts(SETUP_SAMPLES)
    while True:     # one more iteration only if it is predicted to fit
        t_iter = time.monotonic()
        untraced.append(run_pass(commands, checker, deadline))
        if trace:
            traced.append(run_pass(commands, checker, deadline, True,
                                   spans_out))
        else:
            sample_starts(SETUP_PER_PASS)
            # the median of the two reference starts before the pass and
            # the two after it: a single start can meet a stall of its own
            speeds.append(REF_START_S / statistics.median(ref_starts[-4:]))
        now = time.monotonic()
        if now - t_start + (now - t_iter) > seconds:
            break

    extra = {}
    if trace:
        repeat_check(traced, checker)
        metrics = layer_metrics(traced, untraced, spec["per_layer"])
    else:
        # times at the reference machine's speed: a sample that met a slow
        # machine is scaled down by as much as the reference starts next to
        # it slowed; each import-only interpreter is paired with the
        # reference start that follows it
        values = {"setup_s": statistics.median(
                      s * REF_START_S / r for s, r in zip(setups, ref_starts)),
                  "run_s": statistics.median(
                      d["run_s"] * f for d, f in zip(untraced, speeds)),
                  "peak_rss_mib": statistics.median(
                      d["peak_rss_kib"] / 1024 for d in untraced)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name in sorted({m for d in untraced for m in d["groups"]}):
            extra[name] = {"value": statistics.median(
                d["groups"][name] * f for d, f in zip(untraced, speeds)),
                "unit": "s"}
        extra["speed"] = {"value": statistics.median(speeds), "unit": "ratio"}
        extra["run_wall_s"] = {"value": statistics.median(
            d["run_s"] for d in untraced), "unit": "s"}
        extra["setup_wall_s"] = {"value": statistics.median(setups),
                                 "unit": "s"}
    samples = {"setup_s": len(setups), "passes": len(untraced),
               "traced_passes": len(traced)}
    fail_frac = checker.failed / checker.attempted

    for name, m in list(metrics.items()) + list(extra.items()):
        n = len(traced) if trace else (
            len(setups) if name.startswith("setup") else len(untraced))
        print(f"{workload:18s} {name:40s} {m['value']:.6g} {m['unit']} "
              f"(median, n={n})")
    print(f"{workload:18s} {'fail_frac':40s} {fail_frac:.6g} ratio "
          f"({checker.failed}/{checker.attempted} checks)")
    for line in checker.failures:
        print("FAILED", line)

    env = environment()
    print(f"{workload:18s} environment {json.dumps(env)}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "lambda": lam, "environment": env,
              "metrics": metrics, "command_groups": extra, "samples": samples,
              "fail_frac": fail_frac, "failures": checker.failures,
              "setup_samples": setups, "reference_start_samples": ref_starts,
              "speeds": speeds,
              "passes": [{k: d[k] for k in ("run_s", "setup_s", "peak_rss_kib",
                                            "groups", "command_s", "wall_s")}
                         for d in untraced],
              "traced": [{"run_s": d["run_s"], "trace": d["trace"]}
                         for d in traced]}
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{workload:18s} record {os.path.relpath(path, ROOT)}")
    return checker.attempted, checker.failed, metrics


def write_golden():
    """Capture the golden summaries: one pass of every workload, seed 0."""
    if os.path.exists(GOLDEN):
        raise BenchError(f"{GOLDEN} exists; remove it first on purpose")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    golden = {}
    for name, build in WORKLOADS.items():
        commands, lam = build(random.Random(DEFAULT_SEED), tmp)
        checker = Checker({}, lam)
        doc = spawn([], {"commands": commands})
        for res in doc["commands"]:
            if res["rc"] != 0:
                raise BenchError(f"{res['label']} exited {res['rc']}")
            got = checker.summary(res["label"], res["argv"], res)
            if got is not None:
                if got.get("failed"):
                    raise BenchError(f"{res['label']} failed {got['failed']}")
                golden[res["label"]] = got
        print(f"captured {name} in {doc['run_s']:.1f} s")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)


def print_result(attempted, failed, metrics):
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or 'all' listed in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="capture bench/golden.json from the current sources")
    args = p.parse_args()
    try:
        if args.write_golden:
            write_golden()
        elif args.workload is None:
            p.error("--workload is required")
        elif args.workload == "all":
            spec = load_spec()
            attempted = failed = 0
            metrics = {}
            for w in spec["workloads"]:
                a, f, m = measure(spec, w["name"], args.seed, args.seconds,
                                  args.trace)
                attempted, failed = attempted + a, failed + f
                metrics.update({f"{w['name']}.{k}": v for k, v in m.items()})
            print_result(attempted, failed, metrics)
        else:
            print_result(*measure(load_spec(), args.workload, args.seed,
                                  args.seconds, args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

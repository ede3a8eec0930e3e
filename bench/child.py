"""One benchmark pass, run in a fresh interpreter as a CLI user's run would be.

Usage: python3 bench/child.py ROOT [--setup-only]   (pass spec as JSON on stdin)

Imports aderdg.cli from ROOT/src, notes the monotonic time at which it is
ready (the parent subtracts its own spawn time to get setup_s), then runs
each command through `aderdg.cli.main(argv)` one after another in this
thread, capturing its stdout and stderr.  Prints one JSON document with
the ready time, per-command exit codes, outputs and wall times, and the
peak resident memory of this process.  With "trace" in the spec the
aderdg functions are wrapped by bench/tracer.py first and the per-layer
summary is added.
"""

import os
import sys
import time

ROOT = os.path.abspath(sys.argv[1])
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import aderdg.cli  # noqa: E402

READY = time.monotonic()

if not os.path.abspath(aderdg.cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"aderdg imported from {aderdg.cli.__file__}, not from {SRC}")

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_command(main, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception"
            err.write(traceback.format_exc())
    t1 = time.perf_counter()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "t0": t0, "t1": t1}


def peak_rss_kib():
    """Peak resident size of this program image.  ru_maxrss would also count
    the parent's resident size, which it carries over the spawn's exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    if "--setup-only" in sys.argv[2:]:
        print(json.dumps({"ready": READY}))
        return
    spec = json.load(sys.stdin)
    tracer = None
    entry = aderdg.cli.main
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for label, argv in spec["commands"]:
        fn = entry if tracer is None else tracer.wrap(entry, f"cli.{argv[0]}")
        res = run_command(fn, argv)
        res["label"] = label
        res["argv"] = argv
        results.append(res)
    doc = {"ready": READY, "commands": results,
           "run_s": results[-1]["t1"] - results[0]["t0"],
           "peak_rss_kib": peak_rss_kib()}
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.summary()
        if spec.get("spans_out"):
            tracer.write_spans(spec["spans_out"])
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()

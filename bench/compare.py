"""Compare two sets of benchmark records written by bench/run.py.

Usage, from the repository root:

    python3 bench/compare.py --base OLD/*.json --new NEW/*.json

Groups the records by workload and trace mode and prints, per metric, the
median of each side, the relative change, the base side's quartile spread
(as a share of its median) and, for end-to-end metrics, a verdict against
the bound in BENCHMARK.json: "worse" past the bound, "unresolved" when the
base spread is wider than the bound, "ok" otherwise.  Records with
different mpmath backends are never paired: a gmpy2 backend changes every
timing, so the script exits 2 instead.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAMP_KEYS = ("python", "mpmath", "nproc")


def load(paths):
    groups = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def spread(values):
    if len(values) < 4:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    envs = [r["environment"] for side in (base, new)
            for recs in side.values() for r in recs]
    backends = {e["mpmath_backend"] for e in envs}
    if len(backends) > 1:
        print(f"refusing to compare: mpmath backends differ {sorted(backends)}",
              file=sys.stderr)
        return 2
    for key in STAMP_KEYS:
        seen = {str(e[key]) for e in envs}
        if len(seen) > 1:
            print(f"warning: {key} differs between records: {sorted(seen)}")

    worse = False
    for group in sorted(set(base) & set(new)):
        workload, trace = group
        print(f"== {workload} (trace {trace}): {len(base[group])} base, "
              f"{len(new[group])} new records")
        for name, meta in declared.items():
            b = [r["metrics"][name]["value"] for r in base[group]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[group]
                 if name in r["metrics"]]
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = nm / bm - 1 if bm else 0.0
            if meta["better"] == "higher":
                change = -change
            sp = spread(b)
            verdict = ""
            if "bound" in meta:
                if sp is not None and sp > meta["bound"]:
                    verdict = "unresolved"
                elif change > meta["bound"]:
                    verdict, worse = "worse", True
                else:
                    verdict = "ok"
            sp_text = "n/a" if sp is None else f"{sp:.3f}"
            print(f"  {name:40s} base {bm:.6g} new {nm:.6g} {meta['unit']} "
                  f"worse-by {change:+.3f} spread {sp_text} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

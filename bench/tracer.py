"""Span tracer for the traced benchmark pass.

Wraps the public functions of the aderdg modules from outside the package,
by replacing module attributes, so nothing under src/ changes.  Each call
becomes a span (name, start, end, parent) kept in flat in-memory arrays;
`summary` turns them into the per-layer metrics and `write_spans` dumps
them as CSV once the pass is over.

Span names use the defining module, so `analysis.eval_local` (a name bound
by `from .solver import eval_local`) records as `solver.eval_local`.
Problem callables handed out by `catalog_lookup` record as `problems.rhs`,
`problems.jacobian` and `problems.reference` (the closed form `exact`);
the closure returned by `build_oracle_reference` is `problems.reference`
too.  Functions defined in `cli` are not wrapped: the runner opens one
`cli.<command>` span around each `main(argv)` call instead, so its self
time is argument parsing, formatting and output.
"""

import dataclasses
import functools
import importlib
import time
import types
from array import array

LAYERS = ("arith", "basis", "tableau", "linalg", "solver", "problems",
          "analysis", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.intervals = 0      # intervals seen by analysis.compute_errors
        self._stack = []
        self._patched = []

    def _id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, on_call=None, on_return=None):
        nid = self._id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            if on_call is not None:
                on_call(args)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            return result if on_return is None else on_return(result)

        return traced

    # -- installation ---------------------------------------------------

    def _count_intervals(self, args):
        self.intervals += len(args[0].locals)

    def _wrap_entry(self, entry):
        p = entry.problem
        changes = {"rhs": self.wrap(p.rhs, "problems.rhs")}
        if p.jacobian is not None:
            changes["jacobian"] = self.wrap(p.jacobian, "problems.jacobian")
        if p.exact is not None:
            changes["exact"] = self.wrap(p.exact, "problems.reference")
        return dataclasses.replace(
            entry, problem=dataclasses.replace(p, **changes))

    def _wrap_reference(self, reference):
        return self.wrap(reference, "problems.reference")

    def _hooks(self, name):
        if name == "analysis.compute_errors":
            return {"on_call": self._count_intervals}
        if name == "problems.catalog_lookup":
            return {"on_return": self._wrap_entry}
        if name == "problems.build_oracle_reference":
            return {"on_return": self._wrap_reference}
        return {}

    def install(self):
        """Replace every public aderdg function binding with a traced one."""
        for layer in LAYERS:
            mod = importlib.import_module("aderdg." + layer)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("aderdg.")
                        or obj.__module__ == "aderdg.cli"):
                    continue
                name = f"{obj.__module__[len('aderdg.'):]}.{obj.__name__}"
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, self.wrap(obj, name, **self._hooks(name)))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def summary(self):
        """Per-name calls, inclusive and self nanoseconds, plus the
        per-step and per-interval ratios of the per-layer metrics."""
        n = len(self.name_of)
        names, name_of, parent = self.names, self.name_of, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        stats = {}
        for i in range(n):
            s = stats.setdefault(names[name_of[i]], [0, 0, 0])
            s[0] += 1
            s[1] += dur[i]
            s[2] += dur[i] - child[i]

        nid = self._name_ids.get
        stages_id = nid("solver.solve_stages")
        errors_id = nid("analysis.compute_errors")
        in_errors = [False] * n     # parents precede children in the arrays
        under_stages = {}
        under_errors = {}
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            in_errors[i] = name_of[p] == errors_id or in_errors[p]
            key = names[name_of[i]]
            if name_of[p] == stages_id:
                under_stages[key] = under_stages.get(key, 0) + 1
            if in_errors[i]:
                under_errors[key] = under_errors.get(key, 0) + 1

        def calls(name):
            return stats.get(name, (0, 0, 0))[0]

        def ratio(num, den):
            return num / den if den else 0.0

        steps = calls("solver.step")
        ratios = {
            "solver.newton_iters_per_step":
                ratio(under_stages.get("linalg.lu_solve", 0), steps),
            "solver.lu_per_step":
                ratio(under_stages.get("linalg.lu_factor", 0), steps),
            "solver.rhs_per_step":
                ratio(under_stages.get("problems.rhs", 0), steps),
            "solver.jac_per_step":
                ratio(under_stages.get("problems.jacobian", 0), steps),
            "analysis.dense_evals_per_interval":
                ratio(under_errors.get("solver.eval_local", 0), self.intervals),
            "analysis.reference_evals_per_interval":
                ratio(under_errors.get("problems.reference", 0), self.intervals),
        }
        return {"spans": n, "intervals": self.intervals,
                "stats": {k: {"calls": c, "total_ns": t, "self_ns": s}
                          for k, (c, t, s) in sorted(stats.items())},
                "ratios": ratios}

    def write_spans(self, path):
        """CSV of every span: index, name, parent index, start and end ns."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("idx,name,parent,start_ns,end_ns\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i},{names[self.name_of[i]]},{self.parent[i]},"
                         f"{self.start[i]},{self.end[i]}\n")

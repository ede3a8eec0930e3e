"""Output checks for the benchmark's CLI commands.

Each `summarize_*` function turns one command's captured output into a
small JSON-able summary; bench/golden.json holds the summaries captured at
the seed commit, and `compare` counts how many of their entries a pass
reproduces.  The pendulum solve is checked against the closed form
phi(t) = 2 asin(k sn(K - t | k^2)), phi'(t) = -2k cn(K - t | k^2) with
k = sin(phi0/2), and the Dahlquist solve against the method's stability
function, the (N, N+1) Pade approximant of exp, so neither check trusts
the library it checks.
"""

import json

import mpmath as mp


def decade(x):
    """floor(log10(|x|)) of a number or its printed form; None for zero."""
    with mp.workdps(30):
        x = abs(mp.mpf(x))
        return None if x == 0 else int(mp.floor(mp.log10(x)))


def order4(text):
    """A fitted order at the 4 significant digits the order table prints."""
    with mp.workdps(30):
        return mp.nstr(mp.mpf(text), 4)


def parse_table_rows(stdout):
    """Rows of a `solve --format table` output, without the residual line."""
    lines = [ln.split() for ln in stdout.strip().splitlines()]
    return [ln for ln in lines if ln and ln[1] in ("node", "dense")]


class PendulumReference:
    """Closed-form pendulum solution, memoized by the printed time.

    60 digits are plenty: only the decades of errors of 1e-27 and above
    are compared.
    """

    dps = 60

    def __init__(self):
        self._cache = {}
        with mp.workdps(self.dps):
            self.k = mp.sin(mp.pi / 4)      # phi0 = pi/2
            self.m = self.k ** 2
            self.kk = mp.ellipk(self.m)

    def __call__(self, t_text):
        val = self._cache.get(t_text)
        if val is None:
            with mp.workdps(self.dps):
                u = self.kk - mp.mpf(t_text)
                sn = mp.ellipfun("sn", u, m=self.m)
                cn = mp.ellipfun("cn", u, m=self.m)
                val = (2 * mp.asin(self.k * sn), -2 * self.k * cn)
            self._cache[t_text] = val
        return val


def summarize_pendulum(rows, reference):
    """Max error decades against the closed form at nodes and dense points.

    rows: (t, kind, u0, u1) strings.
    """
    worst = {"node": mp.mpf(0), "dense": mp.mpf(0)}
    with mp.workdps(reference.dps):
        for t, kind, u0, u1 in rows:
            ref = reference(t)
            err = max(abs(mp.mpf(u0) - ref[0]), abs(mp.mpf(u1) - ref[1]))
            worst[kind] = max(worst[kind], err)
        return {"rows": len(rows), "node_decade": decade(worst["node"]),
                "dense_decade": decade(worst["dense"])}


def pade_exp(n_num, n_den, z):
    """(n_num, n_den) Pade approximant of exp at z, in closed form."""
    total = n_num + n_den
    num = mp.fsum(mp.factorial(total - j) * mp.factorial(n_num)
                  / (mp.factorial(j) * mp.factorial(n_num - j)) * z ** j
                  for j in range(n_num + 1))
    den = mp.fsum(mp.factorial(total - j) * mp.factorial(n_den)
                  / (mp.factorial(j) * mp.factorial(n_den - j)) * (-z) ** j
                  for j in range(n_den + 1))
    return num / den


def check_dahlquist(rows, lam, n, m, digits):
    """Failures among the node values u_i = R(lam dt)^i, R the (N, N+1) Pade
    approximant; each node counts as one check.  Returns (attempted, failed)."""
    failed = 0
    with mp.workdps(digits + 20):
        r = pade_exp(n, n + 1, mp.mpf(lam) / m)
        tol = mp.mpf(10) ** (-digits + 40)
        for i, row in enumerate(rows):
            expect = r ** i
            dev = abs(mp.mpf(row[2]) - expect)
            if row[1] != "node" or not dev <= tol * max(1, abs(expect)):
                failed += 1
    return len(rows), failed + (len(rows) != m + 1)


def summarize_verify(stdout):
    doc = json.loads(stdout)
    return {"labels": sorted(doc), "failed": sorted(k for k, v in doc.items()
                                                    if not v["pass"])}


def summarize_converge(stdout):
    doc = json.loads(stdout)
    return {"orders": {n: {k: (v if isinstance(v, int) else order4(v))
                           for k, v in row.items()}
                       for n, row in doc["orders"].items()},
            "error_decades": {cell: {k: decade(v) for k, v in errs.items()}
                              for cell, errs in doc["errors"].items()}}


def compare(got, want):
    """(attempted, failed) over the leaves of a golden summary."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return _leaves(want), _leaves(want)
        attempted = failed = 0
        for key, sub in want.items():
            a, f = compare(got.get(key), sub)
            attempted += a
            failed += f
        extra = len(set(got) - set(want))
        return attempted + extra, failed + extra
    return 1, int(got != want)


def _leaves(want):
    if isinstance(want, dict):
        return sum(_leaves(v) for v in want.values()) or 1
    return 1


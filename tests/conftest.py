import json

import mpmath as mp
import pytest

from aderdg import linalg
from aderdg.arith import make_context
from aderdg.tableau import build_tableau, export_tableau


def _trace_free_tampered(n, digits):
    """Exported Gauss tableau with kappa + E and a = (kappa + E)^{-1} mu.

    E = 0.01 (e0 - e1)(e2 - e3)^T has zero row sums, zero column sums and
    zero trace, so the row/column-sum identities of Lemma 2.1, the trace
    relation and kappa a = diag(w) all still hold for the stored arrays.
    """
    ctx = make_context(digits)
    tab = build_tableau(n, "gauss-legendre", ctx)
    doc = json.loads(export_tableau(tab))
    n1 = n + 1
    with mp.workdps(tab.basis.work_dps):
        kappa = [list(row) for row in tab.kappa]
        for p, sp in ((0, 1), (1, -1)):
            for q, sq in ((2, 1), (3, -1)):
                kappa[p][q] += mp.mpf("0.01") * sp * sq
        mu = [[tab.basis.w[p] if p == q else 0 for q in range(n1)]
              for p in range(n1)]
        a = linalg.solve_matrix(kappa, mu)
        doc["kappa"] = [[mp.nstr(x, digits + 2) for x in row] for row in kappa]
        doc["a"] = [[mp.nstr(x, digits + 2) for x in row] for row in a]
    return json.dumps(doc)


class Mpz:
    """An integer type that, like gmpy2.mpz, is not a subclass of int: its
    arithmetic returns Mpz, and int's own methods (int.__mul__) reject it.
    mpmath's gmpy2 backend gives mantissas of that kind."""
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = int(v)

    def __int__(self):
        return self.v
    __index__ = __int__

    def __bool__(self):
        return bool(self.v)

    def bit_length(self):
        return self.v.bit_length()


def _lifted(name, wrap):
    op = getattr(int, name)
    return lambda self, *other: wrap(op(self.v, *map(int, other)))


for _name in ("add", "radd", "sub", "rsub", "mul", "rmul", "floordiv",
              "lshift", "rshift", "neg", "abs"):
    setattr(Mpz, f"__{_name}__", _lifted(f"__{_name}__", Mpz))
for _name in ("eq", "lt", "le", "gt", "ge"):
    setattr(Mpz, f"__{_name}__", _lifted(f"__{_name}__", bool))


@pytest.fixture
def trace_free_tampered():
    return _trace_free_tampered

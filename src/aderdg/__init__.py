"""Arbitrary precision implicit time integration built on a nodal DG
predictor, with tableau generation, verification, dense output, and
convergence analysis."""

from .analysis import (ConvergenceTable, ErrorReport, ZeroErrorFloor,
                       compute_errors, convergence_study, fit_order)
from .arith import ArithError, PrecisionContext, make_context
from .basis import FAMILIES, BasisError, NodalBasis, make_basis
from .problems import (ProblemCatalogEntry, ProblemError, catalog_lookup,
                       dahlquist, harmonic_oscillator, pendulum,
                       polynomial_rhs)
from .solver import (OdeProblem, SolverError, StageSolveError, Trajectory,
                     eval_local, integrate, trajectory_eval)
from .tableau import (AderDgTableau, TableauError, build_q_m, build_tableau,
                      check_simplifying, export_tableau, import_tableau,
                      pade_exp, stability_function, verify_lemma21)

__version__ = "0.1.0"

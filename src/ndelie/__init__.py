"""Lie point symmetry toolkit for second-order linear neutral delay
differential equations."""

from .classify import (
    ClassificationResult, Generator, OmegaSolution, classify, omega_ode_solve,
)
from .equation import CoeffDescriptor, NdeSpec
from .detsys import (
    DeterminingSystem, determine, canonical_constraints, is_zero,
    reduce_ansatz,
)
from .flowverify import (
    finite_check, flow, infinitesimal_check, transform_solution,
)
from .ndesolve import Trajectory, integrate, residual
from .prolong import (
    InfinitesimalAnsatz, apply_operator, prolong_delayed, prolong_first,
    prolong_second, solved_rhs, total_derivative,
)
from .suite import build_scenarios, run_scenario, run_suite
from .symexpr import (
    Expr, collect, diff, eval_numeric, normalize, parse, render, shift,
    substitute,
)

__version__ = "0.1.0"

"""Safety index synthesis for control-affine systems with state-dependent
box control limits: Positivstellensatz-style refute-set certificates, a
multi-start eigenvalue-penalty feasibility solver, a QP safety filter, and
a navigation simulation harness.
"""

from .config import ConfigError, Problem, RunConfig, build_problem, default_unicycle_config
from .controller import Infeasible, SafeControlResult, nominal_control, safe_control
from .falsifier import Counterexample, FalsifierConfig, falsify
from .feasibility import (Certificate, DecisionLayout, SolverConfig, SolverFailure,
                          check_certificate, jacobi_eigh, solve)
from .index import (IndexParams, RelativeDegreeError, SafetyIndexFamily, build_chain,
                    worst_case_phidot)
from .poly import Polynomial, PolynomialParseError, VarId, VarKind, VarRegistry, parse_polynomial
from .refute import GramSpec, RefuteCase, build_gram, build_p0, enumerate_cases
from .sim import BatchReport, TaskConfig, TrialReport, run_batch, run_trial
from .system import InvertedBoundError, SymbolicSystem, system_from_dict, unicycle_model_dict

__version__ = "0.1.0"

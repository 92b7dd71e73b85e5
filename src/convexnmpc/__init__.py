"""Convex scenario reformulation of NMPC for input-affine systems.

Pipeline: validate the system class, exactly linearize with a linear
output, decompose the joint (state, input) constraints into convex stage
sets, compute terminal ingredients, prune the scenario tree offline, and
solve the per-scenario convex subproblems online.
"""
from .errors import (CatalogMismatchError, IllConditionedError,
                     InfeasibleStateError, InvalidOutputVectorError,
                     NoConvergenceError, NoFiniteDeterminationError,
                     NoPositiveLevelError, OutOfRangeError, PreconditionError,
                     RegionEmptyError, SchemaError, SignAmbiguousError,
                     ToolkitError, UncontrollableError)
from .geometry import Ellipsoid, Polytope
from .model import (EPS_G, Affine, PwaField, Quadratic, Sinusoid, SystemSpec,
                    dynamics_step, load_system, region_membership,
                    system_from_dict, system_to_dict, validate_assumption1)
from .linearize import (LinearizationData, bound_interval, build_linearization,
                        charpoly_coefficients, compute_output_vector, u_of_v,
                        v_of_u)
from .stagesets import (StageSet, build_stage_sets, in_union_direct,
                        lemma1_forward, stage_membership)
from .terminal import (TerminalIngredients, build_terminal, dare_residual,
                       ellipsoidal_terminal, lqr_gain, maximal_admissible_set,
                       solve_dare, verify_terminal_axioms)
from .scenario import (FeasibleCatalog, catalog_hash, decode, encode,
                       filter_for_state, prune_catalog)
from .solver import (ConvexProgram, Solution, SolverConfig, assemble, solve,
                     solve_feasibility)
from .closedloop import (GridTable, MpcStepResult, Trajectory, evaluate_ocp,
                         sample_grid, simulate)

__version__ = "0.1.0"

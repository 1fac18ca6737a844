"""Flows of Lipschitz horizontal vector fields on homogeneous groups.

Library layout: exact group arithmetic (`groups`), homogeneous gauges and
distances (`gauges`), left-invariant frames and horizontal fields
(`fields`), Cauchy-problem integration (`flow`), uniqueness monitors
(`uniqueness`) and the non-uniqueness exhibit (`counterexample`).  The
`horoflow` CLI drives the same operations from JSON configs.
"""

from .groups import (AlgebraValidationError, GradedAlgebra, algebra_from_json,
                     heisenberg, inverse, is_heisenberg)
from .gauges import (HomogeneousDistance, SmoothGauge, default_distance,
                     equivalence_constants, gauge_report, koranyi_distance,
                     koranyi_norm, smooth_gauge)
from .domain import Box
from .fields import (Derivation, HorizontalField, LeftInvariantField,
                     TestFunction, apply_derivation, compute_p, derivation_of,
                     evaluate_field, field_from_spec, horizontal_field,
                     horizontal_gradient, left_invariant_frame,
                     recover_coefficients)
from .flow import (CauchyProblem, IntegratorConfig, Trajectory, integrate,
                   residual, write_trajectory_csv)
from .uniqueness import (ConditionNotCertified, EquilibriumCondition,
                         InvolutiveModule, NotInvolutiveError, StabilityReport,
                         check_involutive, confinement_check, module_field,
                         reduced_solve, stability_monitor,
                         verify_equilibrium_condition)
from .counterexample import (EpsilonLadder, LadderSpec, MonitorViolation, UVSolution,
                             build_nonuniqueness_report, counterexample_field,
                             distance_to_axis, distance_to_axis_point,
                             nonuniqueness_report, reconstruct_trajectory,
                             run_epsilon_ladder, scaled_axis_distance,
                             solve_regularized, trivial_trajectory, uv_rhs)

__version__ = "0.1.0"

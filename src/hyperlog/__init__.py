"""Continuation of the quaternionic and octonionic logarithm along paths.

The package is organised bottom up:

- algebra: the quaternion/octonion product, exp/log, the branches of
  the argument and the logarithmic manifold charts, as functions over
  coefficient arrays
- pathkit: piecewise path descriptions, path algebra, adaptive sampling,
  JSON/CSV formats
- obstruction: contacts with the real axis and their classification
- companion: continuous unit direction fields, canonical forms, shadows
- lifting: continuous logarithms along paths
- winding: signatures, twistedness, winding numbers of loops
- corpus: named example paths with known behaviour
- cli: command line front end
"""

from .algebra import basis, branch_argument, embed, project_log
from .companion import Shadow, canonical_form, shadow_of, unit_field
from .corpus import DemoCase, demo, demo_names
from .lifting import (
    LiftResult,
    LogLift,
    lift_path,
    terminal_branch,
    verify_lift,
)
from .obstruction import (
    AxisInterval,
    Contact,
    ObstructionReport,
    RealRun,
    classify_interval,
    classify_point,
    find_obstructions,
    obstruct_path,
    one_sided_direction,
)
from .pathkit import (
    PathSpec,
    SampledPath,
    concat,
    path_from_json,
    path_to_json,
    reflect_negconj,
    repeat,
    reverse,
    rotate_basepoint,
    sample_adaptive,
    sample_uniform,
    subpath,
)
from .winding import (
    WindingResult,
    analyze_loop,
    branch_change_report,
    c_homotopy_equivalent,
    circular_signature,
    closed_nontame_liftable,
    is_twisted,
    shadow_winding,
    signature,
    winding_number,
)

__version__ = "0.1.0"

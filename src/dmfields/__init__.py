"""Divergence-measure fields as weighted polygonal curves.

Curve fields, their Gauss-Green pairings and normal traces on polygonal
regions, the Arens-Eells transport norm on boundary functionals, a
constructive inverse of the trace with certified mass bounds, field
extension across domain boundaries, and exact plus numerical flow
decompositions.
"""

from .errors import (
    AtomOffBoundary,
    DegenerateGeometry,
    DimensionMismatch,
    Disconnected,
    DMFieldError,
    InfeasibleDelta,
    LeftGrid,
    LRCViolation,
    MalformedLift,
    MissingConstants,
    NonzeroNetFlux,
    NormBoundViolation,
    SupportTooLarge,
    TopologyViolation,
)
from .core import (
    AtomicMeasure,
    CurveField,
    PolyCurve,
    dist,
    field_divergence,
    field_mass,
    pair_vector,
)
from .lipfun import (
    Clamp,
    Const,
    DistTo,
    Linear,
    LipFunc,
    Max,
    Min,
    Neg,
    Scale,
    Sum,
    Wave,
    lip_bound,
    weakstar_sequence,
)
from .regions import (
    PolyRegion,
    box_region,
    clip_field,
    crossings,
    half_plane,
    normal_trace,
    pairing_over_set,
    product_rule_residual,
    setwise_probe,
)
from .aespace import (
    AEElement,
    BASE,
    DipoleRep,
    ae_norm,
    ae_norm_oracle,
    ae_pair,
    dual_check,
    rho,
)
from .domain import (
    PolygonalDomain,
    complement_region,
    domain_preset,
    koch_preset,
    net_boundary_dist,
    route,
    select_lambda,
    separation,
)
from .tracext import (
    LiftConfig,
    bound_constant,
    domain_trace,
    extend_divfree,
    extend_field,
    lift_config,
    lift_surject,
    two_sided_lift,
)
from .smirnov import (
    FlowGraph,
    GridField,
    flow_trace,
    graph_decompose,
    lift_solenoidal,
    mollify,
    project_curves,
    reconstruct_check,
    snap_to_graph,
    transport_invariant,
)

__version__ = "0.1.0"

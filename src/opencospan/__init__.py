"""Open systems as composable cospans, with mass-action semantics.

Finite sets with chosen colimits sit at the bottom; graphs, labeled
graphs, Petri nets (with or without rates) and polynomial vector fields
sit over them as decorations; cospans glue such systems end to end and
side by side; and rated open nets gray-box into simulable open
polynomial dynamics, which are cospans decorated by fields.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BoundaryError,
    BudgetExceeded,
    CoefficientOverflow,
    ComposabilityError,
    CompositionError,
    DimensionError,
    DivergenceError,
    FieldTooLarge,
    KindError,
    ModelFormatError,
    ModelValidationError,
    MorphismShapeError,
    NotInImageOfL,
    OpenCospanError,
    SimulationTooLarge,
    SpanError,
    UnsupportedGluing,
)
from .finset import (
    DEFAULT_ISO_BUDGET,
    EMPTY,
    FinFunction,
    FinSet,
    ISO_BUDGET_ENV,
    PushoutResult,
    compose,
    coproduct,
    coproduct_map,
    copair,
    find_iso,
    pushout,
)
from .systems import (
    DecorationTheory,
    Graph,
    LabeledGraph,
    Multiset,
    PetriNet,
    PetriNetWithRates,
    System,
    SystemMorphism,
    cells_of,
    compose_morphism,
    decoration_theory,
    discrete,
    interface_of,
    is_discrete,
    relabel,
    system_coproduct,
    system_pushout,
    validate_morphism,
)
from .cospans import (
    AdjointPair,
    Cospan,
    DecoratedCospan,
    IsoWitness,
    StructuredCospan,
    TwoMorphism,
    check_companion,
    check_conjoint,
    companion,
    conjoint,
    cospan_iso,
    hcompose,
    hcompose_cells,
    identity_cospan,
    left_unitor,
    match_cells,
    reverse,
    right_unitor,
    tensor,
    to_decorated,
    to_structured,
    unit_cell,
    vcompose,
)
from .dynamics import (
    FlowSchedule,
    OpenDynam,
    PiecewiseConstant,
    Poly,
    PolyVectorField,
    admits_morphism_from_empty,
    compose_open_dynam,
    field_close,
    graybox,
    mass_action,
    open_dynam_iso,
    open_rate_rhs,
    poly_add,
    poly_close,
    pushforward_field,
    rate_equation,
    simulate,
    simulate_rows,
)
from .modelio import (
    ModelFile,
    Names,
    SimConfig,
    canonical_json,
    csv_lines,
    default_names,
    load_model,
    load_sim_config,
    model_from_json,
    resolve_simulation,
    save_model,
    sim_config_from_json,
    trajectory_to_csv,
)

__version__ = "0.1.0"

# every public name imported above, stated once there: the submodules the
# imports bind in this namespace are not part of it
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

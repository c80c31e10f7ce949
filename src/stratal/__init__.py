"""stratal: exact intersection (co)homology of filtered simplicial
pseudomanifolds, with the weighted-cone L2 model formulas and a
finite-dimensional Hilbert-complex lab.

Everything is exact rational arithmetic; no floats enter any computation.
"""

from .complexes import (
    FilteredComplex,
    Stratum,
    barycentric_subdivide,
    build,
    check_orientation,
    cone,
    load,
    suspension,
    to_document,
)
from .errors import (
    ConfigurationError,
    ConstructionError,
    RealizabilityError,
    SpaceFormatError,
    StratalError,
    StructureError,
)
from .hilbert import (
    FiniteHilbertComplex,
    cohomology_dims,
    dual_complex,
    harmonic_dims,
    index_even_odd,
    kodaira_decompose,
    random_complex,
    validate,
)
from .intersection import (
    StratifiedChainComplex,
    allowable,
    duality_check,
    intersection_betti,
)
from .l2model import (
    ClosedManifold,
    Cone,
    Cylinder,
    L2Report,
    cone_max_cohomology,
    cone_report,
    cylinder_max_cohomology,
    eval_max,
    fredholm_indices,
    local_model_check,
    theorem_predictions,
)
from .perversity import (
    Perversity,
    bracket,
    compare,
    dual,
    hunsicker_shift_check,
    is_gm_perversity,
    middle_perversities,
    perversity_from_weights,
    top_perversity,
    weight_perversity,
    weights_from_perversity,
    zero_perversity,
)

__version__ = "0.1.0"

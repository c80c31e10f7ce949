"""stratal: exact intersection (co)homology of filtered simplicial
pseudomanifolds, with the weighted-cone L2 model formulas and a
finite-dimensional Hilbert-complex lab.

Everything is exact rational arithmetic; no floats enter any computation.

`import stratal` loads no layer: each exported name loads its defining
module on first access, so a program pays only for the layers it reads.
"""

from importlib import import_module as _import_module

__version__ = "0.9.0"

_LAZY = {
    **dict.fromkeys(("FilteredComplex", "Stratum", "barycentric_subdivide", "build",
                     "check_orientation", "cone", "load", "suspension", "to_document"),
                    "complexes"),
    **dict.fromkeys(("ConfigurationError", "ConstructionError", "RealizabilityError",
                     "SpaceFormatError", "StratalError", "StructureError"), "errors"),
    **dict.fromkeys(("FiniteHilbertComplex", "cohomology_dims", "dual_complex",
                     "harmonic_dims", "index_even_odd", "kodaira_decompose",
                     "random_complex", "validate"), "hilbert"),
    **dict.fromkeys(("StratifiedChainComplex", "duality_check", "intersection_betti"),
                    "intersection"),
    **dict.fromkeys(("ClosedManifold", "Cone", "L2Report", "cone_max_cohomology",
                     "cone_report", "eval_max", "fredholm_indices", "local_model_check",
                     "theorem_predictions"), "l2model"),
    **dict.fromkeys(("Perversity", "bracket", "dual", "hunsicker_shift_check",
                     "is_gm_perversity", "middle_perversities", "perversity_from_weights",
                     "top_perversity", "weight_perversity", "weights_from_perversity",
                     "zero_perversity"), "perversity"),
}


def __getattr__(name):
    # Nothing is cached in the package globals: each access reads the
    # module's current binding, so a function patched in its module (say, by a
    # profiler's wrapper) is seen here, and no copy outlives its removal.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})

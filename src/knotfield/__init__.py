"""Braid closures to real quadratic fields.

The pipeline: a braid word closes up to a link; the Artin action presents
the link group; a hyperbolic three-strand braid determines a unimodular
monodromy matrix, whose Perron-Frobenius eigenvalue generates a real
quadratic field with its prime splitting and ideal chains.  An exact
cluster-mutation engine backs the finite-type and Laurent-positivity checks
the construction rests on.
"""

from importlib import import_module as _import_module

# defining module -> the public names bound here and listed in __all__;
# every module is imported now, as the command line needs them all anyway
_EXPORTS = {
    "af": (
        "BratteliDiagram", "DimensionGroupDescriptor", "IncidenceMatrix", "PerronData", "QuadraticSurd",
        "dimension_group", "emit_dot", "perron", "stationary_diagram",
    ),
    "artin": ("GroupPresentation", "abelianization", "arc_presentation", "artin_rep", "link_group_presentation"),
    "braid": (
        "BraidWord", "Permutation", "closure_components", "free_reduce", "markov_conjugate", "parse_braid",
        "stabilize", "underlying_permutation",
    ),
    "cluster": (
        "ExchangeMatrix", "Seed", "SurfaceSpec", "enumerate_seeds", "initial_seed", "laurent_check",
        "mutate_matrix", "mutate_seed", "mutation_tree", "polygon_seed", "surface_seed",
    ),
    "freegroup": ("FreeAutomorphism", "FreeWord"),
    "invariant": (
        "FieldInvariant", "MonodromyMatrix", "field_of", "field_table", "monodromy", "two_generator_power_braid",
    ),
    "laurent": ("LaurentFraction", "Polynomial"),
    "numfield": (
        "FactoredIdeal", "PrimeIdealSymbol", "PrimeSplitting", "QuadraticField", "ideal_chain", "ideals_of_norm",
        "make_field", "split_prime", "square_free_part",
    ),
    "report": ("CorrespondenceReport", "correspondence_report"),
    "subgroups": ("SubgroupRecord", "low_index_subgroups"),
}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names]

globals().update(
    (name, getattr(_import_module(f".{module}", __name__), name))
    for module, names in _EXPORTS.items()
    for name in names
)

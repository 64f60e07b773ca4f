"""Braid closures to real quadratic fields.

The pipeline: a braid word closes up to a link; the Artin action presents
the link group; a hyperbolic three-strand braid determines a unimodular
monodromy matrix, whose Perron-Frobenius eigenvalue generates a real
quadratic field with its prime splitting and ideal chains.  An exact
cluster-mutation engine backs the finite-type and Laurent-positivity checks
the construction rests on.
"""

from .af import (
    BratteliDiagram,
    DimensionGroupDescriptor,
    IncidenceMatrix,
    PerronData,
    QuadraticSurd,
    dimension_group,
    emit_dot,
    perron,
    stationary_diagram,
)
from .artin import (
    GroupPresentation,
    abelianization,
    arc_presentation,
    artin_rep,
    link_group_presentation,
)
from .braid import (
    BraidWord,
    Permutation,
    closure_components,
    free_reduce,
    markov_conjugate,
    parse_braid,
    stabilize,
    underlying_permutation,
)
from .cluster import (
    ExchangeMatrix,
    Seed,
    SurfaceSpec,
    enumerate_seeds,
    initial_seed,
    laurent_check,
    mutate_matrix,
    mutate_seed,
    mutation_tree,
    polygon_seed,
    surface_seed,
)
from .freegroup import FreeAutomorphism, FreeWord
from .invariant import (
    FieldInvariant,
    MonodromyMatrix,
    field_of,
    field_table,
    monodromy,
    two_generator_power_braid,
)
from .laurent import LaurentFraction, Polynomial
from .numfield import (
    FactoredIdeal,
    PrimeIdealSymbol,
    PrimeSplitting,
    QuadraticField,
    contains,
    ideal_chain,
    ideals_of_norm,
    make_field,
    split_prime,
    square_free_part,
)
from .report import CorrespondenceReport, correspondence_report
from .subgroups import SubgroupRecord, low_index_subgroups

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "Permutation",
    "parse_braid",
    "free_reduce",
    "markov_conjugate",
    "stabilize",
    "underlying_permutation",
    "closure_components",
    "FreeWord",
    "FreeAutomorphism",
    "artin_rep",
    "GroupPresentation",
    "link_group_presentation",
    "arc_presentation",
    "abelianization",
    "SubgroupRecord",
    "low_index_subgroups",
    "Polynomial",
    "LaurentFraction",
    "ExchangeMatrix",
    "Seed",
    "SurfaceSpec",
    "initial_seed",
    "mutate_matrix",
    "mutate_seed",
    "laurent_check",
    "enumerate_seeds",
    "polygon_seed",
    "surface_seed",
    "mutation_tree",
    "IncidenceMatrix",
    "BratteliDiagram",
    "PerronData",
    "QuadraticSurd",
    "DimensionGroupDescriptor",
    "stationary_diagram",
    "perron",
    "dimension_group",
    "emit_dot",
    "QuadraticField",
    "PrimeSplitting",
    "PrimeIdealSymbol",
    "FactoredIdeal",
    "make_field",
    "square_free_part",
    "split_prime",
    "ideals_of_norm",
    "ideal_chain",
    "contains",
    "MonodromyMatrix",
    "FieldInvariant",
    "monodromy",
    "field_of",
    "two_generator_power_braid",
    "field_table",
    "CorrespondenceReport",
    "correspondence_report",
]

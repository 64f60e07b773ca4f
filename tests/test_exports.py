"""The package's public names: each listed once in ``__all__``, each bound
to the object its defining module holds, and every module imported with
the package."""

import os
import subprocess
import sys
import types
from pathlib import Path

import knotfield

PUBLIC = {
    "BratteliDiagram", "DimensionGroupDescriptor", "IncidenceMatrix", "PerronData", "QuadraticSurd",
    "dimension_group", "emit_dot", "perron", "stationary_diagram",
    "GroupPresentation", "abelianization", "arc_presentation", "artin_rep", "link_group_presentation",
    "BraidWord", "Permutation", "closure_components", "free_reduce", "markov_conjugate", "parse_braid",
    "stabilize", "underlying_permutation",
    "ExchangeMatrix", "Seed", "SurfaceSpec", "enumerate_seeds", "initial_seed", "laurent_check",
    "mutate_matrix", "mutate_seed", "mutation_tree", "polygon_seed", "surface_seed",
    "FreeAutomorphism", "FreeWord",
    "FieldInvariant", "MonodromyMatrix", "field_of", "field_table", "monodromy", "two_generator_power_braid",
    "LaurentFraction", "Polynomial",
    "FactoredIdeal", "PrimeIdealSymbol", "PrimeSplitting", "QuadraticField", "ideal_chain", "ideals_of_norm",
    "make_field", "split_prime", "square_free_part",
    "CorrespondenceReport", "correspondence_report",
    "SubgroupRecord", "low_index_subgroups",
}


def test_all_lists_each_public_name_once():
    assert len(PUBLIC) == 56
    assert len(knotfield.__all__) == len(set(knotfield.__all__))
    assert set(knotfield.__all__) == PUBLIC


def test_public_attributes_are_the_listed_names():
    public = {
        name for name, value in vars(knotfield).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC


def test_each_name_is_the_object_of_its_defining_module():
    for name in knotfield.__all__:
        value = getattr(knotfield, name)
        assert value.__module__ != "knotfield"
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_import_loads_every_module():
    package = Path(knotfield.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, knotfield; print(' '.join(sorted(m for m in sys.modules if m.startswith('knotfield.'))))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = {f"knotfield.{path.stem}" for path in package.glob("*.py")} - {
        "knotfield.__init__", "knotfield.__main__", "knotfield.cli"
    }
    assert set(loaded.stdout.split()) == modules

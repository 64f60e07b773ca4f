"""The frozen record classes, against the stdlib dataclasses they replace.

Every record class in the package gets one sample.  Its methods must agree
with a ``@dataclass(frozen=True)`` of the same name and fields: the same
repr text, the same hash (so set and dict order do not move), equality only
within the class, and no assignment or deletion.  Importing the package and
its command line must not load ``dataclasses`` at all.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotfield
from knotfield import _record, af, artin, braid, cli, cluster, freegroup, invariant, numfield, report, subgroups
from knotfield.errors import UnsupportedSurface

MODULES = (af, artin, braid, cli, cluster, freegroup, invariant, numfield, report, subgroups)
RECORD_CLASSES = sorted(
    (value for module in MODULES for value in vars(module).values()
     if isinstance(value, type) and value.__module__ == module.__name__ and value.__setattr__ is _record._frozen),
    key=lambda cls: cls.__name__,
)


def _samples():
    word = braid.BraidWord(3, (1, -2))
    matrix = af.IncidenceMatrix(((2, 1), (1, 1)))
    data = af.perron(matrix)
    field = numfield.make_field(5)
    presentation = artin.arc_presentation(word)
    rep = report.correspondence_report(word, 2)
    return [
        matrix, data.exact, data, af.dimension_group(matrix), af.stationary_diagram(matrix, 2),
        presentation, word, braid.underlying_permutation(word),
        cli.run(["field", "--pq", "1", "1"]), cluster.mutate_seed(cluster.surface_seed(cluster.SurfaceSpec(1, 1)), 1),
        cluster.ExchangeMatrix(((0, 1), (-1, 0))), cluster.SurfaceSpec(1, 1),
        freegroup.FreeWord.generator(2, 3, -2), artin.artin_rep(word), invariant.monodromy(word),
        rep.invariant, invariant.field_table([(1, 3)])[0], field, numfield.split_prime(field, 11),
        numfield.smallest_non_inert_prime(field), numfield.ideal_chain(field, 2)[-1], rep.rows[-1], rep,
        subgroups.low_index_subgroups(presentation, 2)[-1],
    ]


SAMPLES = {type(sample): sample for sample in _samples()}


def _public(cls):
    return [name for name in cls.__annotations__ if not name.startswith("_")]


def _dataclass_twin(record):
    """``record``'s values in a stdlib frozen dataclass of the same name and fields."""
    cls = type(record)
    spec = [
        (name, object, dataclasses.field(default=getattr(cls, name), init=False, repr=False, compare=False))
        if name.startswith("_") else (name, object)
        for name in cls.__annotations__
    ]
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    return twin(**{name: getattr(record, name) for name in _public(cls)})


def test_every_record_class_has_a_sample():
    assert len(RECORD_CLASSES) == 24
    assert set(SAMPLES) == set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_frozen(self, cls):
        record = SAMPLES[cls]
        for name in [*cls.__annotations__, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "extra")

    def test_matches_the_dataclass(self, cls):
        record, twin = SAMPLES[cls], _dataclass_twin(SAMPLES[cls])
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin) == hash(tuple(getattr(record, name) for name in _public(cls)))

    def test_equality_stays_in_the_class(self, cls):
        record = SAMPLES[cls]
        values = [getattr(record, name) for name in _public(cls)]
        assert record == cls(*values) == cls(**dict(zip(_public(cls), values)))
        assert not record != cls(*values)
        assert record != _dataclass_twin(record)
        assert record != tuple(values)
        other = next(sample for other_cls, sample in SAMPLES.items() if other_cls is not cls)
        assert record != other

    def test_constructor_arguments(self, cls):
        values = [getattr(SAMPLES[cls], name) for name in _public(cls)]
        first = _public(cls)[0]
        with pytest.raises(TypeError, match="missing"):
            cls()
        with pytest.raises(TypeError, match="arguments but"):
            cls(*values, None)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values, **{first: values[0]})
        with pytest.raises(TypeError, match="unexpected"):
            cls(*values, bogus=None)

    def test_dataclasses_functions_still_apply(self, cls):
        record = SAMPLES[cls]
        assert dataclasses.is_dataclass(record)
        assert [f.name for f in dataclasses.fields(record)] == list(cls.__annotations__)
        assert dataclasses.replace(record) == record


def test_seed_hides_its_markov_flag():
    flagged = SAMPLES[cluster.Seed]
    plain = cluster.Seed(flagged.variables, flagged.matrix)
    assert flagged._markov and not plain._markov
    assert flagged == plain and hash(flagged) == hash(plain)
    assert repr(flagged) == repr(plain) and "_markov" not in repr(flagged)
    assert not dataclasses.replace(flagged)._markov
    with pytest.raises(TypeError):
        cluster.Seed(flagged.variables, flagged.matrix, True)


def test_defaults_and_post_init_still_apply():
    presentation = artin.GroupPresentation(1, [freegroup.FreeWord.generator(1, 1)])
    assert presentation.branch_generators == 1 and isinstance(presentation.relators, tuple)
    with pytest.raises(UnsupportedSurface):
        cluster.SurfaceSpec(0, 1)
    with pytest.raises(ValueError, match="square"):
        cluster.ExchangeMatrix(((0, 1, 0), (-1, 0, 0)))
    with pytest.raises(ValueError, match="bijection"):
        braid.Permutation((1, 1))


def test_import_loads_no_dataclasses():
    src = str(Path(knotfield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; before = set(sys.modules); import knotfield, knotfield.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "knotfield.cli" in loaded.stdout.split()
    assert {"dataclasses", "inspect"}.isdisjoint(loaded.stdout.split())

import json

import pytest

from knotfield.braid import BraidWord
from knotfield.cli import run
from knotfield.errors import NonHyperbolic
from knotfield.numfield import ideals_of_norm, make_field
from knotfield.report import correspondence_report


def test_unknot_closure_rows():
    # closure of s1 s2^-1 is unknotted: the group is infinite cyclic with one
    # normal subgroup per index, and the field is Q(sqrt(5))
    report = correspondence_report(BraidWord(3, (1, -2)), 4)
    assert report.invariant.field.field_str() == "Q(sqrt(5))"
    assert [(r.index, r.normal_subgroups, r.ideals_of_norm) for r in report.rows] == [
        (1, 1, 1),
        (2, 1, 0),
        (3, 1, 0),
        (4, 1, 1),
    ]


def test_trefoil_like_closure_rows():
    # s1^3 s2^-1 closes to a trefoil; its group has one normal subgroup per
    # index here, and the field is Q(sqrt(21)) where 2 is inert and 3 ramifies
    report = correspondence_report(BraidWord(3, (1, 1, 1, -2)), 3)
    assert report.invariant.radicand == 21
    assert [(r.index, r.normal_subgroups, r.ideals_of_norm) for r in report.rows] == [
        (1, 1, 1),
        (2, 1, 0),
        (3, 1, 1),
    ]


def test_ideal_column_matches_field_counts():
    report = correspondence_report(BraidWord(3, (1, -2)), 4)
    field = make_field(5)
    for row in report.rows:
        assert row.ideals_of_norm == ideals_of_norm(field, row.index)


def test_non_hyperbolic_braid_rejected():
    with pytest.raises(NonHyperbolic):
        correspondence_report(BraidWord(3, ()), 4)


def test_json_shape():
    result = run(["--json", "report", "correspondence", "--braid", "1 -2", "--max-index", "2"])
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["field"] == "Q(sqrt(5))"
    assert payload["rows"][0] == {"index": 1, "normal_subgroups": 1, "ideals_of_norm": 1}


@pytest.mark.parametrize(
    "text, max_index, rows",
    [
        (
            "1 -2 1 -2",
            8,
            [(1, 1, 1), (2, 1, 0), (3, 1, 0), (4, 1, 1), (5, 1, 1), (6, 1, 0), (7, 1, 0), (8, 1, 0)],
        ),
        (
            "1 1 1 -2",
            8,
            [(1, 1, 1), (2, 1, 0), (3, 1, 1), (4, 1, 1), (5, 1, 2), (6, 2, 0), (7, 1, 1), (8, 1, 0)],
        ),
        ("1 1 -2 -2", 6, [(1, 1, 1), (2, 7, 1), (3, 13, 0), (4, 35, 1), (5, 31, 0), (6, 94, 0)]),
    ],
)
def test_pinned_rows(text, max_index, rows):
    report = correspondence_report(BraidWord(3, tuple(int(v) for v in text.split())), max_index)
    assert [(r.index, r.normal_subgroups, r.ideals_of_norm) for r in report.rows] == rows


def test_three_component_link_output():
    # `1 1 -2 -2` closes to a three-component link whose group has many
    # normal subgroups; the text and JSON output are pinned byte for byte
    argv = ["report", "correspondence", "--braid", "1 1 -2 -2", "--max-index", "6"]
    text = run(argv)
    assert (text.exit_code, text.stderr) == (0, "")
    assert text.stdout == (
        "field Q(sqrt(32))\n"
        "  m  normal subgroups  ideals of norm m\n"
        "  1                 1                 1\n"
        "  2                 7                 1\n"
        "  3                13                 0\n"
        "  4                35                 1\n"
        "  5                31                 0\n"
        "  6                94                 0\n"
    )
    payload = run(["--json", *argv])
    assert (payload.exit_code, payload.stderr) == (0, "")
    assert payload.stdout == (
        '{"field": "Q(sqrt(32))", "rows": ['
        '{"index": 1, "normal_subgroups": 1, "ideals_of_norm": 1}, '
        '{"index": 2, "normal_subgroups": 7, "ideals_of_norm": 1}, '
        '{"index": 3, "normal_subgroups": 13, "ideals_of_norm": 0}, '
        '{"index": 4, "normal_subgroups": 35, "ideals_of_norm": 1}, '
        '{"index": 5, "normal_subgroups": 31, "ideals_of_norm": 0}, '
        '{"index": 6, "normal_subgroups": 94, "ideals_of_norm": 0}]}\n'
    )

import json

import pytest

from knotfield.cli import run


def out_json(argv):
    result = run(argv)
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)


class TestFieldCommand:
    def test_pq_json(self):
        payload = out_json(["field", "--pq", "1", "1", "--json"])
        assert payload == {"radicand": 5, "D": 5, "field": "Q(sqrt(5))", "knot": True}

    def test_braid_json(self):
        payload = out_json(["field", "--braid", "1 -2", "--json"])
        assert payload["radicand"] == 5

    def test_square_free_row(self):
        payload = out_json(["field", "--pq", "3", "7", "--json"])
        assert payload == {"radicand": 525, "D": 21, "field": "Q(sqrt(525))", "knot": True}

    def test_text_mode(self):
        result = run(["field", "--pq", "1", "1"])
        assert result.exit_code == 0
        assert "Q(sqrt(5))" in result.stdout

    def test_non_hyperbolic_exit_code(self):
        result = run(["field", "--braid", "1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("NonHyperbolic:")

    def test_requires_a_source(self):
        assert run(["field"]).exit_code == 1

    def test_wrong_strand_count(self):
        result = run(["--strands", "4", "field", "--braid", "1 3"])
        assert result.exit_code == 2
        assert result.stderr.startswith("WrongStrandCount:")


class TestBraidCommand:
    def test_components(self):
        result = run(["--strands", "2", "braid", "components", "1 1 1"])
        assert result.exit_code == 0
        assert result.stdout.strip() == "1"

    def test_normalize_json(self):
        payload = out_json(["--strands", "3", "--json", "braid", "normalize", "1 -2 2 -1 1"])
        assert payload == {"strands": 3, "letters": [1]}

    def test_normalize_json_of_reduced_word(self):
        payload = out_json(["--json", "braid", "normalize", "1 -2"])
        assert payload == {"strands": 3, "letters": [1, -2]}

    def test_generator_out_of_range_is_domain_error(self):
        result = run(["--strands", "3", "braid", "components", "3"])
        assert result.exit_code == 2
        assert result.stderr.startswith("GeneratorOutOfRange:")

    def test_malformed_token(self):
        result = run(["--strands", "3", "braid", "components", "nope"])
        assert result.exit_code == 2
        assert result.stderr.startswith("MalformedToken:")


class TestLinkgroupCommand:
    def test_present_text(self):
        result = run(["--strands", "2", "linkgroup", "present", "1 1 1"])
        assert result.exit_code == 0
        assert result.stdout.startswith("⟨x1, x2 |")

    def test_present_json(self):
        # s1 sends x1 -> x1 x2 x1^-1 and x2 -> x1; relators are x_i^-1 s1(x_i)
        payload = out_json(["--strands", "2", "--json", "linkgroup", "present", "1"])
        assert payload == {"rank": 2, "relators": [[[2, 1], [1, -1]], [[2, -1], [1, 1]]]}

    def test_present_json_figure_eight(self):
        # the images of s1 then s2^-1: x1 -> x1 x3 x1^-1, x2 -> x1, x3 -> x3^-1 x2 x3
        payload = out_json(["--json", "linkgroup", "present", "1 -2"])
        assert payload == {
            "rank": 3,
            "relators": [[[3, 1], [1, -1]], [[2, -1], [1, 1]], [[3, -2], [2, 1], [3, 1]]],
        }

    def test_present_cancelling_word(self):
        # (1 -2)^11 alone passes the relator limit; the whole word reduces to nothing
        word = " ".join(["1 -2"] * 11 + ["2 -1"] * 11)
        result = run(["linkgroup", "present", word])
        assert (result.exit_code, result.stdout.strip()) == (0, "⟨x1, x2, x3 |⟩")

    def test_abelianize(self):
        payload = out_json(["--strands", "2", "--json", "linkgroup", "abelianize", "1 1 1"])
        assert payload == {"free_rank": 1, "torsion": []}

    def test_subgroups(self):
        payload = out_json(
            ["--strands", "3", "--json", "linkgroup", "subgroups", "1 -2", "--max-index", "3"]
        )
        assert [entry["index"] for entry in payload] == [1, 2, 3]
        assert all(entry["normal"] for entry in payload)


class TestClusterCommand:
    def test_enumerate_polygon(self):
        payload = out_json(["--json", "cluster", "enumerate", "--polygon", "6"])
        assert payload == {"seeds": 14, "finite": True}

    def test_enumerate_torus_default(self):
        payload = out_json(["--json", "cluster", "enumerate", "--max", "100"])
        assert payload == {"seeds": 100, "finite": False}

    def test_mutate(self):
        payload = out_json(["--json", "cluster", "mutate", "--dirs", "1", "--polygon", "5"])
        assert payload["vars"] == ["(x2+1)/x1", "x2"]

    def test_tree_dot(self):
        result = run(["--dot", "cluster", "tree", "--depth", "2"])
        assert result.exit_code == 0
        assert result.stdout.startswith("digraph")

    def test_tree_levels(self):
        payload = out_json(["--json", "cluster", "tree", "--depth", "2"])
        assert payload["levels"] == [1, 3, 7]

    def test_laurent_check_deterministic(self):
        argv = ["--json", "--seed", "7", "cluster", "laurent-check", "--trials", "40", "--depth", "5"]
        first = run(argv)
        second = run(argv)
        assert first.exit_code == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["ok"] is True

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--json", "cluster", "laurent-check", "--trials", "-5"], "--trials"),
            (["cluster", "laurent-check", "--depth", "0"], "--depth"),
        ],
    )
    def test_laurent_check_rejects_bad_counts(self, argv, flag):
        result = run(argv)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith(f"usage error: {flag} ")

    def test_unsupported_surface(self):
        result = run(["cluster", "enumerate", "--surface", "2", "0"])
        assert result.exit_code == 2
        assert result.stderr.startswith("UnsupportedSurface:")


class TestAfCommand:
    def test_perron_json(self):
        payload = out_json(["--json", "af", "perron", "--matrix", "2,1;1,1"])
        assert payload["size"] == 2
        assert payload["lambda"]["exact"] == "(3+sqrt(5))/2"
        assert payload["lambda"]["minpoly"] == [1, -3, 1]
        assert abs(payload["lambda"]["float"] - 2.618033988749895) < 1e-9

    def test_perron_json_plastic(self):
        # size 3 has no exact label; the float is the certified nearest one
        payload = out_json(["--json", "af", "perron", "--matrix", "0,1,0;0,0,1;1,1,0"])
        assert payload == {
            "size": 3,
            "matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]],
            "lambda": {"exact": None, "float": 1.324717957244746, "minpoly": [-1, -1, 0, 1]},
        }

    def test_bratteli_dot(self):
        result = run(["--dot", "af", "bratteli", "--matrix", "2,1;1,1", "--levels", "2"])
        assert result.exit_code == 0
        assert '[label="2"]' in result.stdout

    def test_not_primitive(self):
        result = run(["af", "perron", "--matrix", "2,0;0,3"])
        assert result.exit_code == 2
        assert result.stderr.startswith("NotPrimitive:")

    def test_perron_beyond_float_range(self):
        result = run(["af", "perron", "--matrix", str(10**309)])
        assert result.exit_code == 2
        assert result.stderr == "FloatOverflow: the Perron root is above the largest float, 1.7976931348623157e+308\n"

    def test_dead_vertex(self):
        result = run(["af", "bratteli", "--matrix", "1,0;1,0"])
        assert result.exit_code == 2
        assert result.stderr.startswith("DeadVertex:")


class TestTableCommand:
    def test_paper_rows_json(self):
        payload = out_json(
            ["--json", "table", "--pq-list", "1,1", "1,3", "1,7", "1,11", "1,13", "3,5", "3,7", "3,11"]
        )
        assert [row["radicand"] for row in payload] == [5, 21, 77, 165, 221, 285, 525, 1221]
        assert payload[6]["D"] == 21

    def test_text_table(self):
        result = run(["table", "--pq-list", "1,1"])
        assert result.exit_code == 0
        assert "Q(sqrt(5))" in result.stdout


class TestReportCommand:
    def test_correspondence(self):
        payload = out_json(["--json", "report", "correspondence", "--braid", "1 -2", "--max-index", "4"])
        assert payload["field"] == "Q(sqrt(5))"
        assert len(payload["rows"]) == 4

    def test_non_hyperbolic(self):
        result = run(["report", "correspondence", "--braid", "1 -1", "--max-index", "2"])
        assert result.exit_code == 2
        assert result.stderr.startswith("NonHyperbolic:")


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]).exit_code == 1

    def test_missing_required(self):
        assert run(["cluster", "mutate"]).exit_code == 1

    def test_no_args(self):
        assert run([]).exit_code == 1

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["report", "correspondence", "--braid", "1 -2", "--max-index", "11"], "11"),
            (["--json", "linkgroup", "subgroups", "1 -2", "--max-index", "11"], "11"),
            (["linkgroup", "subgroups", "1 -2", "--max-index", "0"], "0"),
        ],
    )
    def test_max_index_out_of_range(self, argv, value):
        # the text of subgroups.check_max_index, which both commands call
        result = run(argv)
        assert result.exit_code == 1
        assert result.stdout == ""
        if value == "0":
            assert result.stderr == "usage error: max_index must be at least 1\n"
        else:
            assert result.stderr == f"usage error: max_index {value} exceeds the desk-scale cap 10\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cluster", "enumerate", "--max", "0"], "--max must be at least 1, got 0"),
            (["cluster", "tree", "--depth", "-1"], "--depth must be nonnegative, got -1"),
            (["af", "bratteli", "--matrix", "2,1;1,1", "--levels", "0"], "--levels must be at least 1, got 0"),
        ],
    )
    def test_range_errors_name_the_flag(self, argv, message):
        result = run(argv)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"usage error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--pq", "1_0", "1"],
            ["af", "perron", "--matrix", "2,1_0;1,1"],
            ["cluster", "mutate", "--dirs", "1,٢"],
            ["af", "perron", "--matrix", "2,1 0;1,1"],
            ["table", "--pq-list", "1,1_0"],
            ["--seed", "٣", "field", "--pq", "1", "1"],
            ["cluster", "enumerate", "--polygon", "1_0"],
        ],
    )
    def test_integers_are_ascii_digits(self, argv):
        # int() reads "1_0" as 10 and any Unicode decimal digit; the CLI does not
        result = run(argv)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("usage error: ")

    def test_integers_take_a_sign_and_blanks(self):
        assert out_json(["field", "--pq", "+1", " 1", "--json"])["radicand"] == 5
        assert out_json(["--json", "af", "perron", "--matrix", " 2, 1; 1,+1 "])["matrix"] == [[2, 1], [1, 1]]
        assert out_json(["--json", "cluster", "mutate", "--dirs", "1, 2", "--polygon", "6"])["B"]

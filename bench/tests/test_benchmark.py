"""Tests of the benchmark itself: span arithmetic, oracles, deadline, smoke runs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from types import SimpleNamespace

import pytest

import knotfield as kf
from knotfield.errors import NotPrimitive
import oracles as o
import run as bench_run
import tracing
import worker
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def case_named(cases, prefix):
    return next(c for c in cases if c.name.startswith(prefix))


# --- spans ---------------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("b", 5.2, 5.5, 3),  # nested in a span of the same name
        ("d", 9.5, 10.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 0.7, 0.3, 0.5])
    assert tracing.busy_time(spans, "b") == pytest.approx(4.0)
    assert tracing.busy_time(spans, "a") == pytest.approx(10.0)


def test_tracer_records_nesting_and_errors():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("x.inner", lambda: None)
    outer = tracer.wrap("x.outer", lambda: inner())

    def fail():
        raise ValueError("planted")

    failing = tracer.wrap("x.fail", fail)
    outer()
    with pytest.raises(ValueError):
        failing()
    assert tracer.spans() == [("x.outer", 0.0, 3.0, -1), ("x.inner", 1.0, 2.0, 0), ("x.fail", 4.0, 5.0, -1)]
    assert tracing.self_times(tracer.spans()) == [2.0, 1.0, 1.0]
    assert tracer.errors == {"x.fail": 1}


def test_install_rebinds_every_import_site():
    code = (
        "import knotfield, knotfield.cli, tracing\n"
        "tracing.Tracer().install()\n"
        "from knotfield import cli, invariant, report\n"
        "names = [report.low_index_subgroups, report.field_of, report.ideals_of_norm,\n"
        "         invariant.make_field, invariant.closure_components, cli.correspondence_report,\n"
        "         cli.field_of, knotfield.mutate_seed, knotfield.cluster.mutate_seed,\n"
        "         knotfield.Polynomial.__mul__]\n"
        "assert all(hasattr(f, '__wrapped__') for f in names), names\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# --- oracles reject planted wrong answers -----------------------------------------


def test_perron_certificate():
    golden = ((2, 1), (1, 1))
    rho = (3 + math.sqrt(5)) / 2
    assert o.perron_float_problem(golden, rho) is None
    assert o.perron_float_problem(golden, rho + 1e-6) is not None
    assert o.perron_float_problem(golden, (3 - math.sqrt(5)) / 2) is not None  # a smaller root
    plastic = ((0, 1, 0), (0, 0, 1), (1, 1, 0))
    assert o.perron_float_problem(plastic, 1.324717957244746) is None
    assert o.perron_float_problem(plastic, 1.3333333333333333) is not None


def test_perron_case_rejects_a_wrong_float_and_surd():
    case = workloads._perron_case("t", ((2, 1), (1, 1)))
    data, group = case.run()
    assert case.check((data, group)) is None
    planted = dataclasses.replace(data, eigenvalue=data.eigenvalue + 1e-6)
    assert case.check((planted, group))[0] == "wrong_float"
    other = dataclasses.replace(data, exact=dataclasses.replace(data.exact, coeff=-1))
    assert case.check((other, group))[0] == "wrong"


def test_closure_checks_reject_non_catalan_counts_and_levels():
    cases = workloads.build("closure", 0, small=True)
    enum = case_named(cases, "enumerate:polygon6")
    assert enum.check((14, True)) is None
    assert enum.check((15, True))[0] == "wrong"
    assert enum.check((14, False))[0] == "wrong"
    tree = case_named(cases, "tree:torus-full")
    assert tree.check(tree.run()) is None
    assert tree.check(SimpleNamespace(level_sizes=(1, 3, 7, 16), edge_matrices=()))[0] == "wrong"


def test_torus_check_rejects_a_wrong_cluster_variable():
    case = workloads.build("torus-deep", 0, small=True)[0]
    seed = case.run()
    assert case.check(seed) is None
    v = list(seed.variables)
    v[0], v[1] = v[1], v[0]
    assert case.check(kf.Seed(tuple(v), seed.matrix))[0] == "wrong"
    doubled = kf.LaurentFraction(seed.variables[2].numerator * kf.Polynomial.constant(3, 2),
                                 seed.variables[2].denominator)
    assert case.check(kf.Seed(seed.variables[:2] + (doubled,), seed.matrix))[0] == "wrong"


def test_markov_invariant_holds_on_markov_triples():
    assert o.markov_invariant([1, 1, 1]) == 3  # a^2 + b^2 + c^2 = 3abc
    assert o.markov_invariant(o.markov_path_values([1, 1, 1], [1, 2, 3, 1])) == 3


def test_subgroup_check_rejects_planted_tables():
    cases = workloads.build("linkgroup", 0, small=True)
    case = case_named(cases, "subgroups:1 1 1 1 1")
    records = case.run()
    assert case.check(records) is None
    flipped = [dataclasses.replace(records[-1], is_normal=not records[-1].is_normal)]
    assert case.check(records[:-1] + flipped)[0] == "wrong"
    assert case.check(records[:-1])[0] == "wrong"  # a class missing
    bad = dataclasses.replace(records[1], coset_table=((1, 1, 0, 0), (0, 0, 1, 1)))
    assert case.check([records[0], bad] + records[2:])[0] == "wrong"


def test_coset_table_oracle():
    relators = o.link_group_relators([1, 1, 1], 2)  # trefoil
    assert relators
    sign = ((1, 1, 1, 1), (0, 0, 0, 0))  # both generators swap the two cosets
    assert o.coset_table_problem(((0, 0, 0, 0),), 2, relators) is None
    assert o.coset_table_problem(sign, 2, relators) is None
    assert o.is_normal(sign)
    assert "relator" in o.coset_table_problem(((1, 1, 0, 0), (0, 0, 1, 1)), 2, relators)
    assert "inverse" in o.coset_table_problem(((1, 0, 0, 0), (0, 1, 1, 1)), 2, relators)


def test_field_check_rejects_wrong_d_and_ideal_counts():
    case = workloads._pq_case(3, 7)
    inv, (splits, ideals, chain) = case.run()
    assert case.check((inv, (splits, ideals, chain))) is None
    wrong_field = dataclasses.replace(inv.field, square_free=inv.field.square_free * 4)
    assert case.check((dataclasses.replace(inv, field=wrong_field), (splits, ideals, chain)))[0] == "wrong"
    ideals = list(ideals)
    ideals[5] += 1
    assert case.check((inv, (splits, ideals, chain)))[0] == "wrong"


def test_number_theory_oracles():
    assert [o.catalan(m) for m in range(6)] == [1, 1, 2, 5, 14, 42]
    assert o.square_free_of(12, 18) == 6
    assert o.fundamental_discriminant(5) == 5 and o.fundamental_discriminant(3) == 12
    assert [o.kronecker(5, p) for p in (2, 3, 5, 11)] == [-1, -1, 0, 1]
    assert o.ideal_count(5, 4) == 1 and o.ideal_count(5, 11) == 2
    assert 5 * o.fibonacci(20) ** 2 == o.monodromy_trace((1, -2) * 10) ** 2 - 4
    assert o.component_count((1, 1, -2, -2), 3) == 3


# --- refusals, known defects, deadline --------------------------------------------


def test_refusals_count_only_when_the_oracle_expects_them():
    def refuse():
        raise NotPrimitive("planted")

    assert worker.run_case(workloads.Case("a", refuse, None, expect_error="NotPrimitive"), 5)[1] is None
    assert worker.run_case(workloads.Case("b", refuse, None), 5)[1] == "raised:NotPrimitive"
    assert worker.run_case(workloads.Case("c", lambda: 1, None, expect_error="NonHyperbolic"), 5)[1] == (
        "expected:NonHyperbolic"
    )


def test_fields_lists_the_roadmap_defects():
    cases = workloads.build("fields", 0)
    tags = {tag for c in cases for tag in c.known.values()}
    assert tags == {"3(a)", "3(b)", "3(c)", "3(d)"}
    refused = {c.name for c in cases if "raised:TooLargeToFactor" in c.known}
    assert refused == {f"field:(s1s2^-1)^{n}" for n in range(23, 31)}


def test_deadline_stops_a_hanging_case():
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        def hang():
            while True:
                pass

        seconds, kind, _ = worker.run_case(workloads.Case("hang", hang, None), 0.2)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert kind == "deadline" and seconds < 5


def test_every_workload_has_a_host_speed_reference():
    assert set(workloads.REFERENCE) == set(bench_run.WORKLOADS)
    for name in set(workloads.REFERENCE.values()):
        assert worker.reference_time(name) > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench_run.tail_percentile(15) == 100.0
    assert bench_run.tail_percentile(40) == 75
    assert bench_run.tail_percentile(200) == 95
    assert bench_run.percentile([1, 2, 3, 4, 5], 50) == 3


# --- whole runs -------------------------------------------------------------------


def run_bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_smoke_run_of_every_workload(tmp_path):
    out = tmp_path / "result.json"
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "1",
                     "--size", "small", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {f"{w}/{m}" for w in bench_run.WORKLOADS for m in tracing.UNITS}
    assert last["correct"] is True
    results = json.loads(out.read_text())["results"]
    for name, res in results.items():
        assert set(res["metrics"]) == set(bench_run.E2E_UNITS)
        assert all(v > 0 for v in res["metrics"].values()), name
        assert set(res["layers"]) == set(tracing.UNITS)
        if name != "fields":
            assert res["failed"] == 0, res["failures"]
    assert results["fields"]["failed"] > 0
    assert all(tag != "UNEXPECTED" for _, _, tag, _ in results["fields"]["failures"])
    for metric, exercising in tracing.EXERCISED.items():
        for name in exercising:
            assert results[name]["layers"][metric] > 0, (metric, name)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(bench_run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closure", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_compare_refuses_other_interpreter_versions(tmp_path):
    result = {"results": {"closure": {"metrics": {"job_s": 1.0}}}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({**result, "environment": {"implementation": "CPython", "version_info": [3, 11, 7]}}))
    b.write_text(json.dumps({**result, "environment": {"implementation": "CPython", "version_info": [3, 12, 1]}}))
    assert bench_run.main(["--compare", str(a), str(b)]) == 2
    assert bench_run.main(["--compare", str(a), str(a)]) == 0

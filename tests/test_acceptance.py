"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they happen.  Every tolerance and time budget is pinned here; the random
property runs use fixed seeds.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from knotfield.af import IncidenceMatrix, QuadraticSurd, perron
from knotfield.artin import abelianization, artin_rep, link_group_presentation
from knotfield.braid import BraidWord, closure_components, markov_conjugate
from knotfield.cli import run
from knotfield.cluster import (
    ExchangeMatrix,
    SurfaceSpec,
    enumerate_seeds,
    initial_seed,
    laurent_check,
    mutate_matrix,
    mutate_seed,
    polygon_seed,
    surface_seed,
)
from knotfield.freegroup import FreeWord
from knotfield.invariant import field_of, monodromy
from knotfield.numfield import ideal_chain, make_field, split_prime
from knotfield.subgroups import low_index_subgroups

TORUS_MATRIX = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def random_braid(rng, strands, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.randint(1, strands - 1)
        letters.append(g if rng.random() < 0.5 else -g)
    return BraidWord(strands, tuple(letters))


def trace_word(table, start, letters):
    """Follow a word through a complete coset table, whose column 2*(g-1)
    is generator g and column 2*(g-1)+1 its inverse."""
    coset = start
    for k in letters:
        coset = table[coset][2 * (abs(k) - 1) + (0 if k > 0 else 1)]
    return coset


def test_01_field_table_rows():
    with criterion("field table: eight closed-form radicands, square-free column, under 1s"):
        start = time.monotonic()
        result = run(
            ["--json", "table", "--pq-list", "1,1", "1,3", "1,7", "1,11", "1,13", "3,5", "3,7", "3,11"]
        )
        elapsed = time.monotonic() - start
        assert result.exit_code == 0
        rows = json.loads(result.stdout)
        assert [row["radicand"] for row in rows] == [5, 21, 77, 165, 221, 285, 525, 1221]
        assert [row["field"] for row in rows] == [
            "Q(sqrt(5))",
            "Q(sqrt(21))",
            "Q(sqrt(77))",
            "Q(sqrt(165))",
            "Q(sqrt(221))",
            "Q(sqrt(285))",
            "Q(sqrt(525))",
            "Q(sqrt(1221))",
        ]
        row_525 = rows[6]
        assert (row_525["radicand"], row_525["D"]) == (525, 21)
        assert elapsed < 1.0, f"table took {elapsed:.3f}s"


def test_02_monodromy_closed_form():
    with criterion("monodromy of s1^p s2^-q equals [[pq+1,p],[q,1]] for p,q up to 20"):
        checked = 0
        for p in range(1, 21):
            for q in range(1, 21):
                word = BraidWord(3, (1,) * p + (-2,) * q)
                assert monodromy(word).entries == ((p * q + 1, p), (q, 1))
                checked += 1
        assert checked == 400


def test_03_eigenvalue_closed_form():
    with criterion("spectral radius equals (pq+2+sqrt(pq(pq+4)))/2 exactly, float within 1e-10"):
        for p in range(1, 21):
            for q in range(1, 21):
                data = perron(IncidenceMatrix(((p * q + 1, p), (q, 1))))
                expected = QuadraticSurd.make(p * q + 2, 1, p * q * (p * q + 4), 2)
                assert data.exact == expected
                value = (p * q + 2 + math.sqrt(p * q * (p * q + 4))) / 2
                assert abs(data.eigenvalue - value) < 1e-10


def test_04_braid_relation_in_sl2():
    with criterion("s1 s2 s1 and s2 s1 s2 map to [[0,1],[-1,0]]"):
        left = monodromy(BraidWord(3, (1, 2, 1)))
        right = monodromy(BraidWord(3, (2, 1, 2)))
        assert left == right
        assert left.entries == ((0, 1), (-1, 0))


def test_05_artin_representation_laws():
    with criterion("braid and far-commutation laws on the free-group action, 500 product fixes, under 10s"):
        start = time.monotonic()
        for n in range(3, 7):
            for i in range(1, n - 1):
                assert artin_rep(BraidWord(n, (i, i + 1, i))) == artin_rep(
                    BraidWord(n, (i + 1, i, i + 1))
                )
        for n in range(4, 7):
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert artin_rep(BraidWord(n, (i, j))) == artin_rep(BraidWord(n, (j, i)))
        rng = random.Random(1005)
        for _ in range(500):
            n = rng.randint(2, 6)
            braid = random_braid(rng, n, 10)
            auto = artin_rep(braid)
            product = FreeWord.from_letters(n, list(range(1, n + 1)))
            assert auto.apply(product) == product
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"property suite took {elapsed:.3f}s"


def test_06_abelianization_rank_counts_components():
    with criterion("closure presentation abelianizes to free rank = component count, 500 braids"):
        rng = random.Random(1006)
        for _ in range(500):
            strands = rng.randint(2, 4)
            braid = random_braid(rng, strands, 10)
            free_rank, _ = abelianization(link_group_presentation(braid))
            assert free_rank == closure_components(braid)


def test_07_cluster_engine():
    with criterion("1000 seed involutions, matrix negation, 1000 Laurent sequences, under 60s"):
        start = time.monotonic()
        rng = random.Random(1007)
        for _ in range(1000):
            size = rng.randint(2, 5)
            rows = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    v = rng.randint(-3, 3)
                    rows[i][j], rows[j][i] = v, -v
            seed = initial_seed(ExchangeMatrix(tuple(tuple(r) for r in rows)))
            k = rng.randint(1, size)
            assert mutate_seed(mutate_seed(seed, k), k) == seed

        matrix = ExchangeMatrix(TORUS_MATRIX)
        negated = ExchangeMatrix(tuple(tuple(-v for v in row) for row in TORUS_MATRIX))
        for k in (1, 2, 3):
            assert mutate_matrix(matrix, k) == negated

        torus = surface_seed(SurfaceSpec(1, 1))
        pentagon = initial_seed(ExchangeMatrix(((0, 1), (-1, 0))))
        failures = 0
        for base in (torus, pentagon):
            for _ in range(500):
                depth = rng.randint(1, 8)
                directions = [rng.randint(1, base.rank) for _ in range(depth)]
                if not laurent_check(base, directions):
                    failures += 1
        assert failures == 0
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"cluster suite took {elapsed:.3f}s"


def test_08_finite_type_witnesses():
    with criterion("polygon closures count 2, 5, 14 seeds (triangulation oracle); torus seed is infinite"):
        for vertices, expected in ((4, 2), (5, 5), (6, 14)):
            assert _count_triangulations(vertices) == expected
            assert enumerate_seeds(polygon_seed(vertices), 64) == (expected, True)
        assert enumerate_seeds(surface_seed(SurfaceSpec(1, 1)), 100) == (100, False)


def _count_triangulations(n):
    diagonals = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if (j - i) % n not in (1, n - 1)
    ]

    def crosses(d1, d2):
        (a, b), (c, d) = sorted(d1), sorted(d2)
        return (a < c < b < d) or (c < a < d < b)

    found = set()

    def extend(chosen, remaining):
        if len(chosen) == n - 3:
            found.add(frozenset(chosen))
            return
        for idx, cand in enumerate(remaining):
            extend(chosen + [cand], [d for d in remaining[idx + 1 :] if not crosses(cand, d)])

    extend([], diagonals)
    return len(found)


def test_09_knot_prime_dichotomy():
    with criterion("length-1 chains are prime, longer chains are not; splitting matches the residue oracle"):
        for radicand in (5, 21, 77):
            field = make_field(radicand)
            for k in (1, 2, 3, 5):
                # one prime factor to the power k: a prime ideal exactly when k is 1
                [(_, exponent)] = ideal_chain(field, k)[0].factors
                assert exponent == k
        field = make_field(5)
        for p in range(3, 100):
            if not _is_prime_naive(p):
                continue
            squares = {(x * x) % p for x in range(1, p)}
            disc = field.discriminant
            if disc % p == 0:
                expected = "ramified"
            elif disc % p in squares:
                expected = "split"
            else:
                expected = "inert"
            assert split_prime(field, p).kind == expected
        assert split_prime(field, 2).kind == "inert"  # 5 is 5 mod 8


def _is_prime_naive(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_10_markov_invariance_of_field():
    with criterion("conjugation preserves the radicand on 500 random hyperbolic braids"):
        rng = random.Random(1010)
        checked = 0
        while checked < 500:
            braid = random_braid(rng, 3, 8)
            if abs(monodromy(braid).trace) <= 2:
                continue
            conjugator = random_braid(rng, 3, 5)
            moved = markov_conjugate(braid, conjugator)
            assert field_of(moved).radicand == field_of(braid).radicand
            checked += 1


def test_11_correspondence_report():
    with criterion("correspondence report lists verified subgroup counts beside ideal counts, under 30s"):
        start = time.monotonic()
        result = run(["--json", "report", "correspondence", "--braid", "1 -2", "--max-index", "4"])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["field"] == "Q(sqrt(5))"
        assert [row["index"] for row in payload["rows"]] == [1, 2, 3, 4]
        assert all("normal_subgroups" in row and "ideals_of_norm" in row for row in payload["rows"])

        # the records behind the counts satisfy their relators on every coset
        presentation = link_group_presentation(BraidWord(3, (1, -2)))
        for record in low_index_subgroups(presentation, 4):
            for relator in presentation.relators:
                for coset in range(record.index):
                    assert trace_word(record.coset_table, coset, relator.letters()) == coset
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"report took {elapsed:.3f}s"

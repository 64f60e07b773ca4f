"""Mutation engine: exchange matrices, seeds, enumeration, trees.

The finite-type counts are checked against an independent oracle that
enumerates the triangulations of a convex polygon as explicit diagonal
sets; the closure sizes must be the number of triangulations.  Enumeration
and mutation trees run on the integer extended exchange matrix [B; C] and
key seeds by their c-vectors, so they are also checked against a
polynomial oracle that mutates Laurent seeds and keys them by their
cluster variables, and the tropical duality B_t = C_t^T B_0 C_t that the
c-vector key rests on is checked on random mutation paths.
"""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotfield import cluster
from knotfield.cli import run
from knotfield.cluster import (
    ExchangeMatrix,
    _extended_start,
    _mutate_b,
    _mutate_seed_cached,
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
from knotfield.errors import (
    BudgetExceeded,
    DirectionOutOfRange,
    NonLaurentResult,
    TooSmall,
    UnsupportedSurface,
)
from knotfield.laurent import LaurentFraction

TORUS_MATRIX = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
A2_MATRIX = ((0, 1), (-1, 0))


# -- oracle: triangulations of a convex polygon --------------------------------


def _crosses(d1, d2):
    (a, b), (c, d) = sorted(d1), sorted(d2)
    return (a < c < b < d) or (c < a < d < b)


def polygon_triangulations(n):
    """All triangulations of the convex n-gon as frozensets of diagonals."""
    vertices = range(n)
    diagonals = [
        (i, j)
        for i, j in itertools.combinations(vertices, 2)
        if (j - i) % n not in (1, n - 1)
    ]
    need = n - 3
    found = set()

    def extend(chosen, remaining):
        if len(chosen) == need:
            found.add(frozenset(chosen))
            return
        for idx, cand in enumerate(remaining):
            compatible = [
                d for d in remaining[idx + 1 :] if not _crosses(cand, d)
            ]
            extend(chosen + [cand], compatible)

    extend([], diagonals)
    return found


def random_skew(rng, size, bound=3):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return ExchangeMatrix(tuple(tuple(r) for r in rows))


# -- oracle: closure and trees over Laurent seeds ---------------------------------


def _laurent_form(seed):
    """Seed up to relabelling: cluster variables in sorted order, and the
    matrix permuted by the same order (a seed never repeats a variable)."""
    keys = [(v.denominator, tuple(sorted(v.numerator.terms.items()))) for v in seed.variables]
    assert len(set(keys)) == len(keys)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rows = seed.matrix.rows
    return tuple(keys[i] for i in order), tuple(tuple(rows[i][j] for j in order) for i in order)


def laurent_closure(seed, max_seeds):
    seen = {_laurent_form(seed)}
    frontier = [seed]
    while frontier:
        next_frontier = []
        for current in frontier:
            for k in range(1, current.rank + 1):
                neighbour = mutate_seed(current, k)
                form = _laurent_form(neighbour)
                if form in seen:
                    continue
                if len(seen) >= max_seeds:
                    return max_seeds, False
                seen.add(form)
                next_frontier.append(neighbour)
        frontier = next_frontier
    return len(seen), True


def laurent_tree(seed, depth, prune_backtrack):
    """(level sizes, edge matrices) with exact seed dedup within levels."""
    current = [(seed, None)]
    sizes, matrices = [1], []
    for _ in range(depth):
        index, nxt, counts = {}, [], {}
        for pos, (node, arrived) in enumerate(current):
            for k in range(1, node.rank + 1):
                if prune_backtrack and arrived == k:
                    continue
                child = mutate_seed(node, k)
                if child not in index:
                    index[child] = len(nxt)
                    nxt.append((child, k))
                counts[pos, index[child]] = counts.get((pos, index[child]), 0) + 1
        matrices.append(
            tuple(tuple(counts.get((i, j), 0) for j in range(len(nxt))) for i in range(len(current)))
        )
        sizes.append(len(nxt))
        current = nxt
    return tuple(sizes), tuple(matrices)


def mutate_entrywise(rows, k):
    """Rows of [B; C] mutated at k (0-based) by the defining entry formula:
    a_ij -> -a_ij when i or j is k, else a_ij + (|a_ik| b_kj + a_ik |b_kj|) / 2."""
    pivot = rows[k]
    return tuple(
        tuple(
            -v if k in (i, j) else v + (abs(row[k]) * pivot[j] + row[k] * abs(pivot[j])) // 2
            for j, v in enumerate(row)
        )
        for i, row in enumerate(rows)
    )


def record_mutations(monkeypatch):
    """Route ``cluster._mutate_b`` through a recorder; the returned list
    gets the direction of every later call."""
    calls = []
    kernel = cluster._mutate_b
    monkeypatch.setattr(cluster, "_mutate_b", lambda rows, k: calls.append(k) or kernel(rows, k))
    return calls


def relabelled(seed, rng):
    rows = seed.matrix.rows
    perm = rng.sample(range(len(rows)), len(rows))
    return initial_seed(ExchangeMatrix(tuple(tuple(rows[i][j] for j in perm) for i in perm)))


# -- matrix mutation -------------------------------------------------------------


class TestMatrixMutation:
    def test_torus_matrix_negates_in_every_direction(self):
        matrix = ExchangeMatrix(TORUS_MATRIX)
        negated = ExchangeMatrix(tuple(tuple(-v for v in row) for row in TORUS_MATRIX))
        for k in (1, 2, 3):
            assert mutate_matrix(matrix, k) == negated

    def test_rank_two_sign_flip(self):
        assert mutate_matrix(ExchangeMatrix(A2_MATRIX), 1) == ExchangeMatrix(((0, -1), (1, 0)))

    def test_involution_and_skew_random(self):
        rng = random.Random(50)
        for _ in range(300):
            size = rng.randint(1, 6)
            matrix = random_skew(rng, size)
            k = rng.randint(1, size)
            mutated = mutate_matrix(matrix, k)
            ExchangeMatrix(mutated.rows)  # revalidates skew-symmetry
            assert mutate_matrix(mutated, k) == matrix

    def test_extended_kernel_matches_the_entry_rule(self):
        # rectangular [B; C]: a_ik = +-1 and |a_ik| >= 2 of both signs all
        # occur, and mutating twice at k restores the rows
        rng = random.Random(27)
        pivots = set()
        for _ in range(300):
            size = rng.randint(1, 6)
            b = random_skew(rng, size, bound=4).rows
            c = tuple(tuple(rng.randint(-4, 4) for _ in range(size)) for _ in range(rng.randint(0, 2 * size)))
            rows = b + c
            for k in range(size):
                pivots.update(row[k] for row in rows)
                mutated = _mutate_b(rows, k)
                assert mutated == mutate_entrywise(rows, k)
                assert _mutate_b(mutated, k) == rows
        assert {-4, -2, -1, 1, 2, 4} <= pivots

    def test_direction_out_of_range(self):
        with pytest.raises(DirectionOutOfRange):
            mutate_matrix(ExchangeMatrix(A2_MATRIX), 3)
        with pytest.raises(DirectionOutOfRange):
            mutate_matrix(ExchangeMatrix(A2_MATRIX), 0)

    def test_rejects_non_skew(self):
        for rows in (
            ((0, 1), (1, 0)),
            ((0, 1, 0), (-1, 2, 1), (0, -1, 0)),  # a nonzero diagonal entry
            ((0, 1, 0), (-1, 0, 1), (0, 1, 0)),  # an asymmetric pair below row 0
        ):
            with pytest.raises(ValueError, match="exchange matrix must be skew-symmetric"):
                ExchangeMatrix(rows)

    def test_integral_entries_are_converted(self):
        matrix = ExchangeMatrix(np.array(A2_MATRIX, dtype=np.int64))
        assert matrix.rows == A2_MATRIX
        assert {type(v) for row in matrix.rows for v in row} == {int}


# -- seed mutation ---------------------------------------------------------------


class TestSeedMutation:
    def test_rank_two_first_exchange(self):
        seed = initial_seed(ExchangeMatrix(A2_MATRIX))
        mutated = mutate_seed(seed, 1)
        assert mutated.variables[0].render() == "(x2+1)/x1"
        assert mutated.variables[1].render() == "x2"

    def test_torus_first_exchange(self):
        seed = surface_seed(SurfaceSpec(1, 1))
        mutated = mutate_seed(seed, 1)
        assert mutated.variables[0].render() == "(x2^2+x3^2)/x1"

    def test_involution_on_initial_seeds(self):
        rng = random.Random(51)
        for _ in range(200):
            size = rng.randint(2, 5)
            seed = initial_seed(random_skew(rng, size))
            k = rng.randint(1, size)
            assert mutate_seed(mutate_seed(seed, k), k) == seed

    def test_involution_deeper_in_the_tree(self):
        # wild quivers blow up quickly under iterated matrix mutation, so
        # the walk before the involution check is kept short and small
        rng = random.Random(52)
        for _ in range(60):
            size = rng.randint(2, 4)
            seed = initial_seed(random_skew(rng, size, bound=1))
            for _ in range(rng.randint(0, 1)):
                seed = mutate_seed(seed, rng.randint(1, size))
            k = rng.randint(1, size)
            assert mutate_seed(mutate_seed(seed, k), k) == seed

    def test_exchange_relation_value_identity(self):
        # x_k * x_k' equals the exchange binomial, checked by evaluation
        rng = random.Random(53)
        seed = surface_seed(SurfaceSpec(1, 1))
        for _ in range(4):
            k = rng.randint(1, 3)
            mutated = mutate_seed(seed, k)
            point = [Fraction(rng.randint(1, 5)) for _ in range(3)]
            column = seed.matrix.column(k)
            plus = Fraction(1)
            minus = Fraction(1)
            for i, b in enumerate(column, start=1):
                value = seed.variables[i - 1].evaluate(point)
                if b > 0:
                    plus *= value**b
                elif b < 0:
                    minus *= value ** (-b)
            left = seed.variables[k - 1].evaluate(point) * mutated.variables[k - 1].evaluate(point)
            assert left == plus + minus
            seed = mutated

    def test_positivity_of_numerators(self):
        # short walks only: numerator degrees roughly double per step away
        # from the initial seed
        rng = random.Random(54)
        for _ in range(8):
            seed = surface_seed(SurfaceSpec(1, 1))
            for _ in range(8):
                seed = mutate_seed(seed, rng.randint(1, 3))
                assert all(c > 0 for v in seed.variables for c in v.numerator.terms.values())

    def test_mutation_is_memoized(self):
        # the benchmark reads cache_info() of this memo
        seed = surface_seed(SurfaceSpec(1, 1))
        first = mutate_seed(seed, 2)
        hits = _mutate_seed_cached.cache_info().hits
        assert mutate_seed(seed, 2) is first
        assert _mutate_seed_cached.cache_info().hits == hits + 1
        # mutating back builds x2 anew: the memo finds the equal seed by
        # its hash, not by identity
        back = mutate_seed(first, 2)
        assert back == seed and back is not seed
        hits = _mutate_seed_cached.cache_info().hits
        assert mutate_seed(back, 2) is first
        assert _mutate_seed_cached.cache_info().hits == hits + 1

    def test_direction_validation(self):
        with pytest.raises(DirectionOutOfRange):
            mutate_seed(initial_seed(ExchangeMatrix(A2_MATRIX)), 5)

    def test_torus_markov_invariants_to_depth_nine(self):
        # (x1^2+x2^2+x3^2)/(x1*x2*x3) is invariant under torus mutation, so
        # its value at a fixed point never changes and every cluster at
        # (1,1,1) is a Markov triple a^2+b^2+c^2 = 3abc
        point = [Fraction(1, 2), Fraction(2, 3), Fraction(3)]
        ones = [Fraction(1)] * 3

        def markov_ratio(values):
            a, b, c = values
            return (a * a + b * b + c * c) / (a * b * c)

        seed = surface_seed(SurfaceSpec(1, 1))
        expected = markov_ratio(point)
        for step in range(9):
            seed = mutate_seed(seed, 1 + step % 3)
            assert markov_ratio([v.evaluate(ones) for v in seed.variables]) == 3
            assert markov_ratio([v.evaluate(point) for v in seed.variables]) == expected


class TestMarkovRoute:
    # seeds from the torus take x_k' = K x_i x_j - x_k; a Seed built
    # directly carries no flag and takes the exact division

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 3), max_size=8))
    @example(path=[1, 2, 3] * 3)
    def test_torus_paths_match_the_division_route(self, path):
        markov = surface_seed(SurfaceSpec(1, 1))
        divided = Seed(markov.variables, markov.matrix)
        for k in path:
            markov, divided = mutate_seed(markov, k), mutate_seed(divided, k)
            assert markov.variables == divided.variables and markov.matrix == divided.matrix
        assert markov._markov and not divided._markov

    def test_flag_comes_from_the_torus_matrix_only(self):
        negated = tuple(tuple(-v for v in row) for row in TORUS_MATRIX)
        assert initial_seed(ExchangeMatrix(TORUS_MATRIX))._markov
        assert initial_seed(ExchangeMatrix(negated))._markov
        assert not polygon_seed(6)._markov
        assert not initial_seed(ExchangeMatrix(((0, 1, -1), (-1, 0, 1), (1, -1, 0))))._markov
        with pytest.raises(TypeError):
            Seed(surface_seed(SurfaceSpec(1, 1)).variables, ExchangeMatrix(TORUS_MATRIX), _markov=True)

    def test_flag_is_invisible(self):
        flagged = mutate_seed(surface_seed(SurfaceSpec(1, 1)), 2)
        plain = Seed(flagged.variables, flagged.matrix)
        assert flagged._markov and not plain._markov
        assert flagged == plain
        assert hash(flagged) == hash(plain)
        assert repr(flagged) == repr(plain)

    def test_torus_matrix_alone_takes_the_division(self):
        # K x1 x2 - (x1 + x3) would be a Laurent polynomial, and a wrong one
        x1, x2, x3 = surface_seed(SurfaceSpec(1, 1)).variables
        seed = Seed((x1, x2, x1 + x3), ExchangeMatrix(TORUS_MATRIX))
        with pytest.raises(NonLaurentResult):
            mutate_seed(seed, 3)

    def test_laurent_check_divides_on_the_torus(self, monkeypatch):
        calls = []
        divide = LaurentFraction.divide_exact
        monkeypatch.setattr(LaurentFraction, "divide_exact", lambda a, b: calls.append(1) or divide(a, b))
        _mutate_seed_cached.cache_clear()
        seed = surface_seed(SurfaceSpec(1, 1))
        for k in (1, 2, 3):
            seed = mutate_seed(seed, k)
        assert not calls
        assert laurent_check(surface_seed(SurfaceSpec(1, 1)), [1, 2, 3])
        assert len(calls) == 3

    def test_operand_term_limit(self, monkeypatch):
        # after six steps of the path 1,2,3,... the largest variable has 169 terms
        monkeypatch.setattr(cluster, "MAX_OPERAND_TERMS", 100)
        _mutate_seed_cached.cache_clear()
        path = [1, 2, 3, 1, 2, 3, 1]
        message = "^exchange operand of 169 terms exceeds the limit of 100$"
        seed = surface_seed(SurfaceSpec(1, 1))
        for k in path[:-1]:
            seed = mutate_seed(seed, k)
        with pytest.raises(BudgetExceeded, match=message):
            mutate_seed(seed, path[-1])
        assert laurent_check(surface_seed(SurfaceSpec(1, 1)), path[:-1])
        with pytest.raises(BudgetExceeded, match=message):
            laurent_check(surface_seed(SurfaceSpec(1, 1)), path)


class TestLaurentCheck:
    def test_pentagon_sequence(self):
        seed = initial_seed(ExchangeMatrix(A2_MATRIX))
        assert laurent_check(seed, [1, 2, 1, 2, 1])

    def test_empty_sequence(self):
        assert laurent_check(initial_seed(ExchangeMatrix(A2_MATRIX)), [])

    def test_torus_random_sequences(self):
        rng = random.Random(55)
        seed = surface_seed(SurfaceSpec(1, 1))
        for _ in range(60):
            directions = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
            assert laurent_check(seed, directions)

    def test_pentagon_periodicity(self):
        # alternating mutations realize the pentagon recurrence: period ten
        seed = initial_seed(ExchangeMatrix(A2_MATRIX))
        current = seed
        for step in range(10):
            current = mutate_seed(current, 1 + step % 2)
        assert current == seed


class TestEnumeration:
    @pytest.mark.parametrize("vertices,expected", [(4, 2), (5, 5), (6, 14)])
    def test_polygon_counts_match_triangulations(self, vertices, expected):
        assert len(polygon_triangulations(vertices)) == expected
        assert enumerate_seeds(polygon_seed(vertices), 64) == (expected, True)

    @pytest.mark.parametrize("vertices", [7, 8, 9, 10])
    def test_larger_polygons_match_triangulations(self, vertices):
        expected = len(polygon_triangulations(vertices))
        assert enumerate_seeds(polygon_seed(vertices), 2000) == (expected, True)

    @pytest.mark.parametrize("vertices", [4, 5, 6, 7, 8, 9])
    def test_no_mutation_back_along_the_arrival_edge(self, vertices, monkeypatch):
        # the start seed mutates in every direction, every later seed in all
        # but the one it arrived by, which leads back to its parent
        seed = polygon_seed(vertices)  # initial_seed mutates once itself
        calls = record_mutations(monkeypatch)
        seeds, finite = enumerate_seeds(seed, 2000)
        rank = vertices - 3
        assert finite and len(calls) == rank + (seeds - 1) * (rank - 1)
        if vertices == 9:
            assert len(calls) == 2146

    def test_torus_seed_infinite(self):
        assert enumerate_seeds(surface_seed(SurfaceSpec(1, 1)), 100) == (100, False)

    def test_max_seeds_validation(self):
        with pytest.raises(ValueError):
            enumerate_seeds(polygon_seed(4), 0)

    def test_completion_exactly_at_bound(self):
        assert enumerate_seeds(polygon_seed(5), 5) == (5, True)
        assert enumerate_seeds(polygon_seed(5), 4) == (4, False)

    def test_entry_limit(self, monkeypatch):
        # rank 3: the 14 seeds of the hexagon count 14 * (9 + 100) = 1526 entries
        monkeypatch.setattr(cluster, "MAX_TREE_ENTRIES", 1526)
        assert enumerate_seeds(polygon_seed(6), 100) == (14, True)
        monkeypatch.setattr(cluster, "MAX_TREE_ENTRIES", 1525)
        assert enumerate_seeds(polygon_seed(6), 13) == (13, False)
        with pytest.raises(
            BudgetExceeded,
            match=r"14 seeds of rank 3 would count 1526 entries \(9 \+ 100 each\), above the limit of 1525",
        ):
            enumerate_seeds(polygon_seed(6), 100)


class TestAgainstLaurentOracle:
    @pytest.mark.parametrize("vertices", [4, 5, 6, 7, 8])
    def test_relabelled_polygons(self, vertices):
        rng = random.Random(56 + vertices)
        for _ in range(2):
            seed = relabelled(polygon_seed(vertices), rng)
            assert enumerate_seeds(seed, 10_000) == laurent_closure(seed, 10_000)

    @pytest.mark.parametrize("cap", [1, 5, 100, 300])
    def test_torus_caps(self, cap):
        seed = surface_seed(SurfaceSpec(1, 1))
        assert enumerate_seeds(seed, cap) == laurent_closure(seed, cap) == (cap, False)

    def test_d4(self):
        seed = initial_seed(ExchangeMatrix(((0, 1, 0, 0), (-1, 0, 1, 1), (0, -1, 0, 0), (0, -1, 0, 0))))
        assert enumerate_seeds(seed, 10_000) == laurent_closure(seed, 10_000) == (50, True)

    def test_kronecker(self):
        seed = initial_seed(ExchangeMatrix(((0, 2), (-2, 0))))
        assert enumerate_seeds(seed, 12) == laurent_closure(seed, 12) == (12, False)

    def test_mutated_start_seed(self):
        seed = polygon_seed(7)
        for k in (1, 3, 2):
            seed = mutate_seed(seed, k)
        assert enumerate_seeds(seed, 10_000) == laurent_closure(seed, 10_000) == (42, True)

    @pytest.mark.parametrize("vertices", [5, 6, 7])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_polygon_trees(self, vertices, pruned):
        seed = polygon_seed(vertices)
        diagram = mutation_tree(seed, 5, pruned)
        assert (diagram.level_sizes, diagram.edge_matrices) == laurent_tree(seed, 5, pruned)

    @pytest.mark.parametrize("pruned", [False, True])
    def test_torus_trees(self, pruned):
        seed = surface_seed(SurfaceSpec(1, 1))
        diagram = mutation_tree(seed, 6, pruned)
        assert (diagram.level_sizes, diagram.edge_matrices) == laurent_tree(seed, 6, pruned)

    def test_random_matrices(self):
        # 28 of the 40 are of infinite type, most with matrices of no case
        # above; |b| <= 2 keeps the Laurent oracle's operands small
        rng = random.Random(58)
        for trial in range(40):
            seed = initial_seed(random_skew(rng, rng.randint(2, 4), bound=2))
            pruned = bool(trial % 2)
            assert enumerate_seeds(seed, 10) == laurent_closure(seed, 10)
            diagram = mutation_tree(seed, 3, pruned)
            assert (diagram.level_sizes, diagram.edge_matrices) == laurent_tree(seed, 3, pruned)


class TestTropicalSeeds:
    def test_sign_coherence_and_duality_on_random_paths(self):
        # every column of C is nonzero with entries of one sign, and C fixes
        # B by tropical duality: B_t = C_t^T B_0 C_t, which is what lets
        # enumeration and trees key a seed by its c-vectors alone
        rng = random.Random(57)
        for _ in range(150):
            size = rng.randint(1, 5)
            start = _extended_start(initial_seed(random_skew(rng, size, bound=2)))
            b0, node = start[:size], start
            for _ in range(rng.randint(1, 8)):
                node = _mutate_b(node, rng.randrange(size))
                b, c = node[:size], node[size:]
                for j in range(size):
                    column = [row[j] for row in c]
                    assert any(column)
                    assert all(v >= 0 for v in column) or all(v <= 0 for v in column)
                for i in range(size):
                    for j in range(size):
                        assert b[i][j] == sum(
                            c[m][i] * b0[m][l] * c[l][j] for m in range(size) for l in range(size)
                        )


class TestPolygonAndSurfaceSeeds:
    def test_square(self):
        seed = polygon_seed(4)
        assert seed.matrix == ExchangeMatrix(((0,),))
        assert seed.rank == 1

    def test_pentagon(self):
        assert polygon_seed(5).matrix == ExchangeMatrix(A2_MATRIX)

    def test_hexagon_path(self):
        assert polygon_seed(6).matrix == ExchangeMatrix(
            ((0, 1, 0), (-1, 0, 1), (0, -1, 0))
        )

    @pytest.mark.parametrize("vertices", range(4, 13))
    def test_path_quiver(self, vertices):
        n = vertices - 3
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = 1
            rows[i + 1][i] = -1
        assert polygon_seed(vertices).matrix.rows == tuple(map(tuple, rows))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            polygon_seed(3)

    def test_vertex_limit(self):
        assert polygon_seed(cluster.MAX_POLYGON_VERTICES).rank == cluster.MAX_POLYGON_VERTICES - 3
        with pytest.raises(BudgetExceeded, match=f"limit of {cluster.MAX_POLYGON_VERTICES}"):
            polygon_seed(cluster.MAX_POLYGON_VERTICES + 1)

    def test_torus_seed_matrix(self):
        seed = surface_seed(SurfaceSpec(1, 1))
        assert seed.matrix == ExchangeMatrix(TORUS_MATRIX)
        assert seed.rank == 3

    def test_surface_ranks(self):
        spec = SurfaceSpec(1, 1)
        assert spec.cluster_rank == 3
        assert spec.af_rank == 2
        assert SurfaceSpec(0, 3).cluster_rank == 3

    def test_unsupported_surfaces(self):
        with pytest.raises(UnsupportedSurface):
            SurfaceSpec(0, 1)
        with pytest.raises(UnsupportedSurface):
            surface_seed(SurfaceSpec(0, 3))

    def test_initial_variables_are_units(self):
        seed = polygon_seed(6)
        for i, var in enumerate(seed.variables, start=1):
            assert var == LaurentFraction.unit_variable(i, 3)


class TestMutationTree:
    def test_depth_zero(self):
        diagram = mutation_tree(surface_seed(SurfaceSpec(1, 1)), 0)
        assert diagram.level_sizes == (1,)
        assert diagram.edge_matrices == ()

    def test_torus_depth_two_levels(self):
        # backtracking mutations all restore the initial seed, which the
        # level dedup collapses: 9 arrows land on 7 distinct seeds
        diagram = mutation_tree(surface_seed(SurfaceSpec(1, 1)), 2)
        assert diagram.level_sizes == (1, 3, 7)
        assert sum(sum(row) for row in diagram.edge_matrices[1]) == 9

    def test_torus_depth_two_pruned(self):
        diagram = mutation_tree(surface_seed(SurfaceSpec(1, 1)), 2, prune_backtrack=True)
        assert diagram.level_sizes == (1, 3, 6)

    def test_pentagon_revisits_seeds(self):
        # finite type: exact seeds form a ten-cycle, so the two pruned
        # branches meet again at the antipodal seed after five steps
        diagram = mutation_tree(polygon_seed(5), 5, prune_backtrack=True)
        assert diagram.level_sizes == (1, 2, 2, 2, 2, 1)
        unpruned = mutation_tree(polygon_seed(5), 5, prune_backtrack=False)
        assert unpruned.level_sizes == (1, 2, 3, 4, 5, 5)

    def test_edge_matrix_shapes(self):
        diagram = mutation_tree(polygon_seed(5), 3)
        for level, matrix in enumerate(diagram.edge_matrices):
            assert len(matrix) == diagram.level_sizes[level]
            assert all(len(row) == diagram.level_sizes[level + 1] for row in matrix)

    @pytest.mark.parametrize(
        "seed", [polygon_seed(5), polygon_seed(8), surface_seed(SurfaceSpec(1, 1))], ids=["pentagon", "octagon", "torus"]
    )
    def test_child_along_the_arrival_edge_is_the_parent(self, seed, monkeypatch):
        # unpruned, the child in the arrival direction is still an edge, but
        # its rows are the parent's and cost no mutation
        calls = record_mutations(monkeypatch)
        for depth in range(1, 6):
            calls.clear()
            sizes = mutation_tree(seed, depth).level_sizes
            assert len(calls) == seed.rank + sum(sizes[1:depth]) * (seed.rank - 1)

    def test_depth_guard(self):
        with pytest.raises(BudgetExceeded):
            mutation_tree(polygon_seed(4), 7)
        with pytest.raises(ValueError):
            mutation_tree(polygon_seed(4), -1)

    def test_entry_limit(self, monkeypatch):
        # rank 3: level 1 may write 1 * 3 * (9 + 1) = 30 entries, level 2
        # 3 * 3 * (9 + 3) = 108
        monkeypatch.setattr(cluster, "MAX_TREE_ENTRIES", 108)
        assert mutation_tree(polygon_seed(6), 2).level_sizes == (1, 3, 6)
        monkeypatch.setattr(cluster, "MAX_TREE_ENTRIES", 107)
        assert mutation_tree(polygon_seed(6), 1).level_sizes == (1, 3)
        with pytest.raises(BudgetExceeded, match="tree level 2 could write 108 entries, above the limit of 107"):
            mutation_tree(polygon_seed(6), 2)

    def test_each_level_is_written_once(self):
        # the edge rows are the bulk of what the tree keeps; a second copy of
        # them at any moment would double the peak
        tracemalloc.start()
        try:
            diagram = mutation_tree(polygon_seed(9), 6)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diagram.level_sizes == (1, 6, 21, 64, 185, 505, 1279)
        assert peak < 1.5 * held


def test_seed_json():
    # polygon 5 starts from the A2 seed; `cluster mutate --json` prints B and vars
    assert polygon_seed(5).matrix.rows == A2_MATRIX
    result = run(["--json", "cluster", "mutate", "--dirs", "1", "--polygon", "5"])
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["vars"] == ["(x2+1)/x1", "x2"]
    assert payload["B"] == [[0, -1], [1, 0]]


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: ExchangeMatrix(((0, 1), (-1, 0), (0, 0))), "exchange matrix must be square", id="non-square-matrix"
        ),
        # int() would truncate this to the zero matrix
        pytest.param(
            lambda: ExchangeMatrix(((0, 0.5), (-0.5, 0))),
            "exchange matrix entries must be integers",
            id="fractional-entries",
        ),
        # int() raises its own errors on these
        pytest.param(
            lambda: ExchangeMatrix(((0, float("inf")), (float("-inf"), 0))),
            "exchange matrix entries must be integers",
            id="infinite-entries",
        ),
        pytest.param(
            lambda: ExchangeMatrix(((0, float("nan")), (float("nan"), 0))),
            "exchange matrix entries must be integers",
            id="nan-entries",
        ),
        pytest.param(
            lambda: ExchangeMatrix(((0, None), (None, 0))), "exchange matrix entries must be integers", id="none-entries"
        ),
        pytest.param(
            lambda: Seed((), ExchangeMatrix(((0,),))),
            "variable count does not match matrix size",
            id="seed-length-mismatch",
        ),
        pytest.param(lambda: SurfaceSpec(-1, 3), "genus and cusp count must be nonnegative", id="negative-genus"),
    ],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()

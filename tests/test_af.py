"""Incidence matrices, Bratteli diagrams, Perron data, dimension groups.

Floating eigenvalues of size >= 3 are cross-checked against numpy's dense
eigensolver.  Sizes one and two take their float from the exact value,
which must be the nearest float to sympy's high-precision evaluation.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from knotfield.af import (
    BratteliDiagram,
    IncidenceMatrix,
    QuadraticSurd,
    char_poly,
    dimension_group,
    emit_dot,
    perron,
    stationary_diagram,
)
from knotfield.cluster import SurfaceSpec, mutation_tree, surface_seed
from knotfield.errors import DeadVertex, NotPrimitive


class TestIncidenceMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            IncidenceMatrix(((1, 2),))
        with pytest.raises(ValueError):
            IncidenceMatrix(((-1,),))

    def test_primitivity(self):
        assert IncidenceMatrix(((2, 1), (1, 1))).is_primitive()
        assert IncidenceMatrix(((1,),)).is_primitive()
        assert not IncidenceMatrix(((2, 0), (0, 3))).is_primitive()
        assert not IncidenceMatrix(((0, 1), (1, 0))).is_primitive()
        # irreducible and aperiodic only after several powers
        assert IncidenceMatrix(((0, 1), (1, 1))).is_primitive()

    def test_dead_vertices(self):
        assert IncidenceMatrix(((1, 0), (1, 0))).has_dead_vertex()
        assert IncidenceMatrix(((0, 0), (1, 1))).has_dead_vertex()
        assert not IncidenceMatrix(((2, 1), (1, 1))).has_dead_vertex()


class TestCharPoly:
    def test_monodromy_family_symbolic(self):
        # the family [[pq+1, p],[q, 1]] has det 1, so the characteristic
        # polynomial is x^2 - (pq+2)x + 1; verified symbolically once
        p, q, x = sympy.symbols("p q x")
        mat = sympy.Matrix([[p * q + 1, p], [q, 1]])
        expanded = sympy.expand((x - mat[0, 0]) * (x - mat[1, 1]) - mat[0, 1] * mat[1, 0])
        assert sympy.simplify(expanded - (x**2 - (p * q + 2) * x + 1)) == 0

    def test_monodromy_family_numeric(self):
        for pp in range(1, 8):
            for qq in range(1, 8):
                matrix = IncidenceMatrix(((pp * qq + 1, pp), (qq, 1)))
                assert char_poly(matrix) == (1, -(pp * qq + 2), 1)
                assert matrix.determinant() == 1

    def test_against_sympy_random(self):
        rng = random.Random(60)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = tuple(tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n))
            ours = char_poly(IncidenceMatrix(rows))
            theirs = sympy.Matrix(rows).charpoly().all_coeffs()  # high -> low
            assert list(ours) == [int(c) for c in reversed(theirs)]


class TestQuadraticSurd:
    def test_normalization(self):
        surd = QuadraticSurd.make(4, 1, 12, 2)
        assert (surd.add, surd.coeff, surd.radicand, surd.div) == (2, 1, 3, 1)

    def test_value(self):
        surd = QuadraticSurd.make(3, 1, 5, 2)
        assert abs(surd.value() - (3 + math.sqrt(5)) / 2) < 1e-15

    def test_value_is_the_nearest_float(self):
        rng = random.Random(64)
        # Pell-type near-cancellations, then random surds
        surds = [QuadraticSurd(-1351, 780, 3, 1), QuadraticSurd(18817, -10864, 3, 7)]
        for _ in range(200):
            radicand = rng.randint(2, 10 ** rng.randint(1, 30))
            if math.isqrt(radicand) ** 2 == radicand:
                continue
            bound = 10 ** rng.randint(0, 20)
            coeff = rng.choice([-1, 1]) * rng.randint(1, bound)
            surds.append(QuadraticSurd(rng.randint(-bound, bound), coeff, radicand, rng.randint(1, bound)))
        for s in surds:
            exact = (s.add + s.coeff * sympy.sqrt(s.radicand)) / s.div
            # a 60-digit decimal string parses to the nearest float
            assert s.value() == float(str(sympy.N(exact, 60))), s

    def test_str(self):
        assert str(QuadraticSurd.make(3, 1, 5, 2)) == "(3+sqrt(5))/2"
        assert str(QuadraticSurd.make(2, 1, 3, 1)) == "(2+sqrt(3))"


class TestPerron:
    def test_golden_family_base_case(self):
        data = perron(IncidenceMatrix(((2, 1), (1, 1))))
        assert data.exact == QuadraticSurd.make(3, 1, 5, 2)
        assert abs(data.eigenvalue - (3 + math.sqrt(5)) / 2) < 1e-10
        assert data.char_polynomial == (1, -3, 1)
        assert data.degree == 2

    def test_pq_three(self):
        data = perron(IncidenceMatrix(((4, 1), (3, 1))))
        assert data.exact == QuadraticSurd.make(5, 1, 21, 2)

    def test_trivial(self):
        data = perron(IncidenceMatrix(((1,),)))
        assert data.exact == Fraction(1)
        assert data.eigenvalue == 1.0
        assert data.degree == 1

    def test_not_primitive(self):
        with pytest.raises(NotPrimitive):
            perron(IncidenceMatrix(((2, 0), (0, 3))))

    def test_exact_vs_float_on_grid(self):
        for pp in range(1, 21):
            for qq in range(1, 21):
                data = perron(IncidenceMatrix(((pp * qq + 1, pp), (qq, 1))))
                expected = QuadraticSurd.make(pp * qq + 2, 1, pp * qq * (pp * qq + 4), 2)
                assert data.exact == expected
                assert abs(data.eigenvalue - expected.value()) < 1e-10

    def test_rational_perron_of_reducible_poly(self):
        # all-ones 3x3: spectrum {3, 0, 0}; integer-root peeling finds 3
        data = perron(IncidenceMatrix(((1, 1, 1), (1, 1, 1), (1, 1, 1))))
        assert data.min_polynomial == (-3, 1)
        assert data.degree == 1
        assert abs(data.eigenvalue - 3.0) < 1e-9

    def test_power_iteration_matches_numpy(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(3, 5)
            rows = tuple(tuple(rng.randint(1, 6) for _ in range(n)) for _ in range(n))
            data = perron(IncidenceMatrix(rows))
            spectral = max(abs(v) for v in np.linalg.eigvals(np.array(rows, dtype=float)))
            assert abs(data.eigenvalue - spectral) < 1e-8

    def test_rank_two_split_paths_agree(self):
        rng = random.Random(62)
        for _ in range(50):
            rows = ((rng.randint(1, 9), rng.randint(1, 9)), (rng.randint(1, 9), rng.randint(1, 9)))
            data = perron(IncidenceMatrix(rows))
            if isinstance(data.exact, QuadraticSurd):
                assert abs(data.eigenvalue - data.exact.value()) < 1e-10
            else:
                assert abs(data.eigenvalue - float(data.exact)) < 1e-10


class TestRankTwoFloats:
    """Sizes one and two take their float from the exact value."""

    def test_rational_root_is_exact(self):
        data = perron(IncidenceMatrix(((1000000007, 3), (5, 1000000009))))
        assert data.exact == Fraction(1000000012)
        assert data.eigenvalue == 1000000012.0

    def test_random_primitive_against_sympy(self):
        rng = random.Random(63)
        checked = 0
        while checked < 60:
            # af._square_part trial-divides the discriminant, so keep it small
            bound = 10 ** rng.randint(1, 5)
            rows = tuple(tuple(rng.randint(0, bound) for _ in range(2)) for _ in range(2))
            matrix = IncidenceMatrix(rows)
            if not matrix.is_primitive():
                continue
            data = perron(matrix)
            spectral = max(sympy.Matrix(rows).eigenvals(), key=lambda v: sympy.N(v, 30))
            expected = sympy.N(spectral, 30)
            assert abs(data.eigenvalue - expected) <= 1e-15 * expected, rows
            # and it is the nearest float, not just a close one
            assert data.eigenvalue == float(str(sympy.N(spectral, 60))), rows
            checked += 1


class TestDimensionGroup:
    def test_golden_case(self):
        desc = dimension_group(IncidenceMatrix(((2, 1), (1, 1))))
        assert desc.rank == 2
        assert desc.radicand == 5
        assert desc.order_text == "Z[(3+sqrt(5))/2]"

    def test_pq_three_radicand(self):
        desc = dimension_group(IncidenceMatrix(((4, 1), (3, 1))))
        assert desc.radicand == 21

    def test_not_primitive_propagates(self):
        with pytest.raises(NotPrimitive):
            dimension_group(IncidenceMatrix(((2, 0), (0, 3))))


class TestStationaryDiagram:
    def test_fig_two_base_case(self):
        matrix = IncidenceMatrix(((2, 1), (1, 1)))
        diagram = stationary_diagram(matrix, 3)
        assert diagram.level_sizes == (2, 2, 2, 2)
        assert diagram.edge_matrices == (matrix.entries,) * 3

    def test_trivial(self):
        diagram = stationary_diagram(IncidenceMatrix(((1,),)), 5)
        assert diagram.level_sizes == (1,) * 6

    def test_dead_vertex(self):
        with pytest.raises(DeadVertex):
            stationary_diagram(IncidenceMatrix(((1, 0), (1, 0))), 2)

    def test_roundtrip(self):
        matrix = IncidenceMatrix(((3, 2), (1, 1)))
        diagram = stationary_diagram(matrix, 4)
        assert all(m == matrix.entries for m in diagram.edge_matrices)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BratteliDiagram((2, 2), (((1,),),))
        with pytest.raises(ValueError):
            BratteliDiagram((1, 1), ())


class TestDot:
    def test_stationary_labels(self):
        diagram = stationary_diagram(IncidenceMatrix(((2, 1), (1, 1))), 1)
        dot = emit_dot(diagram)
        assert dot.startswith("digraph")
        assert '[label="2"]' in dot
        assert dot.count('[label="1"]') == 3
        assert "rank=same" in dot

    def test_single_vertex(self):
        dot = emit_dot(BratteliDiagram((1,), ()))
        assert '"v0_0"' in dot
        assert "->" not in dot

    def test_mutation_tree_nodes(self):
        diagram = mutation_tree(surface_seed(SurfaceSpec(1, 1)), 2)
        dot = emit_dot(diagram)
        # levels 1 + 3 + 7: eleven vertices
        node_count = sum(line.count('"v') for line in dot.splitlines() if "rank=same" in line)
        assert node_count == 11
        assert '"v2_6"' in dot and '"v2_7"' not in dot

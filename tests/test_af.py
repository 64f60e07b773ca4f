"""Incidence matrices, Bratteli diagrams, Perron data, dimension groups.

Every Perron float must be the nearest float to sympy's largest real root
of the characteristic polynomial; floats of size >= 3 are also checked
against numpy's dense eigensolver on a seeded sparse corpus.  The integer
algorithms are checked against simpler reference algorithms kept here:
Faddeev-LeVerrier over rationals, boolean matrix powers up to Wielandt's
bound, and integer roots peeled one at a time.
"""

import functools
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
from knotfield.errors import BudgetExceeded, DeadVertex, FloatOverflow, NotPrimitive, TooLargeToFactor

_GRID = [(pp, qq) for pp in range(1, 21) for qq in range(1, 21)]


def _sympy_nearest(rows) -> float:
    """The float nearest sympy's largest real root of the characteristic
    polynomial; a 60-digit decimal string parses to the nearest float."""
    x = sympy.Symbol("x")
    root = max(sympy.Poly(sympy.Matrix(rows).charpoly(x), x).real_roots())
    return float(str(sympy.N(root, 60)))


def _numpy_radius(rows) -> float:
    return max(abs(np.linalg.eigvals(np.array(rows, dtype=float))))


def _reference_char_poly(rows) -> tuple[int, ...]:
    """Faddeev-LeVerrier over the rationals, lowest degree first:
    M_k = A M_(k-1) + c I, and the next coefficient is -trace(A M_k) / k."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [
            [sum(a[i][l] * m[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        coeffs.append(-sum(a[i][l] * m[l][i] for i in range(n) for l in range(n)) / k)
    return tuple(int(c) for c in reversed(coeffs))


def _reference_is_primitive(rows) -> bool:
    """Some boolean power up to Wielandt's bound (n-1)**2 + 1 is all true."""
    n = len(rows)
    step = [[v > 0 for v in row] for row in rows]
    power = step
    for _ in range((n - 1) ** 2):
        if all(map(all, power)):
            return True
        power = [[any(p and s[j] for p, s in zip(prow, step)) for j in range(n)] for prow in power]
    return all(map(all, power))


def _reference_min_polynomial(poly, value) -> tuple[int, ...]:
    """Peel integer roots one at a time, each found among the divisors of
    the constant term, until the one within 1e-6 of ``value``."""
    coeffs = list(poly)
    while len(coeffs) > 2:
        c0 = coeffs[0]
        candidates = [0] if c0 == 0 else [s * d for d in range(1, abs(c0) + 1) if c0 % d == 0 for s in (1, -1)]
        root = next((r for r in candidates if sum(c * r**i for i, c in enumerate(coeffs)) == 0), None)
        if root is None:
            break
        if abs(value - root) < 1e-6:
            return (-root, 1)
        high = coeffs[::-1]
        quotient = [high[0]]
        for c in high[1:-1]:
            quotient.append(c + root * quotient[-1])
        coeffs = quotient[::-1]
    return tuple(coeffs)


@functools.cache
def _sparse_corpus():
    """(draws, primitive draws): seeded sparse matrices of sizes 3-8, drawn
    until 200 are primitive."""
    rng = random.Random(65)
    draws, primitive = [], []
    while len(primitive) < 200:
        n = rng.randint(3, 8)
        rows = tuple(tuple(rng.choice((0, 0, 0, 1, 1, 2)) for _ in range(n)) for _ in range(n))
        draws.append(rows)
        if _reference_is_primitive(rows):
            primitive.append(rows)
    return draws, primitive


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
        assert IncidenceMatrix(((1, 1, 0), (1, 1, 0), (1, 1, 0))).has_dead_vertex()  # zero last column
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
            assert IncidenceMatrix(rows).determinant() == sympy.Matrix(rows).det()


class TestQuadraticSurd:
    def test_normalization(self):
        surd = QuadraticSurd.make(4, 1, 12, 2)
        assert (surd.add, surd.coeff, surd.radicand, surd.div) == (2, 1, 3, 1)

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

    def test_exact_on_grid(self):
        for pp, qq in _GRID:
            data = perron(IncidenceMatrix(((pp * qq + 1, pp), (qq, 1))))
            assert data.exact == QuadraticSurd.make(pp * qq + 2, 1, pp * qq * (pp * qq + 4), 2)

    def test_rational_perron_of_reducible_poly(self):
        # all-ones 3x3: spectrum {3, 0, 0}; integer-root peeling finds 3
        data = perron(IncidenceMatrix(((1, 1, 1), (1, 1, 1), (1, 1, 1))))
        assert data.exact is None
        assert data.min_polynomial == (-3, 1)
        assert data.degree == 1
        assert abs(data.eigenvalue - 3.0) < 1e-9

    def test_plastic_number(self):
        data = perron(IncidenceMatrix(((0, 1, 0), (0, 0, 1), (1, 1, 0))))
        assert data.eigenvalue == 1.324717957244746
        assert data.exact is None
        assert data.min_polynomial == (-1, -1, 0, 1)

    def test_wielandt_matrix(self):
        # the 40-cycle with one chord: char poly x^40 - x - 1, the least
        # primitive matrix of its size by Wielandt's bound
        n = 40
        rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
        rows[-1][0] = rows[-1][1] = 1
        data = perron(IncidenceMatrix(rows))
        assert data.char_polynomial == (-1, -1) + (0,) * 38 + (1,)
        assert data.eigenvalue == 1.0177038929544147

    def test_large_entry(self):
        # rho = N + 2 / (N - 4) + ..., with the integer root 2 peeled
        data = perron(IncidenceMatrix(((3, 1, 1), (1, 3, 1), (1, 1, 10**11))))
        assert data.eigenvalue == 100000000000.0
        assert data.min_polynomial == (4 * 10**11 - 2, -(10**11 + 4), 1)

    def test_repeated_integer_root(self):
        # char poly (x - 1)^2 (x + 2) (x^3 - 3x^2 - 4x - 1)
        rows = ((1, 0, 1, 1, 2, 1), (0, 0, 0, 0, 0, 1), (1, 1, 0, 2, 0, 0),
                (0, 0, 2, 0, 1, 2), (0, 1, 0, 0, 0, 0), (0, 2, 1, 1, 0, 2))
        data = perron(IncidenceMatrix(rows))
        assert data.eigenvalue == 4.048917339522306
        assert data.min_polynomial == (-1, -4, -3, 1)
        assert data.degree == 3

    def test_integer_root_between_floats(self):
        # spectrum N, N - 2, N - 3; N = 2**53 + 1 is a tie that rounds to even
        n = 2**53 + 1
        data = perron(IncidenceMatrix(((n - 2, 1, 0), (1, n - 1, 1), (0, 1, n - 2))))
        assert data.eigenvalue == 9007199254740992.0
        assert data.min_polynomial == (-n, 1)

    def test_rank_two_split_paths_agree(self):
        # a rational root and a quadratic surd take separate paths; each
        # exact value must be sympy's Perron root and its float the nearest
        rng = random.Random(62)
        x = sympy.Symbol("x")
        paths = set()
        for _ in range(50):
            rows = ((rng.randint(1, 9), rng.randint(1, 9)), (rng.randint(1, 9), rng.randint(1, 9)))
            data = perron(IncidenceMatrix(rows))
            root = max(sympy.Poly(sympy.Matrix(rows).charpoly(x), x).real_roots())
            if isinstance(data.exact, QuadraticSurd):
                s = data.exact
                exact = (s.add + s.coeff * sympy.sqrt(s.radicand)) / sympy.Integer(s.div)
            else:
                exact = sympy.Rational(data.exact.numerator, data.exact.denominator)
            paths.add(type(data.exact))
            assert sympy.simplify(exact - root) == 0, rows
            assert data.eigenvalue == _sympy_nearest(rows), rows
        assert paths == {QuadraticSurd, Fraction}

    def test_large_discriminant(self):
        # the disc 10**20 - 2 * 10**10 + 5 leaves a prime after trial division
        rows = ((10**10, 1), (1, 1))
        data = perron(IncidenceMatrix(rows))
        assert str(data.exact) == "(10000000001+sqrt(99999999980000000005))/2"
        x = sympy.Symbol("x")
        root = max(sympy.Poly(sympy.Matrix(rows).charpoly(x), x).real_roots())
        assert sympy.simplify((10000000001 + sympy.sqrt(99999999980000000005)) / 2 - root) == 0
        assert data.eigenvalue == _sympy_nearest(rows)

    def test_uncertified_discriminant(self):
        # the disc is 4 * 2100001 * 2100011 * 2100031
        with pytest.raises(TooLargeToFactor, match="37044758523217201364"):
            perron(IncidenceMatrix(((1, 1), (9261189630804300341, 1))))

    def test_refused_for_both_reasons(self):
        # the root is above the float range and the disc (10**309 - 1)**2 + 4
        # cannot be certified: the exact label is built first, so it refuses
        with pytest.raises(TooLargeToFactor):
            perron(IncidenceMatrix(((10**309, 1), (1, 1))))

    @pytest.mark.parametrize(
        "rows",
        [((10**309,),), ((10**309, 10**309), (1, 1)), ((10**309, 1, 1), (1, 1, 1), (1, 1, 1))],
        ids=["size-1", "rational", "size-3"],
    )
    def test_float_overflow(self, rows):
        with pytest.raises(FloatOverflow, match=r"1\.7976931348623157e\+308"):
            perron(IncidenceMatrix(rows))


class TestRankTwoFloats:
    """Sizes one and two take their float from the Sturm bracket, as every
    size does; the exact value is only a label on top of it."""

    def test_rational_root_is_exact(self):
        data = perron(IncidenceMatrix(((1000000007, 3), (5, 1000000009))))
        assert data.exact == Fraction(1000000012)
        assert data.eigenvalue == 1000000012.0

    def test_random_primitive_against_sympy(self):
        matrices = [((pp * qq + 1, pp), (qq, 1)) for pp, qq in _GRID]
        rng = random.Random(63)
        while len(matrices) < len(_GRID) + 60:
            # the disc (a - d)**2 + 4bc stays below 5 * 10**18, under the cube
            # of the trial-division bound, so its square-free part is certified
            bound = 10 ** rng.randint(1, 9)
            rows = tuple(tuple(rng.randint(0, bound) for _ in range(2)) for _ in range(2))
            if IncidenceMatrix(rows).is_primitive():
                matrices.append(rows)
        # size one: 2**53 + 1 is a tie that rounds to even
        matrices += [((2**53 + 1,),), ((10**18,),)]
        matrices += [((rng.randint(1, 10 ** rng.randint(1, 18)),),) for _ in range(30)]
        for rows in matrices:
            assert perron(IncidenceMatrix(rows)).eigenvalue == _sympy_nearest(rows), rows


class TestSparseCorpus:
    """Seeded sparse matrices of sizes 3-8 with entries from (0,0,0,1,1,2)."""

    def test_float_matches_numpy(self):
        for rows in _sparse_corpus()[1]:
            radius = _numpy_radius(rows)
            assert abs(perron(IncidenceMatrix(rows)).eigenvalue - radius) <= 1e-9 * radius, rows

    def test_float_is_the_nearest(self):
        for rows in [rows for rows in _sparse_corpus()[1] if len(rows) <= 5][:30]:
            assert perron(IncidenceMatrix(rows)).eigenvalue == _sympy_nearest(rows), rows

    def test_char_poly_matches_reference(self):
        for rows in _sparse_corpus()[0]:
            assert char_poly(IncidenceMatrix(rows)) == _reference_char_poly(rows), rows

    def test_primitivity_matches_reference(self):
        for rows in _sparse_corpus()[0]:
            assert IncidenceMatrix(rows).is_primitive() == _reference_is_primitive(rows), rows

    def test_min_polynomial_matches_reference(self):
        for rows in _sparse_corpus()[1]:
            data = perron(IncidenceMatrix(rows))
            expected = _reference_min_polynomial(data.char_polynomial, _numpy_radius(rows))
            assert data.min_polynomial == expected, rows


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

    def test_entry_limit(self):
        # the limit counts levels * size**2 entries, not levels alone
        assert len(stationary_diagram(IncidenceMatrix(((2, 1), (1, 1))), 25000).edge_matrices) == 25000
        with pytest.raises(BudgetExceeded, match="25001 levels of a 2x2 matrix hold 100004 edge entries"):
            stationary_diagram(IncidenceMatrix(((2, 1), (1, 1))), 25001)
        with pytest.raises(BudgetExceeded, match="above the limit of 100000"):
            stationary_diagram(IncidenceMatrix(((1,) * 40,) * 40), 63)

    def test_roundtrip(self):
        matrix = IncidenceMatrix(((3, 2), (1, 1)))
        diagram = stationary_diagram(matrix, 4)
        assert all(m == matrix.entries for m in diagram.edge_matrices)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BratteliDiagram((2, 2), (((1,),),))
        with pytest.raises(ValueError):
            BratteliDiagram((1, 1), ())

    def test_empty_level_is_accepted(self):
        # a level of size 0: two empty rows into it, no rows out of it
        diagram = BratteliDiagram((2, 0, 1), (((), ()), ()))
        assert diagram.level_sizes == (2, 0, 1)


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


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: QuadraticSurd.make(1, 1, 0, 2), "radicand must be positive", id="surd-radicand-zero"),
        pytest.param(lambda: QuadraticSurd.make(1, 1, -5, 2), "radicand must be positive", id="surd-radicand-negative"),
        pytest.param(
            lambda: BratteliDiagram((1, 1), (((-1,),),)),
            "edge multiplicities must be nonnegative",
            id="bratteli-negative-multiplicity",
        ),
        pytest.param(
            lambda: BratteliDiagram((1, 2, 1), (((1, 1),), ((1,), ()))),
            "edge matrix 1 has the wrong shape",
            id="bratteli-short-row-at-level-1",
        ),
        pytest.param(
            lambda: BratteliDiagram((1, 2, 1), (((1, 1),), ((1,), (-1,)))),
            "edge multiplicities must be nonnegative",
            id="bratteli-negative-multiplicity-at-level-1",
        ),
        pytest.param(
            lambda: stationary_diagram(IncidenceMatrix(((2, 1), (1, 1))), 0),
            "need at least one level",
            id="diagram-no-levels",
        ),
        pytest.param(lambda: IncidenceMatrix(()), "must be square and nonempty", id="incidence-empty"),
        pytest.param(lambda: IncidenceMatrix(((1, 1), (1,))), "must be square and nonempty", id="incidence-jagged"),
        pytest.param(
            lambda: IncidenceMatrix(((1, 1), (1, -1))), "incidence entries must be nonnegative", id="incidence-negative"
        ),
        # int() would truncate these to the all-ones matrix, whose Perron root is 2
        pytest.param(
            lambda: perron(IncidenceMatrix(((1.5, 1), (1, 1.9)))),
            "incidence entries must be integers",
            id="incidence-fractional",
        ),
        # int() raises its own errors on these
        pytest.param(
            lambda: IncidenceMatrix(((float("inf"), 1), (1, 1))), "incidence entries must be integers", id="incidence-inf"
        ),
        pytest.param(
            lambda: IncidenceMatrix(((float("nan"), 1), (1, 1))), "incidence entries must be integers", id="incidence-nan"
        ),
        pytest.param(lambda: IncidenceMatrix(((None, 1), (1, 1))), "incidence entries must be integers", id="incidence-none"),
    ],
)
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_integral_entries_are_converted():
    expected = ((2, 1), (1, 1))
    for entries in (np.array(expected, dtype=np.int64), ((2.0, True), (1, 1))):
        matrix = IncidenceMatrix(entries)
        assert matrix.entries == expected
        assert {type(v) for row in matrix.entries for v in row} == {int}


def test_surd_with_negative_div_is_normalized():
    # (1 + sqrt(20)) / -2 = (-1 - 2*sqrt(5)) / 2
    assert QuadraticSurd.make(1, 1, 20, -2) == QuadraticSurd(-1, -2, 5, 2)

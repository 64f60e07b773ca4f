import random

import numpy as np
import pytest

from knotfield.af import IncidenceMatrix, dimension_group
from knotfield.braid import BraidWord, closure_components, markov_conjugate
from knotfield.errors import NonHyperbolic, WrongStrandCount
from knotfield.invariant import (
    MonodromyMatrix,
    field_of,
    field_table,
    monodromy,
    two_generator_power_braid,
)

PAPER_GRID = [(1, 1), (1, 3), (1, 7), (1, 11), (1, 13), (3, 5), (3, 7), (3, 11)]


def random_word(rng, max_len=8):
    letters = tuple(
        rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, max_len))
    )
    return BraidWord(3, letters)


class TestMonodromy:
    def test_empty_braid_is_identity(self):
        assert monodromy(BraidWord(3, ())).entries == ((1, 0), (0, 1))

    def test_generator_images(self):
        assert monodromy(BraidWord(3, (1,))).entries == ((1, 1), (0, 1))
        assert monodromy(BraidWord(3, (2,))).entries == ((1, 0), (-1, 1))
        assert monodromy(BraidWord(3, (1, -1))).entries == ((1, 0), (0, 1))

    def test_braid_relation(self):
        left = monodromy(BraidWord(3, (1, 2, 1)))
        right = monodromy(BraidWord(3, (2, 1, 2)))
        assert left == right
        assert left.entries == ((0, 1), (-1, 0))

    def test_family_closed_form(self):
        for p in range(1, 21):
            for q in range(1, 21):
                matrix = monodromy(two_generator_power_braid(p, q))
                assert matrix.entries == ((p * q + 1, p), (q, 1))

    def test_first_letter_leftmost(self):
        # s1 then s2^-1 multiplies as image(s1) * image(s2^-1)
        matrix = monodromy(BraidWord(3, (1, -2)))
        assert matrix.entries == ((2, 1), (1, 1))

    def test_determinant_always_one(self):
        rng = random.Random(80)
        for _ in range(300):
            entries = monodromy(random_word(rng)).entries
            (a, b), (c, d) = entries
            assert a * d - b * c == 1

    def test_wrong_strand_count(self):
        with pytest.raises(WrongStrandCount):
            monodromy(BraidWord(2, (1,)))

    def test_matrix_validation(self):
        with pytest.raises(ValueError, match="does not have determinant 1"):
            MonodromyMatrix(((1, 0), (0, 2)))
        # int() would truncate 2.7 to 2, and ((2, 1), (1, 1)) has determinant 1
        with pytest.raises(ValueError, match="monodromy matrix entries must be integers"):
            MonodromyMatrix(((2.7, 1), (1, 1)))

    @pytest.mark.parametrize("entry", [float("inf"), float("nan"), None], ids=["inf", "nan", "none"])
    def test_entries_that_int_refuses(self, entry):
        with pytest.raises(ValueError, match="monodromy matrix entries must be integers"):
            MonodromyMatrix(((entry, 1), (1, 1)))

    def test_integral_entries_are_converted(self):
        matrix = MonodromyMatrix(np.array(((2, 1), (1, 1)), dtype=np.int64))
        assert matrix.entries == ((2, 1), (1, 1))
        assert {type(v) for row in matrix.entries for v in row} == {int}


class TestFieldOf:
    def test_base_case(self):
        invariant = field_of(BraidWord(3, (1, -2)))
        assert invariant.radicand == 5
        assert invariant.field.field_str() == "Q(sqrt(5))"
        assert invariant.is_knot
        assert invariant.components == 1

    def test_radicand_77(self):
        invariant = field_of(two_generator_power_braid(1, 7))
        assert invariant.radicand == 77

    def test_non_hyperbolic_trace(self):
        with pytest.raises(NonHyperbolic) as info:
            field_of(BraidWord(3, (1,)))
        assert info.value.trace == 2

    def test_non_hyperbolic_identity(self):
        with pytest.raises(NonHyperbolic) as info:
            field_of(BraidWord(3, ()))
        assert info.value.trace == 2

    def test_knot_flag_matches_components(self):
        rng = random.Random(81)
        checked = 0
        while checked < 200:
            word = random_word(rng)
            if abs(monodromy(word).trace) <= 2:
                continue
            invariant = field_of(word)
            assert invariant.is_knot == (closure_components(word) == 1)
            checked += 1

    @pytest.mark.parametrize("n", [*range(23, 31), 45])
    def test_golden_family_large_radicands(self, n):
        # (s1 s2^-1)^n has monodromy [[2, 1], [1, 1]]^n, so trace**2 - 4 is
        # 5 * F(2n)**2 with F the Fibonacci numbers
        fib = [0, 1]
        while len(fib) <= 2 * n:
            fib.append(fib[-1] + fib[-2])
        invariant = field_of(BraidWord(3, (1, -2) * n))
        assert invariant.radicand == 5 * fib[2 * n] ** 2
        assert invariant.field.square_free == 5

    def test_json(self):
        # the public fields that `field --json` prints
        invariant = field_of(two_generator_power_braid(1, 1))
        assert (
            invariant.radicand,
            invariant.field.square_free,
            invariant.field.field_str(),
            invariant.is_knot,
        ) == (5, 5, "Q(sqrt(5))", True)


class TestFieldTable:
    def test_paper_grid_radicands(self):
        rows = field_table(PAPER_GRID)
        assert [r.radicand for r in rows] == [5, 21, 77, 165, 221, 285, 525, 1221]

    def test_square_free_column(self):
        rows = field_table([(3, 7)])
        assert rows[0].radicand == 525
        assert rows[0].square_free == 21
        assert rows[0].field == "Q(sqrt(525))"

    def test_individual_rows(self):
        assert field_table([(1, 13)])[0].radicand == 221
        assert field_table([(3, 5)])[0].radicand == 285

    def test_radicand_formula(self):
        rng = random.Random(82)
        for _ in range(50):
            p, q = rng.randint(1, 9), rng.randint(1, 9)
            row = field_table([(p, q)])[0]
            assert row.radicand == p * q * (p * q + 4)


class TestPipelineConsistency:
    def test_monodromy_and_dimension_group_agree(self):
        for p, q in PAPER_GRID:
            invariant = field_of(two_generator_power_braid(p, q))
            matrix = IncidenceMatrix(invariant.matrix.entries)
            descriptor = dimension_group(matrix)
            assert descriptor.radicand == invariant.radicand


class TestMarkovInvariance:
    def test_single_conjugator(self):
        word = BraidWord(3, (1, -2))
        moved = markov_conjugate(word, BraidWord(3, (1,)))
        assert field_of(moved).radicand == field_of(word).radicand == 5

    def test_empty_conjugator_identical(self):
        word = BraidWord(3, (1, -2))
        assert field_of(markov_conjugate(word, BraidWord(3, ()))).matrix == field_of(word).matrix

    def test_longer_conjugator(self):
        word = BraidWord(3, (1, 1, -2))
        moved = markov_conjugate(word, BraidWord(3, (2, 1)))
        assert field_of(moved).radicand == field_of(word).radicand

    def test_random_conjugations(self):
        rng = random.Random(83)
        checked = 0
        while checked < 200:
            word = random_word(rng)
            if abs(monodromy(word).trace) <= 2:
                continue
            conj = random_word(rng, max_len=5)
            moved = markov_conjugate(word, conj)
            assert monodromy(moved).trace == monodromy(word).trace
            checked += 1


def test_power_braid_needs_positive_exponents():
    with pytest.raises(ValueError, match="at least 1"):
        two_generator_power_braid(0, 1)

import random

import pytest

from knotfield.braid import (
    BraidWord,
    Permutation,
    closure_components,
    free_reduce,
    markov_conjugate,
    parse_braid,
    stabilize,
    underlying_permutation,
)
from knotfield.errors import GeneratorOutOfRange, MalformedToken, StrandMismatch


def random_word(rng, strands, max_len=12):
    length = rng.randint(0, max_len)
    letters = []
    for _ in range(length):
        k = rng.randint(1, strands - 1)
        letters.append(k if rng.random() < 0.5 else -k)
    return BraidWord(strands, tuple(letters))


def identity(n):
    return Permutation(tuple(range(1, n + 1)))


def then(first, second):
    """The permutation that applies ``first``, then ``second``."""
    return Permutation(tuple(second.images[i - 1] for i in first.images))


class TestParse:
    def test_plain_integers(self):
        assert parse_braid("1 1 1", 2) == BraidWord(2, (1, 1, 1))

    def test_aliases(self):
        assert parse_braid("s1 s2^-1", 3) == BraidWord(3, (1, -2))

    def test_alias_powers_expand(self):
        assert parse_braid("s2^3 s1^-2", 3) == BraidWord(3, (2, 2, 2, -1, -1))

    def test_commas(self):
        assert parse_braid("1,-2, 1", 3) == BraidWord(3, (1, -2, 1))

    def test_generator_out_of_range(self):
        with pytest.raises(GeneratorOutOfRange):
            parse_braid("3", 3)
        with pytest.raises(GeneratorOutOfRange):
            parse_braid("0", 3)

    def test_malformed_token(self):
        with pytest.raises(MalformedToken):
            parse_braid("1 x 2", 4)

    @pytest.mark.parametrize(
        "token",
        [
            pytest.param("9" * 5000, id="letter"),
            pytest.param("s1^" + "9" * 5000, id="alias-power"),
            pytest.param("s" + "9" * 5000, id="alias-index"),
        ],
    )
    def test_digits_past_the_conversion_limit_are_malformed(self, token):
        # CPython refuses int() of more than 4300 digits with its own message
        with pytest.raises(MalformedToken, match="^cannot read braid letter '"):
            parse_braid(token, 3)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1_0", id="underscore"),
            pytest.param("s1_0", id="alias-underscore"),
            pytest.param("s1^1_0", id="alias-power-underscore"),
            pytest.param("\u0661 -\u0662", id="arabic-indic-digits"),
            pytest.param("s\u0661", id="alias-arabic-indic-digit"),
            pytest.param("s1^\u0662", id="alias-power-arabic-indic-digit"),
            pytest.param("\uff11", id="fullwidth-digit"),
        ],
    )
    def test_only_ascii_digits_are_letters(self, text):
        # int() reads "1_0" as 10 and non-ASCII digits as their values
        with pytest.raises(MalformedToken, match="^cannot read braid letter '"):
            parse_braid(text, 12)

    def test_signed_ascii_letters(self):
        assert parse_braid("+1 -2 s1^-1", 3) == BraidWord(3, (1, -2, -1))

    def test_letters_kept_unreduced(self):
        assert parse_braid("1 -1", 2).letters == (1, -1)


class TestFreeReduce:
    def test_single_cancellation(self):
        assert free_reduce(BraidWord(2, (1, -1))).letters == ()

    def test_inner_cancellation(self):
        assert free_reduce(BraidWord(3, (1, 2, -2, 1))).letters == (1, 1)

    def test_cascade(self):
        assert free_reduce(BraidWord(3, (1, -2, 2, -1, 1))).letters == (1,)

    def test_matches_a_stack_reduction(self):
        def stack_reduce(letters):
            stack = []
            for k in letters:
                if stack and stack[-1] == -k:
                    stack.pop()
                else:
                    stack.append(k)
            return tuple(stack)

        rng = random.Random(4)
        words = [BraidWord(1, ())] + [random_word(rng, rng.randint(2, 4), max_len=30) for _ in range(499)]
        for w in words:
            r = free_reduce(w)
            assert r.strands == w.strands
            assert r.letters == stack_reduce(w.letters)
            assert all(a != -b for a, b in zip(r.letters, r.letters[1:]))

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(200):
            w = random_word(rng, rng.randint(2, 5))
            once = free_reduce(w)
            assert free_reduce(once) == once

    def test_preserves_permutation_and_components(self):
        rng = random.Random(2)
        for _ in range(200):
            w = random_word(rng, rng.randint(2, 5))
            r = free_reduce(w)
            assert underlying_permutation(r) == underlying_permutation(w)
            assert closure_components(r) == closure_components(w)


class TestMarkovConjugate:
    def test_identity_conjugator(self):
        w = BraidWord(3, (1, -2))
        assert markov_conjugate(w, BraidWord(3, ())) == w

    def test_self_conjugation_fixed(self):
        w = BraidWord(2, (1,))
        assert markov_conjugate(w, w) == w

    def test_concatenate_then_reduce(self):
        w = BraidWord(3, (1, -2))
        a = BraidWord(3, (2,))
        assert markov_conjugate(w, a).letters == (2, 1, -2, -2)

    def test_strand_mismatch(self):
        with pytest.raises(StrandMismatch):
            markov_conjugate(BraidWord(3, (1,)), BraidWord(4, (1,)))

    def test_preserves_components(self):
        rng = random.Random(3)
        for _ in range(300):
            strands = rng.randint(2, 5)
            w = random_word(rng, strands)
            a = random_word(rng, strands)
            assert closure_components(markov_conjugate(w, a)) == closure_components(w)


class TestPermutation:
    def test_identity(self):
        assert underlying_permutation(BraidWord(3, ())) == identity(3)

    def test_three_half_twists_are_one_swap(self):
        perm = underlying_permutation(BraidWord(2, (1, 1, 1)))
        assert perm.images == (2, 1)

    def test_three_cycle(self):
        perm = underlying_permutation(BraidWord(3, (1, -2)))
        assert perm.cycle_count() == 1
        assert sorted(perm.images) == [1, 2, 3]
        assert perm.images != (1, 2, 3)

    def test_homomorphism(self):
        rng = random.Random(4)
        for _ in range(300):
            strands = rng.randint(2, 5)
            w1 = random_word(rng, strands)
            w2 = random_word(rng, strands)
            combined = underlying_permutation(w1 * w2)
            assert combined == then(underlying_permutation(w1), underlying_permutation(w2))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestClosureComponents:
    def test_trivial_braid_unlink(self):
        assert closure_components(BraidWord(3, ())) == 3

    def test_trefoil_is_knot(self):
        assert closure_components(BraidWord(2, (1, 1, 1))) == 1

    def test_hopf_link(self):
        assert closure_components(BraidWord(2, (1, 1))) == 2


class TestStabilize:
    def test_adds_strand_and_letter(self):
        w = BraidWord(3, (1, -2))
        up = stabilize(w)
        assert up.strands == 4
        assert up.letters == (1, -2, 3)

    def test_negative_stabilization(self):
        assert stabilize(BraidWord(2, (1,)), sign=-1).letters == (1, -2)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            stabilize(BraidWord(2, ()), sign=2)


def test_letter_validation():
    with pytest.raises(GeneratorOutOfRange):
        BraidWord(3, (3,))
    with pytest.raises(GeneratorOutOfRange):
        BraidWord(2, (0,))


def test_input_checks():
    with pytest.raises(ValueError, match="strand count"):
        BraidWord(0, ())
    with pytest.raises(StrandMismatch):
        BraidWord(3, (1,)) * BraidWord(4, (1,))
    assert str(BraidWord(3, ())) == "<empty>"
    with pytest.raises(GeneratorOutOfRange):
        parse_braid("s0", 3)
    assert parse_braid("s1^0", 3).letters == ()

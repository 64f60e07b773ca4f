import random

import pytest

from knotfield.errors import IndexOutOfRange
from knotfield.freegroup import FreeAutomorphism, FreeWord


def random_free_word(rng, rank, max_len=10):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.randint(1, rank)
        letters.append(g if rng.random() < 0.5 else -g)
    return FreeWord.from_letters(rank, letters)


def identity_automorphism(rank):
    return FreeAutomorphism(rank, tuple(FreeWord.generator(i, rank) for i in range(1, rank + 1)))


class TestFreeWord:
    def test_normalization_merges_and_cancels(self):
        w = FreeWord(2, ((1, 1), (1, 2), (2, 1), (2, -1), (1, -3)))
        assert w.syllables == ()

    def test_adjacent_syllables_distinct(self):
        rng = random.Random(10)
        for _ in range(200):
            w = random_free_word(rng, 3)
            for (g1, e1), (g2, e2) in zip(w.syllables, w.syllables[1:]):
                assert g1 != g2
                assert e1 != 0 and e2 != 0

    def test_normalization_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_free_word(rng, 3)
            assert FreeWord(w.rank, w.syllables) == w

    def test_inverse(self):
        rng = random.Random(12)
        for _ in range(200):
            w = random_free_word(rng, 4)
            assert (w * w.inverse()).is_identity()
            assert (w.inverse() * w).is_identity()

    def test_power(self):
        w = FreeWord.from_letters(2, [1, 2])
        assert (w**3).letters() == [1, 2, 1, 2, 1, 2]
        assert (w**-1) == w.inverse()
        assert (w**0).is_identity()

    def test_power_matches_repeated_products(self):
        rng = random.Random(17)
        # conjugates and syllables that merge across the join of two copies
        words = [FreeWord.from_letters(2, [1, 2, -1]), FreeWord.from_letters(2, [1, 2, 1])]
        words += [random_free_word(rng, 3) for _ in range(50)]
        for w in words:
            one = FreeWord.identity(w.rank)
            for n in range(-3, 4):
                factor = w if n > 0 else w.inverse()
                expected = one
                for _ in range(abs(n)):
                    expected = expected * factor
                assert w**n == expected
                assert w**-n == expected.inverse()

    def test_associativity(self):
        rng = random.Random(13)
        for _ in range(200):
            a, b, c = (random_free_word(rng, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_exponent_sums(self):
        w = FreeWord.from_letters(3, [1, 2, -1, 2, 3, -3, -3])
        assert w.exponent_sums() == (0, 2, -1)

    def test_letters_roundtrip(self):
        rng = random.Random(14)
        for _ in range(100):
            w = random_free_word(rng, 3)
            assert FreeWord.from_letters(3, w.letters()) == w

    def test_rank_guard(self):
        with pytest.raises(IndexOutOfRange):
            FreeWord(2, ((3, 1),))

    def test_str(self):
        assert str(FreeWord.from_letters(2, [1, 1, -2])) == "x1^2 x2^-1"
        assert str(FreeWord.identity(2)) == "1"


class TestFreeAutomorphism:
    def test_identity_fixes_everything(self):
        rng = random.Random(15)
        ident = identity_automorphism(3)
        for _ in range(100):
            w = random_free_word(rng, 3)
            assert ident.apply(w) == w

    def test_apply_is_homomorphism(self):
        rng = random.Random(16)
        # a haphazard endomorphism is enough for the substitution law
        images = (
            FreeWord.from_letters(2, [1, 2]),
            FreeWord.from_letters(2, [2, -1, 2]),
        )
        endo = FreeAutomorphism(2, images)
        for _ in range(200):
            a = random_free_word(rng, 2)
            b = random_free_word(rng, 2)
            assert endo.apply(a * b) == endo.apply(a) * endo.apply(b)

    def test_image_count_guard(self):
        with pytest.raises(ValueError):
            FreeAutomorphism(2, (FreeWord.identity(2),))


def test_input_checks():
    assert FreeWord(2, ((1, 0), (2, 1))).syllables == ((2, 1),)
    with pytest.raises(ValueError, match="ranks"):
        FreeWord.generator(1, 2) * FreeWord.generator(1, 3)
    with pytest.raises(ValueError, match="image rank"):
        FreeAutomorphism(2, (FreeWord.generator(1, 3), FreeWord.generator(2, 3)))
    with pytest.raises(ValueError, match="word rank"):
        identity_automorphism(2).apply(FreeWord.generator(1, 3))

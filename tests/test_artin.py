"""Artin action, link-group presentations, abelianization.

The reference oracle here is an independent substitution engine working on
flat letter lists (signed integers) rather than syllable words: images of
generators are spliced in letter by letter and reduced with a stack.  Both
representations must agree on every image.
"""

import random

import pytest

from knotfield.artin import (
    GroupPresentation,
    abelianization,
    artin_generator,
    artin_rep,
    link_group_presentation,
)
from knotfield.braid import BraidWord, closure_components, markov_conjugate
from knotfield.errors import IndexOutOfRange
from knotfield.freegroup import FreeWord


# -- independent oracle ------------------------------------------------------


def oracle_generator_images(index, sign, strands):
    """Letter-list images of x1..xn under one Artin generator."""
    images = {g: [g] for g in range(1, strands + 1)}
    i = index
    if sign > 0:
        images[i] = [i, i + 1, -i]
        images[i + 1] = [i]
    else:
        images[i] = [i + 1]
        images[i + 1] = [-(i + 1), i, i + 1]
    return images


def oracle_reduce(letters):
    stack = []
    for k in letters:
        if stack and stack[-1] == -k:
            stack.pop()
        else:
            stack.append(k)
    return stack


def oracle_substitute(word_letters, images):
    out = []
    for k in word_letters:
        img = images[abs(k)]
        out.extend(img if k > 0 else [-v for v in reversed(img)])
    return oracle_reduce(out)


def oracle_artin_images(braid: BraidWord):
    """Images of every generator under the whole braid, first letter first."""
    current = {g: [g] for g in range(1, braid.strands + 1)}
    for k in braid.letters:
        step = oracle_generator_images(abs(k), 1 if k > 0 else -1, braid.strands)
        current = {
            g: oracle_substitute(word, step) for g, word in current.items()
        }
    return current


def random_word(rng, strands, max_len=10):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.randint(1, strands - 1)
        letters.append(g if rng.random() < 0.5 else -g)
    return BraidWord(strands, tuple(letters))


# -- generators ----------------------------------------------------------------


class TestArtinGenerator:
    def test_positive_images(self):
        gen = artin_generator(1, 1, 2)
        assert gen.images[0] == FreeWord.from_letters(2, [1, 2, -1])
        assert gen.images[1] == FreeWord.generator(1, 2)

    def test_negative_images(self):
        gen = artin_generator(1, -1, 2)
        assert gen.images[0] == FreeWord.generator(2, 2)
        assert gen.images[1] == FreeWord.from_letters(2, [-2, 1, 2])

    def test_outside_support_fixed(self):
        gen = artin_generator(1, 1, 3)
        assert gen.images[2] == FreeWord.generator(3, 3)

    def test_inverse_composes_to_identity(self):
        for n in range(2, 6):
            for i in range(1, n):
                plus = artin_generator(i, 1, n)
                minus = artin_generator(i, -1, n)
                assert plus.then(minus).is_identity()
                assert minus.then(plus).is_identity()

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            artin_generator(3, 1, 3)
        with pytest.raises(IndexOutOfRange):
            artin_generator(0, 1, 3)


class TestArtinRep:
    def test_empty_braid(self):
        assert artin_rep(BraidWord(3, ())).is_identity()

    def test_inverse_pair(self):
        assert artin_rep(BraidWord(3, (1, -1))).is_identity()

    def test_triple_twist_matches_generator_cube(self):
        phi = artin_generator(1, 1, 2)
        cube = phi.then(phi).then(phi)
        assert artin_rep(BraidWord(2, (1, 1, 1))) == cube

    def test_matches_substitution_oracle(self):
        rng = random.Random(20)
        for _ in range(150):
            braid = random_word(rng, rng.randint(2, 5))
            auto = artin_rep(braid)
            expected = oracle_artin_images(braid)
            for g in range(1, braid.strands + 1):
                assert auto.images[g - 1].letters() == expected[g]

    def test_braid_relations(self):
        for n in range(3, 7):
            for i in range(1, n - 1):
                left = artin_rep(BraidWord(n, (i, i + 1, i)))
                right = artin_rep(BraidWord(n, (i + 1, i, i + 1)))
                assert left == right

    def test_far_commutation(self):
        for n in range(4, 7):
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert artin_rep(BraidWord(n, (i, j))) == artin_rep(BraidWord(n, (j, i)))

    def test_fixes_product_of_generators(self):
        rng = random.Random(21)
        for _ in range(200):
            braid = random_word(rng, rng.randint(2, 6))
            auto = artin_rep(braid)
            product = FreeWord.from_letters(braid.strands, list(range(1, braid.strands + 1)))
            assert auto.apply(product) == product


# -- presentations ---------------------------------------------------------------


class TestLinkGroupPresentation:
    def test_trivial_braid_gives_free_group(self):
        pres = link_group_presentation(BraidWord(3, ()))
        assert pres.generator_count == 3
        assert pres.relators == ()

    def test_relators_match_oracle(self):
        braid = BraidWord(2, (1, 1, 1))
        pres = link_group_presentation(braid)
        images = oracle_artin_images(braid)
        expected = [
            oracle_reduce([-g] + images[g])
            for g in (1, 2)
            if oracle_reduce([-g] + images[g])
        ]
        assert [r.letters() for r in pres.relators] == expected

    def test_trefoil_abelianization(self):
        pres = link_group_presentation(BraidWord(2, (1, 1, 1)))
        assert abelianization(pres) == (1, [])

    def test_hopf_abelianization(self):
        pres = link_group_presentation(BraidWord(2, (1, 1)))
        assert abelianization(pres) == (2, [])

    def test_free_rank_equals_components(self):
        rng = random.Random(22)
        for _ in range(150):
            braid = random_word(rng, rng.randint(2, 4))
            free_rank, _ = abelianization(link_group_presentation(braid))
            assert free_rank == closure_components(braid)

    def test_markov_move_preserves_abelianization(self):
        rng = random.Random(23)
        for _ in range(100):
            strands = rng.randint(2, 4)
            braid = random_word(rng, strands)
            conj = random_word(rng, strands, max_len=6)
            moved = markov_conjugate(braid, conj)
            assert abelianization(link_group_presentation(moved)) == abelianization(
                link_group_presentation(braid)
            )

    def test_text_rendering(self):
        pres = link_group_presentation(BraidWord(2, (1, 1)))
        text = str(pres)
        assert text.startswith("⟨x1, x2 | ")
        assert text.endswith("⟩")


class TestAbelianization:
    def test_free_group(self):
        assert abelianization(GroupPresentation(3, ())) == (3, [])

    def test_single_torsion(self):
        pres = GroupPresentation(1, (FreeWord(1, ((1, 2),)),))
        assert abelianization(pres) == (0, [2])

    def test_mixed_torsion_divisibility(self):
        pres = GroupPresentation(
            2, (FreeWord(2, ((1, 2),)), FreeWord(2, ((2, 4),)))
        )
        free_rank, torsion = abelianization(pres)
        assert free_rank == 0
        assert torsion == [2, 4]
        assert torsion[1] % torsion[0] == 0


def test_input_checks():
    with pytest.raises(ValueError, match="sign"):
        artin_generator(1, 2, 3)
    with pytest.raises(ValueError, match="rank"):
        GroupPresentation(2, (FreeWord.generator(1, 3),))
    assert str(GroupPresentation(2, ())) == "⟨x1, x2 |⟩"

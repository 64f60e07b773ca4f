"""Artin action, link-group presentations, abelianization.

The reference oracle here is an independent substitution engine working on
flat letter lists (signed integers) rather than syllable words: images of
generators are spliced in letter by letter and reduced with a stack.  Both
representations must agree on every image.
"""

import random

import pytest

from knotfield import artin
from knotfield.artin import (
    GroupPresentation,
    abelianization,
    arc_presentation,
    artin_generator,
    artin_rep,
    link_group_presentation,
)
from knotfield.braid import BraidWord, closure_components, markov_conjugate
from knotfield.errors import BudgetExceeded, IndexOutOfRange
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
                for pair in ((i, -i), (-i, i)):
                    auto = artin_rep(BraidWord(n, pair))
                    assert auto.is_identity()
                    expected = oracle_artin_images(BraidWord(n, pair))
                    assert [image.letters() for image in auto.images] == [expected[g] for g in range(1, n + 1)]

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
        cube = tuple(phi.apply(phi.apply(image)) for image in phi.images)
        assert artin_rep(BraidWord(2, (1, 1, 1))).images == cube

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


class TestRelatorLimit:
    def test_long_relators_are_refused(self):
        # Artin's relators for (s1 s2^-1)^k grow about 2.6 times per pair of letters
        pres = link_group_presentation(BraidWord(3, (1, -2) * 10))
        assert sum(len(r.letters()) for r in pres.relators) == 43784
        with pytest.raises(
            BudgetExceeded,
            match="^Artin relators of a braid suffix reach 114628 letters, past the limit of 100000$",
        ):
            link_group_presentation(BraidWord(3, (1, -2) * 11))

    def test_limit_counts_relator_letters(self, monkeypatch):
        # s1^3 on two strands: the relators hold 4, 8 and 12 letters after
        # each braid letter (x1^-1 cancels the leading x1 of x1's image)
        braid = BraidWord(2, (1, 1, 1))
        monkeypatch.setattr(artin, "MAX_RELATOR_LETTERS", 12)
        assert sum(len(r.letters()) for r in link_group_presentation(braid).relators) == 12
        monkeypatch.setattr(artin, "MAX_RELATOR_LETTERS", 11)
        with pytest.raises(BudgetExceeded, match="reach 12 letters, past the limit of 11"):
            link_group_presentation(braid)
        monkeypatch.setattr(artin, "MAX_RELATOR_LETTERS", 7)
        with pytest.raises(BudgetExceeded, match="reach 8 letters, past the limit of 7"):
            link_group_presentation(braid)

    def test_cancelling_word_is_reduced_first(self):
        # (s1 s2^-1)^11 (s2 s1^-1)^11 is freely trivial: its prefix (s1 s2^-1)^11
        # alone passes the limit, but the reduced word has no letters
        braid = BraidWord(3, (1, -2) * 11 + (2, -1) * 11)
        assert str(link_group_presentation(braid)) == "⟨x1, x2, x3 |⟩"
        # a cancelling pair inside a word leaves the relators unchanged
        assert link_group_presentation(BraidWord(3, (1, 2, -2, -1, 1, -2))) == link_group_presentation(
            BraidWord(3, (1, -2))
        )


class TestArcPresentation:
    def test_one_short_relator_per_crossing(self):
        rng = random.Random(24)
        for _ in range(100):
            braid = random_word(rng, rng.randint(2, 5))
            pres = arc_presentation(braid)
            assert pres.branch_generators == braid.strands
            assert braid.strands <= pres.generator_count <= braid.strands + len(braid.letters)
            assert len(pres.relators) <= len(braid.letters) + braid.strands
            assert all(1 <= len(r.letters()) <= 4 for r in pres.relators)
            # cyclically reduced: no relator starts with the inverse of its last letter
            assert all(r.letters()[0] != -r.letters()[-1] for r in pres.relators)

    def test_same_abelianization_as_artin(self):
        rng = random.Random(25)
        for _ in range(100):
            braid = random_word(rng, rng.randint(2, 5))
            assert abelianization(arc_presentation(braid)) == abelianization(link_group_presentation(braid))

    def test_trefoil(self):
        # s1^3 read last to first: arcs a3 = x1 x2 x1^-1, a4 = a3 x1 a3^-1,
        # a5 = a4 a3 a4^-1; the closure names a5 x1 and a4 x2
        pres = arc_presentation(BraidWord(2, (1, 1, 1)))
        assert str(pres) == "⟨x1, x2, x3 | x3^-1 x1 x2 x1^-1, x2^-1 x3 x1 x3^-1, x1^-1 x2 x3 x2^-1⟩"

    def test_long_braid_stays_linear(self):
        pres = arc_presentation(BraidWord(3, (1, -2) * 64))
        assert pres.generator_count == 3 + 128 - 3
        assert sum(len(r.letters()) for r in pres.relators) == 4 * 128


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

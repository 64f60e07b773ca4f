"""Coset-table subgroup enumeration.

Oracle: conjugacy classes of index-k subgroups of a finitely presented
group correspond to transitive actions on {0..k-1} up to relabelling, so
for small k we enumerate all generator-image tuples in the symmetric group
directly, filter by the relators and transitivity, and count orbits under
simultaneous conjugation.  Normality is cross-checked by conjugating
Schreier generators of the subgroup.  The search tree itself is checked
against a copy of the closure that rescans every relator at every coset.
"""

import itertools
import random
import re

import pytest

from knotfield.artin import (
    GroupPresentation,
    arc_presentation,
    link_group_presentation,
)
from knotfield.braid import BraidWord, free_reduce
from knotfield.errors import BudgetExceeded
from knotfield import report, subgroups
from knotfield.freegroup import FreeWord
from knotfield.report import normal_subgroup_counts
from knotfield.subgroups import SubgroupRecord, low_index_subgroups


# -- oracle --------------------------------------------------------------------


def _perms(k):
    return list(itertools.permutations(range(k)))


def _compose(p, q):
    # apply p first, then q
    return tuple(q[x] for x in p)


def _act_letter(perm_images, letter, point):
    perm = perm_images[abs(letter) - 1]
    if letter > 0:
        return perm[point]
    return perm.index(point)


def _satisfies(perm_images, relators, k):
    for rel in relators:
        for start in range(k):
            point = start
            for letter in rel:
                point = _act_letter(perm_images, letter, point)
            if point != start:
                return False
    return True


def _transitive(perm_images, k):
    seen = {0}
    frontier = [0]
    while frontier:
        point = frontier.pop()
        for perm in perm_images:
            for image in (perm[point], perm.index(point)):
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
    return len(seen) == k


def oracle_class_count(presentation: GroupPresentation, k: int) -> int:
    """Number of conjugacy classes of index-k subgroups, by brute force."""
    relators = [r.letters() for r in presentation.relators]
    perms = _perms(k)
    actions = set()
    for images in itertools.product(perms, repeat=presentation.generator_count):
        if _transitive(images, k) and _satisfies(images, relators, k):
            actions.add(images)
    classes = set()
    for images in actions:
        # relabelling by c sends the permutation g to c g c^-1
        orbit_min = min(
            tuple(tuple(c[g[c.index(x)]] for x in range(k)) for g in images) for c in perms
        )
        classes.add(orbit_min)
    return len(classes)


def oracle_is_normal(record: SubgroupRecord, presentation: GroupPresentation) -> bool:
    """Conjugate every Schreier generator of the subgroup by every group
    generator and check the result stays in the subgroup (fixes coset 0)."""
    table = record.coset_table
    rank = presentation.generator_count
    k = record.index
    # spanning words: a letter word from coset 0 to each coset
    words = {0: []}
    frontier = [0]
    while frontier:
        coset = frontier.pop(0)
        for g in range(1, rank + 1):
            for letter, col in ((g, 2 * (g - 1)), (-g, 2 * (g - 1) + 1)):
                target = table[coset][col]
                if target not in words:
                    words[target] = words[coset] + [letter]
                    frontier.append(target)
    assert len(words) == k

    def follow(letters):
        point = 0
        for letter in letters:
            col = 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)
            point = table[point][col]
        return point

    schreier = []
    for coset in range(k):
        for g in range(1, rank + 1):
            col = 2 * (g - 1)
            target = table[coset][col]
            word = words[coset] + [g] + [-l for l in reversed(words[target])]
            if follow(word) != 0:
                raise AssertionError("schreier word left the subgroup")
            schreier.append(word)
    for word in schreier:
        for g in range(1, rank + 1):
            for conj in ([g], [-g]):
                test = [-l for l in reversed(conj)] + word + conj
                if follow(test) != 0:
                    return False
    return True


def full_rescan_closure(presentation, calls):
    """The closure the deduction queue replaced: scan every relator at every
    coset until nothing changes.  ``calls[0]`` counts the definitions tried,
    which is what the node budget counts."""
    words = [
        tuple(2 * (abs(k) - 1) + (0 if k > 0 else 1) for k in r.letters())
        for r in presentation.relators
    ]

    def define(table, alpha, col, beta, trail):
        table[alpha][col] = beta
        trail.append((alpha, col))
        if table[beta][col ^ 1] is None:
            table[beta][col ^ 1] = alpha
            trail.append((beta, col ^ 1))

    def scan(table, start, word, trail):
        length = len(word)
        f, i = start, 0
        while i < length and table[f][word[i]] is not None:
            f = table[f][word[i]]
            i += 1
        if i == length:
            return "ok" if f == start else "dead"
        b, j = start, length
        while j > i and table[b][word[j - 1] ^ 1] is not None:
            b = table[b][word[j - 1] ^ 1]
            j -= 1
        if j == i:
            return "ok" if f == b else "dead"
        if j == i + 1:
            if table[b][word[i] ^ 1] is not None and table[b][word[i] ^ 1] != f:
                return "dead"
            define(table, f, word[i], b, trail)
            return "deduced"
        return "ok"

    def close(table, _rotations, trail):
        calls[0] += 1
        changed = True
        while changed:
            changed = False
            for word in words:
                for start in range(len(table)):
                    status = scan(table, start, word, trail)
                    if status == "dead":
                        return False
                    changed = changed or status == "deduced"
        return True

    return close


def presentation_from_letters(rank, relator_letters):
    return GroupPresentation(
        rank, tuple(FreeWord.from_letters(rank, ls) for ls in relator_letters)
    )


FREE_2 = presentation_from_letters(2, [])
TREFOIL = presentation_from_letters(2, [[1, 2, 1, -2, -1, -2]])
TRIVIAL = presentation_from_letters(1, [[1]])
FIGURE_EIGHT = link_group_presentation(BraidWord(3, (1, -2, 1, -2)))


def least_renumbering(table):
    """The least renumbering of a complete coset table over all base cosets,
    each in row-major discovery order."""
    variants = []
    for base in range(len(table)):
        order = [base]
        for coset in order:
            for target in table[coset]:
                if target not in order:
                    order.append(target)
        variants.append(tuple(tuple(order.index(t) for t in table[c]) for c in order))
    return min(variants)


# -- tests --------------------------------------------------------------------


class TestKnownCounts:
    def test_free_group_index_two(self):
        records = low_index_subgroups(FREE_2, 2)
        index_two = [r for r in records if r.index == 2]
        assert len(index_two) == 3
        assert all(r.is_normal for r in index_two)
        assert oracle_class_count(FREE_2, 2) == 3

    def test_free_group_index_three_matches_oracle(self):
        records = low_index_subgroups(FREE_2, 3)
        ours = len([r for r in records if r.index == 3])
        assert ours == oracle_class_count(FREE_2, 3)

    def test_trefoil_index_two(self):
        records = low_index_subgroups(TREFOIL, 2)
        index_two = [r for r in records if r.index == 2]
        assert len(index_two) == 1
        assert oracle_class_count(TREFOIL, 2) == 1

    def test_trefoil_matches_oracle_up_to_four(self):
        records = low_index_subgroups(TREFOIL, 4)
        for k in (2, 3, 4):
            ours = len([r for r in records if r.index == k])
            assert ours == oracle_class_count(TREFOIL, k), f"index {k}"

    def test_trivial_group(self):
        records = low_index_subgroups(TRIVIAL, 4)
        assert len(records) == 1
        assert records[0].index == 1
        assert records[0].is_normal

    def test_whole_group_always_listed(self):
        records = low_index_subgroups(FREE_2, 2)
        assert records[0].index == 1


class TestFigureEight:
    def test_counts_to_index_nine(self):
        records = low_index_subgroups(FIGURE_EIGHT, 9)
        classes = tuple(sum(1 for r in records if r.index == k) for k in range(1, 10))
        normal = tuple(sum(1 for r in records if r.index == k and r.is_normal) for k in range(1, 10))
        assert classes == (1, 1, 1, 2, 4, 11, 9, 10, 11)
        assert normal == (1,) * 9


class TestDeductionQueue:
    """The queue rescans only the relator rotations through new edges; it
    must reach the same tables and try the same definitions as a full
    rescan."""

    CORPUS = [
        (FIGURE_EIGHT, 7),
        (link_group_presentation(BraidWord(3, (1, 1, -2, -2))), 5),
        (link_group_presentation(BraidWord(3, (-1, 2, -1, 2, 2))), 4),
        (TREFOIL, 5),
        (FREE_2, 4),
        # one-letter relators and proper powers
        (TRIVIAL, 3),
        (presentation_from_letters(2, [[2]]), 4),
        (presentation_from_letters(2, [[1, 2, -1, -2], [2]]), 4),
        (presentation_from_letters(1, [[1] * 6]), 7),
        (presentation_from_letters(2, [[1, 1], [2, 2, 2]]), 5),
        # branching on the x columns only
        (arc_presentation(BraidWord(3, (-1, 2, -1, 2, 2))), 5),
        (arc_presentation(BraidWord(2, (1, 1, 1))), 5),
        # on 2 strands Artin's second relator is a rotation of the first's inverse
        (link_group_presentation(BraidWord(2, (1, 1, 1, 1, 1))), 6),
        (link_group_presentation(BraidWord(2, (1, 1, 1))), 6),
        # a rotation of w^-1 and w again beside w = x1 x2 x1^-1 x2 x2
        (presentation_from_letters(2, [[1, 2, -1, 2, 2], [-2, 1, -2, -1, -2], [1, 2, -1, 2, 2]]), 5),
        # the reverse of a word is not its inverse, and is kept
        (presentation_from_letters(3, [[-2, 1, 2, -3], [-3, 2, 1, -2]]), 3),
    ]

    @pytest.mark.parametrize("presentation, max_index", CORPUS)
    def test_same_records_and_nodes_as_full_rescan(self, presentation, max_index, monkeypatch):
        expected = low_index_subgroups(presentation, max_index)
        calls = [0]
        with monkeypatch.context() as patch:
            patch.setattr(
                subgroups, "_close_under_relators", full_rescan_closure(presentation, calls)
            )
            assert low_index_subgroups(presentation, max_index) == expected
        nodes = calls[0]
        monkeypatch.setattr(subgroups, "NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetExceeded):
            low_index_subgroups(presentation, max_index)
        monkeypatch.setattr(subgroups, "NODE_BUDGET", nodes)
        assert low_index_subgroups(presentation, max_index) == expected

    def test_minimality_work(self, monkeypatch):
        # a base compared larger or smaller is not compared again below that node
        calls = [0]
        compare = subgroups._compare_renumbered

        def counted(table, base):
            calls[0] += 1
            return compare(table, base)

        monkeypatch.setattr(subgroups, "_compare_renumbered", counted)
        records = low_index_subgroups(link_group_presentation(BraidWord(2, (1, 1, 1, 1, 1))), 8)
        assert len(records) == 35
        assert calls[0] == 20963

    def test_rotated_inverse_relators_match_oracle(self):
        rng = random.Random(28)
        checked = 0
        while checked < 25:
            rank = rng.randint(1, 2)
            letters = (1, -1, 2, -2)[: 2 * rank]
            length = rng.randint(1, 6)
            word = [rng.choice(letters)]
            while len(word) < length:
                letter = rng.choice(letters)
                if letter != -word[-1]:
                    word.append(letter)
            if word[-1] == -word[0] and len(word) > 1:
                continue
            inverse = [-k for k in reversed(word)]
            k = rng.randrange(len(word))
            relators = [word, inverse[k:] + inverse[:k]]
            if rng.random() < 0.5:
                relators.append([rng.choice(letters) for _ in range(rng.randint(1, 3))])
            rng.shuffle(relators)
            pres = presentation_from_letters(rank, relators)
            records = low_index_subgroups(pres, 4)
            for index in range(1, 5):
                ours = len([r for r in records if r.index == index])
                assert ours == oracle_class_count(pres, index), (relators, index)
            checked += 1

    def test_proper_power_gives_one_normal_class_per_divisor(self):
        # <x1 | x1^6> is cyclic of order 6: one subgroup per divisor
        records = low_index_subgroups(presentation_from_letters(1, [[1] * 6]), 7)
        assert [r.index for r in records] == [1, 2, 3, 6]
        assert all(r.is_normal for r in records)

    def test_free_product_of_cyclic_groups_matches_oracle(self):
        # <x1, x2 | x1^2, x2^3>: x1 is an involution, so edges with alpha == beta occur
        pres = presentation_from_letters(2, [[1, 1], [2, 2, 2]])
        records = low_index_subgroups(pres, 5)
        for k in range(1, 6):
            ours = len([r for r in records if r.index == k])
            assert ours == oracle_class_count(pres, k), f"index {k}"


class TestNormalOnly:
    """Only the normal subgroups: the report counts them as braid-fixed
    epimorphisms onto the groups of order <= 10, and the counts must be
    those of the normal records of the full search."""

    CORPUS = [
        ("1 -2 1 -2", 3, 8),
        ("1 1 1 -2", 3, 8),
        ("1 1 -2 -2", 3, 6),
        ("1 1 1 1 1", 2, 8),
        ("1 -2 3 -2", 4, 6),
        ("1 -2 1 -2 1 -2", 3, 5),
        ("-1 2 -1 2 2", 3, 5),
    ]

    @staticmethod
    def normal_records(presentation, max_index):
        return [r for r in low_index_subgroups(presentation, max_index) if r.is_normal]

    @staticmethod
    def counts(records, max_index):
        return [sum(1 for r in records if r.index == m) for m in range(1, max_index + 1)]

    @pytest.mark.parametrize("text, strands, max_index", CORPUS)
    def test_equals_filtered_full_search(self, text, strands, max_index):
        braid = BraidWord(strands, tuple(int(v) for v in text.split()))
        presentation = link_group_presentation(braid)
        normal = self.normal_records(presentation, max_index)
        assert all(oracle_is_normal(r, presentation) for r in normal)
        assert normal_subgroup_counts(braid, max_index) == self.counts(normal, max_index)

    def test_seeded_three_braids(self):
        # braids whose reduced word uses both generators; a split closure
        # such as that of s1^-5 has too many subgroups to search at index 6
        rng = random.Random(24)
        count = 0
        while count < 30:
            braid = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 7))))
            if {abs(k) for k in free_reduce(braid).letters} == {1, 2}:
                count += 1
                normal = self.normal_records(arc_presentation(braid), 6)
                assert normal_subgroup_counts(braid, 6) == self.counts(normal, 6), braid

    def test_budget_exceeded(self, monkeypatch):
        # counted on the reduced word (1 -2)^2 at max_index 4: 1 + 8 + 27 + 64 + 64
        # tuples, each with one step to start and one per letter
        monkeypatch.setattr(report, "TUPLE_STEPS", 820)
        braid = BraidWord(3, (1, -2, 2, -2, 1, -2))
        assert normal_subgroup_counts(braid, 4) == [1, 1, 1, 1]
        monkeypatch.setattr(report, "TUPLE_STEPS", 819)
        with pytest.raises(
            BudgetExceeded, match="^normal-subgroup count of 820 tuple steps at max_index 4 exceeds the limit of 819$"
        ):
            normal_subgroup_counts(braid, 4)


class TestArcPresentation:
    """The arc presentation branches on the x columns only and fills the arc
    columns by deduction; its records must be the Artin search's records."""

    def test_same_records_as_artin(self):
        rng = random.Random(20)
        for _ in range(60):
            strands = rng.randint(2, 4)
            letters = tuple(
                rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 7))
            )
            max_index = rng.randint(1, 5)
            braid = BraidWord(strands, letters)
            artin, arcs = (
                low_index_subgroups(pres, max_index)
                for pres in (link_group_presentation(braid), arc_presentation(braid))
            )
            assert arcs == artin, (strands, letters, max_index)

    def test_branch_generators_range(self):
        relator = FreeWord.from_letters(2, [-2, 1])
        assert GroupPresentation(2, (relator,)).branch_generators == 2
        assert GroupPresentation(2, (relator,), 1).branch_generators == 1
        for branch in (0, 3):
            with pytest.raises(ValueError, match="branch_generators"):
                GroupPresentation(2, (relator,), branch)

    def test_undetermined_generator_is_refused(self):
        # x2 of <x1, x2 | x2^2> is not fixed by x1's action
        with pytest.raises(ValueError, match="undetermined"):
            low_index_subgroups(GroupPresentation(2, (FreeWord.from_letters(2, [2, 2]),), 1), 2)


class TestUnknotPresentation:
    def test_infinite_cyclic_counts(self):
        # the closure of s1 s2^-1 is unknotted, so its group is infinite cyclic:
        # one subgroup per index, every one normal
        pres = link_group_presentation(BraidWord(3, (1, -2)))
        records = low_index_subgroups(pres, 4)
        by_index = {}
        for r in records:
            by_index.setdefault(r.index, []).append(r)
        for k in (1, 2, 3, 4):
            assert len(by_index[k]) == 1
            assert by_index[k][0].is_normal


class TestRecordInvariants:
    @pytest.mark.parametrize("presentation", [TREFOIL, FREE_2, FIGURE_EIGHT])
    def test_relators_act_trivially(self, presentation):
        rank = presentation.generator_count
        relators = [r.letters() for r in presentation.relators]
        for record in low_index_subgroups(presentation, 4):
            table = record.coset_table
            assert all(table[row[2 * g]][2 * g + 1] == c for c, row in enumerate(table) for g in range(rank))
            images = tuple(tuple(row[2 * g] for row in table) for g in range(rank))
            assert _satisfies(images, relators, record.index)

    def test_tables_are_permutation_actions(self):
        for record in low_index_subgroups(TREFOIL, 4):
            rank = TREFOIL.generator_count
            for g in range(rank):
                column = [row[2 * g] for row in record.coset_table]
                assert sorted(column) == list(range(record.index))

    @pytest.mark.parametrize("presentation", [FREE_2, TREFOIL, FIGURE_EIGHT])
    def test_normality_flag_matches_oracle(self, presentation):
        for record in low_index_subgroups(presentation, 4):
            assert record.is_normal == oracle_is_normal(record, presentation)

    @pytest.mark.parametrize("presentation", [FREE_2, TREFOIL, FIGURE_EIGHT])
    def test_tables_are_least_renumberings(self, presentation):
        records = low_index_subgroups(presentation, 4)
        for record in records:
            assert record.coset_table == least_renumbering(record.coset_table)
        assert len({r.coset_table for r in records}) == len(records)

    def test_sorted_deterministic(self):
        once = low_index_subgroups(FREE_2, 3)
        twice = low_index_subgroups(FREE_2, 3)
        assert once == twice
        assert [r.index for r in once] == sorted(r.index for r in once)


class TestGuards:
    def test_budget_exceeded(self, monkeypatch):
        monkeypatch.setattr(subgroups, "NODE_BUDGET", 5)
        with pytest.raises(
            BudgetExceeded,
            match="node budget of 5 definitions exhausted at max_index 4, with the search at index 2$",
        ):
            low_index_subgroups(FREE_2, 4)

    def test_rotation_limit(self, monkeypatch):
        # relators of 4 and 3 letters hold 4**2 + 3**2 letters in their rotations
        presentation = presentation_from_letters(2, [[1, 2, -1, -2], [1, 1, 1]])
        monkeypatch.setattr(subgroups, "ROTATION_LETTERS", 25)
        assert low_index_subgroups(presentation, 3)
        monkeypatch.setattr(subgroups, "ROTATION_LETTERS", 24)
        with pytest.raises(BudgetExceeded, match="^relator rotations of 25 letters exceed the limit of 24$"):
            low_index_subgroups(presentation, 3)

    def test_long_artin_relators_are_refused_before_the_search(self):
        # Artin's relators of (1 -2)^9 hold 8360, 3194 and 5170 letters, 6.9 times
        # the squared lengths of (1 -2)^8, whose search at index 2 peaks near 380 MiB
        presentation = link_group_presentation(BraidWord(3, (1, -2) * 9))
        with pytest.raises(
            BudgetExceeded, match="^relator rotations of 106820136 letters exceed the limit of 20000000$"
        ):
            low_index_subgroups(presentation, 2)

    def test_index_cap(self):
        with pytest.raises(ValueError):
            low_index_subgroups(FREE_2, 11)

    def test_bad_max_index(self):
        with pytest.raises(ValueError):
            low_index_subgroups(FREE_2, 0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_max_index_must_be_an_int(self, value):
        with pytest.raises(ValueError, match=f"^max_index must be an int, got {re.escape(repr(value))}$"):
            low_index_subgroups(FREE_2, value)
        with pytest.raises(ValueError, match=f"^max_index must be an int, got {re.escape(repr(value))}$"):
            normal_subgroup_counts(BraidWord(3, (1, -2)), value)


def test_random_presentations_match_oracle():
    rng = random.Random(31)
    for _ in range(10):
        rank = rng.randint(1, 2)
        relators = []
        for _ in range(rng.randint(0, 2)):
            length = rng.randint(1, 4)
            relators.append(
                [rng.choice([1, -1, rank, -rank]) for _ in range(length)]
            )
        pres = presentation_from_letters(rank, relators)
        records = low_index_subgroups(pres, 3)
        for k in (1, 2, 3):
            ours = len([r for r in records if r.index == k])
            assert ours == oracle_class_count(pres, k), (relators, k)

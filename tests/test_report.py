import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from knotfield import report
from knotfield.artin import artin_rep
from knotfield.braid import BraidWord, closure_components, free_reduce, underlying_permutation
from knotfield.cli import run
from knotfield.errors import NonHyperbolic
from knotfield.invariant import monodromy
from knotfield.numfield import ideals_of_norm, make_field
from knotfield.report import SMALL_GROUPS, _cayley, correspondence_report, normal_subgroup_counts
from knotfield.smith import smith_invariants


def test_unknot_closure_rows():
    # closure of s1 s2^-1 is unknotted: the group is infinite cyclic with one
    # normal subgroup per index, and the field is Q(sqrt(5))
    report = correspondence_report(BraidWord(3, (1, -2)), 4)
    assert report.invariant.field.field_str() == "Q(sqrt(5))"
    assert [(r.index, r.normal_subgroups, r.ideals_of_norm) for r in report.rows] == [
        (1, 1, 1),
        (2, 1, 0),
        (3, 1, 0),
        (4, 1, 1),
    ]


def test_trefoil_like_closure_rows():
    # s1^3 s2^-1 closes to a trefoil; its group has one normal subgroup per
    # index here, and the field is Q(sqrt(21)) where 2 is inert and 3 ramifies
    report = correspondence_report(BraidWord(3, (1, 1, 1, -2)), 3)
    assert report.invariant.radicand == 21
    assert [(r.index, r.normal_subgroups, r.ideals_of_norm) for r in report.rows] == [
        (1, 1, 1),
        (2, 1, 0),
        (3, 1, 1),
    ]


def test_ideal_column_matches_field_counts():
    report = correspondence_report(BraidWord(3, (1, -2)), 4)
    field = make_field(5)
    for row in report.rows:
        assert row.ideals_of_norm == ideals_of_norm(field, row.index)


def test_non_hyperbolic_braid_rejected():
    with pytest.raises(NonHyperbolic):
        correspondence_report(BraidWord(3, ()), 4)


def test_json_shape():
    result = run(["--json", "report", "correspondence", "--braid", "1 -2", "--max-index", "2"])
    assert result.exit_code == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["field"] == "Q(sqrt(5))"
    assert payload["rows"][0] == {"index": 1, "normal_subgroups": 1, "ideals_of_norm": 1}


@pytest.mark.parametrize(
    "text, max_index, rows",
    [
        (
            "1 -2 1 -2",
            8,
            [(1, 1, 1), (2, 1, 0), (3, 1, 0), (4, 1, 1), (5, 1, 1), (6, 1, 0), (7, 1, 0), (8, 1, 0)],
        ),
        (
            "1 1 1 -2",
            8,
            [(1, 1, 1), (2, 1, 0), (3, 1, 1), (4, 1, 1), (5, 1, 2), (6, 2, 0), (7, 1, 1), (8, 1, 0)],
        ),
        ("1 1 -2 -2", 6, [(1, 1, 1), (2, 7, 1), (3, 13, 0), (4, 35, 1), (5, 31, 0), (6, 94, 0)]),
    ],
)
def test_pinned_rows(text, max_index, rows):
    report = correspondence_report(BraidWord(3, tuple(int(v) for v in text.split())), max_index)
    assert [(r.index, r.normal_subgroups, r.ideals_of_norm) for r in report.rows] == rows


def test_three_component_link_output():
    # `1 1 -2 -2` closes to a three-component link whose group has many
    # normal subgroups; the text and JSON output are pinned byte for byte
    argv = ["report", "correspondence", "--braid", "1 1 -2 -2", "--max-index", "6"]
    text = run(argv)
    assert (text.exit_code, text.stderr) == (0, "")
    assert text.stdout == (
        "field Q(sqrt(32))\n"
        "  m  normal subgroups  ideals of norm m\n"
        "  1                 1                 1\n"
        "  2                 7                 1\n"
        "  3                13                 0\n"
        "  4                35                 1\n"
        "  5                31                 0\n"
        "  6                94                 0\n"
    )
    payload = run(["--json", *argv])
    assert (payload.exit_code, payload.stderr) == (0, "")
    assert payload.stdout == (
        '{"field": "Q(sqrt(32))", "rows": ['
        '{"index": 1, "normal_subgroups": 1, "ideals_of_norm": 1}, '
        '{"index": 2, "normal_subgroups": 7, "ideals_of_norm": 1}, '
        '{"index": 3, "normal_subgroups": 13, "ideals_of_norm": 0}, '
        '{"index": 4, "normal_subgroups": 35, "ideals_of_norm": 1}, '
        '{"index": 5, "normal_subgroups": 31, "ideals_of_norm": 0}, '
        '{"index": 6, "normal_subgroups": 94, "ideals_of_norm": 0}]}\n'
    )


@pytest.mark.parametrize(
    "text, normal",
    [
        # the coset search ran out of its node budget on both; without the
        # budget it took 88 s and 18 s (CPython 3.11, 2 vCPUs)
        ("1 1 1 1 1 -2 -2 -2 -2 -2", [1, 1, 1, 1, 1, 1, 1, 1, 1, 7]),
        ("-1 2 -1 -1 -1 -2 -1 -1", [1, 1, 1, 1, 1, 5, 1, 1, 1, 1]),
    ],
)
def test_rows_past_the_coset_search(text, normal):
    report_rows = correspondence_report(BraidWord(3, tuple(int(v) for v in text.split())), 10).rows
    assert [r.normal_subgroups for r in report_rows] == normal


# -- the groups of order <= 10 ----------------------------------------------------


def closure(mul, order, gens):
    seen = [0]
    for x in seen:
        seen.extend(y for y in (mul[x * order + g] for g in gens) if y not in seen)
    return set(seen)


def element_orders(k):
    mul, inv = _cayley(k)
    order = len(inv)
    return sorted(len(closure(mul, order, [a])) for a in range(order))


def brute_force_automorphisms(k):
    """Images of a least generating set that extend along every edge of
    the Cayley graph, f(x g) = f(x) f(g), to a bijection."""
    mul, inv = _cayley(k)
    order = len(inv)
    gens = next(
        c
        for size in range(order + 1)
        for c in itertools.combinations(range(order), size)
        if len(closure(mul, order, c)) == order
    )
    count = 0
    for images in itertools.product(range(order), repeat=len(gens)):
        f = {0: 0}
        todo = [0]
        consistent = True
        for x in todo:
            for g, h in zip(gens, images):
                y, z = mul[x * order + g], mul[f[x] * order + h]
                if y not in f:
                    f[y] = z
                    todo.append(y)
                consistent = consistent and f[y] == z
        count += consistent and len(set(f.values())) == order
    return count


def test_group_count_per_order():
    # OEIS A000001
    assert [sum(1 for g in SMALL_GROUPS if g[1] == m) for m in range(1, 11)] == [1, 1, 1, 2, 1, 2, 1, 5, 2, 2]


@pytest.mark.parametrize("k", range(len(SMALL_GROUPS)), ids=[g[0] for g in SMALL_GROUPS])
def test_cayley_table_is_a_group(k):
    mul, inv = _cayley(k)
    order = SMALL_GROUPS[k][1]
    elements = range(order)
    assert len(mul) == order * order and set(mul) == set(elements)
    for a in elements:
        assert mul[a * order] == mul[a] == a
        assert mul[a * order + inv[a]] == mul[inv[a] * order + a] == 0
    for a, b, c in itertools.product(elements, repeat=3):
        assert mul[mul[a * order + b] * order + c] == mul[a * order + mul[b * order + c]]


def test_groups_are_pairwise_non_isomorphic():
    profiles = {(g[1], tuple(element_orders(k))) for k, g in enumerate(SMALL_GROUPS)}
    assert len(profiles) == len(SMALL_GROUPS)


@pytest.mark.parametrize("k", range(len(SMALL_GROUPS)), ids=[g[0] for g in SMALL_GROUPS])
def test_automorphism_count(k):
    assert brute_force_automorphisms(k) == SMALL_GROUPS[k][2]


def test_tables_are_built_on_first_use():
    code = (
        "import knotfield.cli, knotfield.report as r; from knotfield.braid import BraidWord; "
        "print(r._cayley.cache_info().currsize); r.normal_subgroup_counts(BraidWord(3, (1, -2)), 4); "
        "print(r._cayley.cache_info().currsize)"
    )
    src = str(Path(report.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # nothing at import; then C1, C2, C3, C4 and C2 x C2
    assert done.stdout.split() == ["0", "5"]


def test_max_index_must_be_an_int():
    with pytest.raises(ValueError, match=r"^max_index must be an int, got 2\.5$"):
        correspondence_report(BraidWord(3, (1, -2)), 2.5)


def test_max_index_is_checked_before_the_field():
    # s1 is not hyperbolic, but the out-of-range bound is the error reported
    with pytest.raises(ValueError, match="^max_index must be at least 1, got 0$"):
        correspondence_report(BraidWord(3, (1,)), 0)


def test_remainder_is_an_internal_error(monkeypatch):
    # the unknot's group Z has two epimorphisms onto C3, not a multiple of 4
    groups = list(SMALL_GROUPS)
    groups[2] = ("C3", 3, 4, ("(0 1 2)",))
    monkeypatch.setattr(report, "SMALL_GROUPS", tuple(groups))
    with pytest.raises(RuntimeError, match="epimorphisms onto C3 are not a multiple of"):
        normal_subgroup_counts(BraidWord(3, (1, -2)), 3)


# -- the class-pattern walk against Artin's relators and the full walk ------------


def evaluate(word, values, mul, inv):
    """The element of Q that the free word names when x_j is values[j - 1]."""
    order = len(inv)
    g = 0
    for gen, exp in word.syllables:
        a = values[gen - 1] if exp > 0 else inv[values[gen - 1]]
        for _ in range(abs(exp)):
            g = mul[g * order + a]
    return g


def cycle_pattern(word):
    """Each strand's cycle, numbered by least strand, and whether each cycle
    is one strand other than the first: the pattern the walk starts from."""
    images = underlying_permutation(word).images
    cycles = []
    for i in range(word.strands):
        if not any(i in cycle for cycle in cycles):
            cycle = [i]
            while images[cycle[-1]] - 1 != i:
                cycle.append(images[cycle[-1]] - 1)
            cycles.append(cycle)
    cycle_of = [next(n for n, cycle in enumerate(cycles) if i in cycle) for i in range(word.strands)]
    return cycle_of, [cycle != [0] and len(cycle) == 1 for cycle in cycles]


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "D5"])
def test_fixed_tuples_solve_artin_relators(name, monkeypatch):
    # |Hom(G, Q)| two ways: the walk from one conjugacy class per cycle, each
    # fixed tuple weighted by the class of g_1 and every tuple let through as
    # generating, and the tuples g with b(x_j)(g) = g_j for Artin's images
    # b(x_j); the same walk with the generation test gives |Epi(G, Q)|
    k = next(k for k, g in enumerate(SMALL_GROUPS) if g[0] == name)
    mul, inv = _cayley(k)
    order = len(inv)
    rng = random.Random(25)
    for strands, count in ((3, 30), (4, 10)):
        for _ in range(count):
            letters = (rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(4, 8)))
            word = BraidWord(strands, tuple(letters))
            images = artin_rep(word).images
            solutions = [
                values
                for values in itertools.product(range(order), repeat=strands)
                if all(evaluate(image, values, mul, inv) == v for image, v in zip(images, values))
            ]
            generating = sum(len(closure(mul, order, values)) == order for values in solutions)
            assert report._epimorphisms(k, *cycle_pattern(word), word.letters) == generating, word
            with monkeypatch.context() as patch:
                patch.setattr(report, "_generates", lambda k, entries: True)
                assert report._epimorphisms(k, *cycle_pattern(word), word.letters) == len(solutions), word


def hurwitz(mul, inv, strands, letter):
    """The Hurwitz action of one braid letter on the tuple codes of
    Q^strands, g_1 the leading base-|Q| digit, as the list of images."""
    m = len(inv)
    pair = []
    for a in range(m):
        for b in range(m):
            if letter > 0:  # (a, b) -> (a b a^-1, a)
                pair.append(mul[mul[a * m + b] * m + inv[a]] * m + a)
            else:  # (a, b) -> (b, b^-1 a b)
                pair.append(b * m + mul[mul[inv[b] * m + a] * m + b])
    low = m ** (strands - abs(letter) - 1)
    return [high + p * low + rest for high in range(0, m**strands, low * m * m) for p in pair for rest in range(low)]


def full_walk_counts(word, max_index):
    """Hall's count with every tuple of Q^n walked through one |Q|^n-entry
    Hurwitz map per letter, the letters read last to first."""
    letters = free_reduce(word).letters
    counts = [0] * max_index
    for k, (name, order, automorphisms, _) in enumerate(SMALL_GROUPS):
        if order > max_index:
            continue
        mul, inv = _cayley(k)
        maps = {letter: hurwitz(mul, inv, word.strands, letter) for letter in set(letters)}
        images = range(order**word.strands)
        for letter in reversed(letters):
            images = list(map(maps[letter].__getitem__, images))
        fixed = [code for code, image in enumerate(images) if code == image]
        keys = [frozenset(code // order**j % order for j in range(word.strands)) for code in fixed]
        generating = {key: len(closure(mul, order, key)) == order for key in set(keys)}
        kernels, rest = divmod(sum(map(generating.__getitem__, keys)), automorphisms)
        assert rest == 0, (name, word)
        counts[order - 1] += kernels
    return counts


def seeded_words(seed, count):
    """Braids on 2 to 4 strands, in turn: a knot, a pure braid (a product of
    conjugates of squares of generators) and a word without one generator,
    which closes to a split link."""
    rng = random.Random(seed)
    words = []
    for n in range(count):
        strands = 2 + n // 3 % 3
        gens = range(1, strands)
        if n % 3 == 1:
            letters = []
            for _ in range(rng.randint(1, 3)):
                conjugator = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randint(0, 2))]
                square = [rng.choice((1, -1)) * rng.choice(gens)] * 2
                letters += conjugator + square + [-g for g in reversed(conjugator)]
        elif n % 3 == 2:
            gens = [g for g in gens if g != rng.choice(gens)]
            letters = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randint(0, 8) if gens else 0)]
        else:
            letters = []
            while closure_components(BraidWord(strands, tuple(letters))) > 1:
                letters = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randint(1, 8))]
        words.append(BraidWord(strands, tuple(letters)))
    return words


def test_class_pattern_walk_matches_the_full_walk_on_seeded_braids(monkeypatch):
    # the walk over one conjugacy class per cycle counts what the walk over
    # all of Q^n counts; every tenth braid is walked in blocks of 5 tuples.
    # test_fixed_tuples_solve_artin_relators takes the groups of order 8 and 10
    # to 4 strands
    words = seeded_words(32, 300)
    for n, word in enumerate(words):
        max_index = 6 if word.strands == 4 else 10
        with monkeypatch.context() as patch:
            if n % 10 == 0:
                patch.setattr(report, "BLOCK_TUPLES", 5)
            assert normal_subgroup_counts(word, max_index) == full_walk_counts(word, max_index), word
    components = [closure_components(word) for word in words]
    knots = sum(c == 1 for c in components)
    pure = sum(c == word.strands for c, word in zip(components, words))
    split = sum(word.strands > 2 and len({abs(x) for x in word.letters}) < word.strands - 1 for word in words)
    assert {word.strands for word in words} == {2, 3, 4} and min(knots, pure, split) >= 50, (knots, pure, split)


# -- double branched cover oracle -------------------------------------------------


def predicted_rows(word):
    """Rows of the report predicted from the monodromy M, for a closed 3-braid.

    A quotient of prime order p is cyclic, so it is a quotient of H1 = Z^mu:
    row p reads (p^mu - 1)/(p - 1).  For a knot and an odd prime p, the
    normal subgroups of index 2p are the kernels onto Z/2p (one) and onto
    D_p, whose surjections are the nontrivial Fox p-colourings, p^(r+1) - p
    of them, up to |Aut(D_p)| = p(p - 1): row 2p reads
    1 + (p^r - 1)/(p - 1), with r the p-rank of H1 of the double branched
    cover (Przytycki, 3-coloring and other elementary invariants of knots,
    1998).  That cover is an open book with a once-holed torus page and
    monodromy M (Birman and Hilden, 1973), so its H1 is coker(M - I).
    """
    mu = closure_components(word)
    rows = {p: (p**mu - 1) // (p - 1) for p in (2, 3, 5, 7)}
    if mu == 1:
        (a, b), (c, d) = monodromy(word).entries
        invariants = smith_invariants([[a - 1, b], [c, d - 1]])
        for p in (3, 5):
            r = sum(1 for v in invariants if v % p == 0)
            rows[2 * p] = 1 + (p**r - 1) // (p - 1)
    return rows


def seeded_braids(seed, count, longest=6, knots_only=False):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, longest))))
        if monodromy(word).is_hyperbolic() and (not knots_only or closure_components(word) == 1):
            words.append(word)
    return words


def test_double_branched_cover_predicts_rows_on_seeded_braids():
    words = seeded_braids(22, 60)
    kinds = set()
    for word in words:
        rows = {r.index: r.normal_subgroups for r in correspondence_report(word, 10).rows}
        expected = predicted_rows(word)
        assert {m: rows[m] for m in expected} == expected, word
        kinds.add((closure_components(word), expected.get(6), expected.get(10)))
    # knots with 3-rank 0, 1 and 2 and 5-rank 0 and 1, and links of two and three components
    assert kinds == {(1, 1, 1), (1, 2, 1), (1, 5, 1), (1, 1, 2), (2, None, None), (3, None, None)}


@pytest.mark.parametrize(
    "text, expected",
    [
        # s1^3 s2^-3: M = I mod 3, r = 2 at p = 3
        ("1 1 1 -2 -2 -2", {2: 1, 3: 1, 5: 1, 7: 1, 6: 5, 10: 1}),
        ("1 1 -2 -2", {2: 7, 3: 13, 5: 31, 7: 57}),  # three components
        ("-1 2 -1 2 2", {2: 3, 3: 4, 5: 6, 7: 8}),  # two components
        # s1^5 s2^-5: M = I mod 5, r = 2 at p = 5
        ("1 1 1 1 1 -2 -2 -2 -2 -2", {2: 1, 3: 1, 5: 1, 7: 1, 6: 1, 10: 7}),
    ],
)
def test_double_branched_cover_fixed_cases(text, expected):
    word = BraidWord(3, tuple(int(v) for v in text.split()))
    assert predicted_rows(word) == expected
    rows = {r.index: r.normal_subgroups for r in correspondence_report(word, 10).rows}
    assert {m: rows[m] for m in expected} == expected


# -- ramification oracle ----------------------------------------------------------


def valuation(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ramification_seen(rows, p):
    """Row 2p exceeds 1 and one ideal has norm p: for a knot and an odd prime
    p, the first holds exactly when p divides tr M - 2 (see predicted_rows),
    and then p divides tr^2 - 4 to the power v_p(tr - 2), since
    gcd(tr - 2, tr + 2) divides 4, so p ramifies exactly when that is odd."""
    return rows[2 * p - 1].normal_subgroups > 1 and rows[p - 1].ideals_of_norm == 1


def test_ramification_on_seeded_knots():
    odd = even = 0
    for word in seeded_braids(22, 80, longest=7, knots_only=True):
        v = valuation(3, monodromy(word).trace - 2)
        assert ramification_seen(correspondence_report(word, 6).rows, 3) == (v % 2 == 1), word
        odd += v % 2
        even += v > 0 and v % 2 == 0
    # 3 ramifies in 17 of the fields; in 2 more, 3 divides tr - 2 to an even power
    assert (odd, even) == (17, 2)


@pytest.mark.parametrize(
    "p, q, max_index, subgroups, ideals",
    [
        (1, 3, 6, {6: 2}, {3: 1}),
        (3, 3, 6, {6: 5}, {3: 2}),  # dihedral quotients without ramification
        (3, 9, 6, {6: 5}, {3: 1}),
        (1, 5, 10, {10: 2}, {5: 1}),
        (1, 25, 10, {10: 2}, {5: 2}),
        (1, 15, 10, {6: 2, 10: 2}, {3: 1, 5: 1}),
    ],
)
def test_ramification_fixed_cases(p, q, max_index, subgroups, ideals):
    # s1^p s2^-q has tr - 2 = pq
    word = BraidWord(3, (1,) * p + (-2,) * q)
    assert monodromy(word).trace - 2 == p * q
    rows = correspondence_report(word, max_index).rows
    assert {m: rows[m - 1].normal_subgroups for m in subgroups} == subgroups
    assert {m: rows[m - 1].ideals_of_norm for m in ideals} == ideals
    for ell in ideals:
        assert ramification_seen(rows, ell) == (valuation(ell, p * q) % 2 == 1)

"""Side-by-side counts of normal subgroups and ideal norms.

For a braid that carries a field invariant, list for each index m up to a
bound how many normal subgroups of index m the closure's fundamental group
has, next to how many ideals of norm m the field's ring of integers has.
The two columns are computed independently.  For a knot and an odd prime
p they are related: the subgroup column exceeds 1 at index 2p exactly when
p divides tr M - 2 (a dihedral quotient of order 2p), and since
gcd(tr - 2, tr + 2) divides 4, the ideal column then reads 1 at p exactly
when p divides tr - 2 to an odd power, that is, when p ramifies.

The subgroup column is Hall's count.  A normal subgroup of index m is the
kernel of a surjection onto a group Q of order m, and two surjections have
the same kernel exactly when they differ by an automorphism of Q, so the
count at m is the sum of |Epi(G, Q)| / |Aut(Q)| over the groups Q of order
m, one of each isomorphism type (P. Hall, "The Eulerian functions of a
group", 1936).  ``SMALL_GROUPS`` holds the 18 groups of order at most
``INDEX_CAP`` = 10 as permutation generators; each group's Cayley table and
inverses are built on first use, once per process.

For the closure of a braid on n strands, Hom(G, Q) is the set of tuples
(g_1..g_n) in Q^n that the braid fixes under the Hurwitz action, where s_i
sends (g_i, g_{i+1}) to (g_i g_{i+1} g_i^-1, g_i) and s_i^-1 undoes it.
These are the colourings of the arcs by Q (R. H. Fox, "A quick trip through
knot theory", 1962), with the letters read last to first as in
``artin.arc_presentation``.  The same walk on free words gives Artin's
images in ``artin.artin_rep``, so the fixed tuples are the solutions of
Artin's relators x_i^-1 b(x_i) in Q.  The epimorphisms are the fixed
tuples whose entries generate Q.  Only tuples that the braid can fix are
walked.  A letter swaps the entries of strands i and i+1 up to conjugacy,
so a fixed tuple keeps one conjugacy class along each cycle of the braid's
permutation, and simultaneous conjugation, which commutes with the action
and keeps generation, lets g_1 be the least element of its class C,
counted |C| times; a cycle of one strand other than strand 1 takes all of
Q.  The start tuples go through the freely reduced word ``BLOCK_TUPLES`` at
a time, a column per strand, each letter a lookup of two columns in a table
of a b a^-1 or b^-1 a b; in an abelian group every start tuple is fixed.
The work is linear in the braid.  A request of more than ``TUPLE_STEPS``
steps, one per tuple of Q^n to start and one per tuple and letter, is
refused with ``BudgetExceeded`` before any work.

The ideal column comes from ``numfield.ideals_of_norm``.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import chain, compress, islice, product
from operator import itemgetter

from ._record import record
from .braid import BraidWord, free_reduce, underlying_permutation
from .errors import BudgetExceeded
from .invariant import FieldInvariant, field_of
from .numfield import ideals_of_norm
from .subgroups import check_max_index

# at max_index 10, (1 -2)^400 counts 5.7 * 10**6 steps and takes 0.006 s, and
# the pure braid (1 2)^705 10**7 steps and 0.08 s (CPython 3.11, 2 vCPUs)
TUPLE_STEPS = 10_000_000
BLOCK_TUPLES = 4096  # start tuples walked at once, so columns hold at most this many entries

# name, order, |Aut|, generators as permutations in cycle notation
SMALL_GROUPS = (
    ("C1", 1, 1, ()),
    ("C2", 2, 1, ("(0 1)",)),
    ("C3", 3, 2, ("(0 1 2)",)),
    ("C4", 4, 2, ("(0 1 2 3)",)),
    ("C2xC2", 4, 6, ("(0 1)", "(2 3)")),
    ("C5", 5, 4, ("(0 1 2 3 4)",)),
    ("C6", 6, 2, ("(0 1 2 3 4 5)",)),
    ("S3", 6, 6, ("(0 1 2)", "(0 1)")),
    ("C7", 7, 6, ("(0 1 2 3 4 5 6)",)),
    ("C8", 8, 4, ("(0 1 2 3 4 5 6 7)",)),
    ("C4xC2", 8, 8, ("(0 1 2 3)", "(4 5)")),
    ("C2xC2xC2", 8, 168, ("(0 1)", "(2 3)", "(4 5)")),
    ("D4", 8, 8, ("(0 1 2 3)", "(1 3)")),
    ("Q8", 8, 24, ("(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)")),
    ("C9", 9, 6, ("(0 1 2 3 4 5 6 7 8)",)),
    ("C3xC3", 9, 48, ("(0 1 2)", "(3 4 5)")),
    ("C10", 10, 4, ("(0 1 2 3 4 5 6 7 8 9)",)),
    ("D5", 10, 20, ("(0 1 2 3 4)", "(1 4)(2 3)")),
)


@record
class CorrespondenceRow:
    index: int
    normal_subgroups: int
    ideals_of_norm: int


@record
class CorrespondenceReport:
    invariant: FieldInvariant
    rows: tuple[CorrespondenceRow, ...]


def correspondence_report(word: BraidWord, max_index: int) -> CorrespondenceReport:
    check_max_index(max_index)  # a usage error before any domain error of the braid
    invariant = field_of(word)
    normal = normal_subgroup_counts(word, max_index)
    rows = tuple(
        CorrespondenceRow(m, normal[m - 1], ideals_of_norm(invariant.field, m)) for m in range(1, max_index + 1)
    )
    return CorrespondenceReport(invariant, rows)


def normal_subgroup_counts(word: BraidWord, max_index: int) -> list[int]:
    """The number of normal subgroups of index 1, 2, ..., max_index of the
    fundamental group of the closure of ``word``."""
    check_max_index(max_index)
    letters = free_reduce(word).letters
    groups = [k for k, group in enumerate(SMALL_GROUPS) if group[1] <= max_index]
    steps = sum(SMALL_GROUPS[k][1] ** word.strands for k in groups) * (len(letters) + 1)
    if steps > TUPLE_STEPS:
        raise BudgetExceeded(
            f"normal-subgroup count of {steps} tuple steps at max_index {max_index} "
            f"exceeds the limit of {TUPLE_STEPS}"
        )
    images = underlying_permutation(word).images
    # cycle_of: each strand's cycle, numbered by least strand; free: cycles of one strand but the first
    cycle_of, free = [-1] * word.strands, []
    for i in range(word.strands):
        j = i
        while cycle_of[j] < 0:
            cycle_of[j], j = len(free), images[j] - 1
        if cycle_of[i] == len(free):
            free.append(images[i] == i + 1 and i > 0)
    counts = [0] * max_index
    for k in groups:
        name, order, automorphisms, _ = SMALL_GROUPS[k]
        kernels, rest = divmod(_epimorphisms(k, cycle_of, free, letters), automorphisms)
        if rest:
            raise RuntimeError(
                f"internal error: epimorphisms onto {name} are not a multiple of |Aut| = {automorphisms}"
            )
        counts[order - 1] += kernels
    return counts


def _epimorphisms(k: int, cycle_of: list[int], free: list[bool], letters: tuple[int, ...]) -> int:
    """|Epi(G, Q)| for Q = SMALL_GROUPS[k]: the tuples of Q^strands that the
    braid fixes and whose entries generate Q, each cycle not ``free`` in one class."""
    classes, conj, conj_inv = _conjugation(k)
    weight = {c[0]: len(c) for c in classes}
    everything = (tuple(range(len(conj))),)
    choices = product(*(everything if one else classes for one in free))
    domains = ([choice[c] for c in cycle_of] for choice in choices)
    tuples = chain.from_iterable(product(d[0][:1], *d[1:]) for d in domains)
    walk = letters[::-1] if len(classes) < len(conj) else ()  # last letter first
    reach = itemgetter(slice(1 + max(map(abs, walk), default=0)))  # the strands the walk moves
    count = 0
    for start in iter(lambda: list(islice(tuples, BLOCK_TUPLES)), []):
        columns = list(zip(*map(reach, start)))
        for letter in walk:
            i = abs(letter)
            a, b = columns[i - 1], columns[i]
            if letter > 0:  # (a, b) -> (a b a^-1, a)
                columns[i - 1 : i + 1] = list(map(list.__getitem__, map(conj.__getitem__, a), b)), a
            else:  # (a, b) -> (b, b^-1 a b)
                columns[i - 1 : i + 1] = b, list(map(list.__getitem__, map(conj_inv.__getitem__, a), b))
        fixed = compress(start, map(tuple.__eq__, zip(*columns), map(reach, start)))
        count += sum(weight[entries[0]] for entries in fixed if _generates(k, frozenset(entries)))
    return count


def _closure(identity, gens, times) -> list:
    """The elements that ``gens`` generate, from ``identity`` on, each new
    one the product ``times(a, g)`` of an earlier one and a generator."""
    elements = [identity]
    seen = {identity}
    for a in elements:
        for g in gens:
            ag = times(a, g)
            if ag not in seen:
                seen.add(ag)
                elements.append(ag)
    return elements


@cache
def _cayley(k: int) -> tuple[list[int], list[int]]:
    """The multiplication table of SMALL_GROUPS[k], flat with a * b at
    a * order + b, and the inverses; element 0 is the identity."""
    gens = []
    for text in SMALL_GROUPS[k][3]:
        image = list(range(10))  # every group acts on at most 10 points
        for cycle in re.findall(r"\(([^)]*)\)", text):
            points = [int(p) for p in cycle.split()]
            for p, q in zip(points, points[1:] + points[:1]):
                image[p] = q
        gens.append(tuple(image))
    # a * b applies a first, then b
    elements = _closure(tuple(range(10)), gens, lambda a, g: tuple(g[x] for x in a))
    index = {a: i for i, a in enumerate(elements)}
    mul = [index[tuple(b[x] for x in a)] for a in elements for b in elements]
    order = len(elements)
    inv = [mul[a * order : (a + 1) * order].index(0) for a in range(order)]
    return mul, inv


@cache
def _conjugation(k: int) -> tuple[tuple[tuple[int, ...], ...], list[list[int]], list[list[int]]]:
    """The conjugacy classes of SMALL_GROUPS[k], each led by its least
    element, and the tables of a b a^-1 and b^-1 a b at [a][b]."""
    mul, inv = _cayley(k)
    order = len(inv)
    conj = [[mul[mul[a * order + b] * order + inv[a]] for b in range(order)] for a in range(order)]
    conj_inv = [[conj[inv[b]][a] for b in range(order)] for a in range(order)]
    classes = tuple(sorted({tuple(sorted({row[a] for row in conj})) for a in range(order)}))
    return classes, conj, conj_inv


@cache
def _generates(k: int, entries: frozenset[int]) -> bool:
    """Whether ``entries`` generate SMALL_GROUPS[k]; at most 2**10 keys a group."""
    mul, inv = _cayley(k)
    return len(_closure(0, entries, lambda x, g: mul[x * len(inv) + g])) == len(inv)

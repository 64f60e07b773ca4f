"""Low-index subgroup enumeration by coset-table backtracking.

Given a finite presentation, we enumerate conjugacy classes of subgroups of
index at most ``max_index`` by a depth-first search over partial coset
tables.  A table has one row per coset (row 0 being the subgroup itself) and
one column per generator and per inverse generator; entry (c, g) is the
coset reached from c by g.

Search discipline: the first undefined entry in row-major scan order gets
defined next, trying every existing coset whose matching inverse slot is
free and then a single brand-new coset.  New cosets therefore enter in scan
order, which gives every subgroup exactly one completed table.  A scan
traces a relator from a coset at both ends; meeting in the middle with one
missing edge fills that edge (a deduction), and meeting with a mismatch
kills the branch.  In this strict search there are no coset coincidences:
tables only grow or die.

Deductions are processed Felsch-style from a queue (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, 5.1).  Every
parent table is closed, so a scan can only change where an edge on its
path is new; both halves of every new edge enter the queue, and each entry
(alpha, col) scans, from alpha, the cyclic rotations of the relators that
start with column col.  As the table is a partial permutation, a cycle
that fails from one of its cosets fails from all of them, so this reaches
the same closed table, or the same dead end, as rescanning every relator
at every coset, and the search tree is unchanged.

Each relator is scanned once up to rotation and inversion: one that is a
rotation of an earlier relator, or of its inverse, is dropped.  A rotation
has the same rotations, so only the inverse needs an argument.  Its cycle
through a new edge alpha -col-> beta, traced from alpha, is the earlier
relator's cycle walked backwards, which the earlier relator traces from
beta starting with col^-1.  Both halves of every new edge are queued, and
the two scans follow the same defined edges from the two ends of the new
one, so they make the same deduction or find the same mismatch.  In
Artin's presentation on 2 strands the second relator is a rotation of the
inverse of the first.

Conjugate subgroups differ only by the choice of base coset: renumbering
a table from base b in the same row-major discovery order gives the table
of the conjugate subgroup that fixes b, and every search table is already
its own renumbering from base 0.  So at every node Sims' minimality test
renumbers from each other base and compares with the table in row-major
order, stopping at the first entry undefined in either.  The entries
defined so far fix that prefix for every completion, so a smaller
renumbering prunes the branch, and only the least table of each class is
ever completed.  A subgroup is normal exactly when it equals all of its
conjugates, that is, when every base renumbers the completed table to
itself.

A base decided once stays decided.  When a renumbering is larger at some
entry, every entry before it and the entry itself are defined, and
entries are only ever added, so the same comparison holds in every
completion.  A node therefore hands its children only the bases still
equal so far, plus the coset it creates, with a flag that turns false for
good once a base has compared larger; at a leaf the flag is the
normality.

Branch columns.  The search defines, compares and records only the
first 2 * ``branch_generators`` columns of a presentation (all of them by
default).  The later generators must be fixed by the relators once the
branch generators act, as each arc of an arc presentation is a conjugate
of earlier ones, so their columns fill by deduction alone; a leaf with any
of them undefined raises ``ValueError``.  New cosets enter only through
branch definitions, so tables, renumberings and records are those of a
search on the branch generators alone: the arc presentation of a braid
closure gives the records of Artin's.

The index cap (10) keeps requests at desk scale, and the node budget
``NODE_BUDGET`` (10**6 definitions tried, read at each call) is a hard stop
for runaway searches: the figure-eight knot group at index <= 10 tries
about 1.5 * 10**5 on Artin's relators and 5.3 * 10**4 on its arc
presentation.  The refusal names the index of the partial table at which
the search stood.  The search keeps every rotation of every relator, L
rotations of L letters for a relator of L letters, so a presentation whose
squared relator lengths sum past ``ROTATION_LETTERS`` (2 * 10**7, read at
each call) is refused before anything is built: the rotations of Artin's
relators of ``(1 -2)^9`` would hold 1.07 * 10**8 letters and need gigabytes.
"""

from __future__ import annotations

from ._record import record
from .artin import GroupPresentation
from .errors import BudgetExceeded


INDEX_CAP = 10
NODE_BUDGET = 1_000_000
ROTATION_LETTERS = 20_000_000


@record
class SubgroupRecord:
    """One conjugacy class of subgroups, as a canonical coset table."""

    index: int
    coset_table: tuple[tuple[int, ...], ...]
    is_normal: bool


def check_max_index(max_index) -> None:
    """Refuse an index bound that is not an int from 1 to ``INDEX_CAP``."""
    if isinstance(max_index, bool) or not isinstance(max_index, int):
        raise ValueError(f"max_index must be an int, got {max_index!r}")
    if max_index < 1:
        raise ValueError("max_index must be at least 1")
    if max_index > INDEX_CAP:
        raise ValueError(f"max_index {max_index} exceeds the desk-scale cap {INDEX_CAP}")


def low_index_subgroups(presentation: GroupPresentation, max_index: int) -> list[SubgroupRecord]:
    """All subgroups of index <= max_index up to conjugacy, sorted by index
    and then by table."""
    check_max_index(max_index)
    letters = sum(sum(abs(e) for _, e in r.syllables) ** 2 for r in presentation.relators)
    if letters > ROTATION_LETTERS:
        raise BudgetExceeded(f"relator rotations of {letters} letters exceed the limit of {ROTATION_LETTERS}")
    ncols = 2 * presentation.generator_count
    width = 2 * presentation.branch_generators
    rotations: list[list[tuple[int, ...]]] = [[] for _ in range(ncols)]
    cycles = set()
    for relator in presentation.relators:
        # column 2*(g-1) is generator g, column 2*(g-1)+1 its inverse
        word = tuple(2 * (abs(k) - 1) + (0 if k > 0 else 1) for k in relator.letters())
        if word in cycles:
            continue
        inverse = tuple(col ^ 1 for col in reversed(word))
        for k, col in enumerate(word):
            rotations[col].append(word[k:] + word[:k])
            cycles.update((word[k:] + word[:k], inverse[k:] + inverse[:k]))
    # a one-letter relator c passes through no edge of a fresh coset, so it is
    # scanned from every queue entry (alpha, col) as the freely equal col col^-1 c
    singles = [word[0] for words in rotations for word in words if len(word) == 1]
    rotations = [
        list(dict.fromkeys(words + [(col, col ^ 1, c) for c in singles if c != col]))
        for col, words in enumerate(rotations)
    ]

    records: list[SubgroupRecord] = []
    budget = [NODE_BUDGET, NODE_BUDGET]  # remaining, total
    table: list[list[int | None]] = [[None] * ncols]
    _search(table, width, rotations, max_index, budget, records, [], True)
    records.sort(key=lambda r: (r.index, r.coset_table))
    return records


def _search(table, width, rotations, max_index, budget, out, bases, normal):
    """Extend ``table`` in every way.  ``bases`` are the cosets whose
    renumbering has matched the table so far; ``normal`` is False once one
    has renumbered it larger."""
    undecided = []
    if bases:
        view = table if width == len(table[0]) else [row[:width] for row in table]
        for base in bases:
            sign = _compare_renumbered(view, base)
            if sign < 0:
                return
            if sign > 0:
                normal = False
            else:
                undecided.append(base)
    slot = _first_undefined(table, width)
    if slot is None:
        if any(None in row for row in table):
            raise ValueError("the relators leave a generator past branch_generators undetermined")
        out.append(SubgroupRecord(len(table), tuple(tuple(row[:width]) for row in table), normal))
        return
    alpha, col = slot
    candidates = [beta for beta in range(len(table)) if table[beta][col ^ 1] is None]
    if len(table) < max_index:
        candidates.append(len(table))
    grown = undecided + [len(table)]
    for beta in candidates:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded(
                f"node budget of {budget[1]} definitions exhausted at max_index {max_index}, "
                f"with the search at index {len(table)}"
            )
        trail: list[tuple[int, int]] = []
        new_row = beta == len(table)
        if new_row:
            table.append([None] * len(table[0]))
        _define(table, alpha, col, beta, trail)
        if _close_under_relators(table, rotations, trail):
            _search(table, width, rotations, max_index, budget, out, grown if new_row else undecided, normal)
        for a, c in reversed(trail):
            table[a][c] = None
        if new_row:
            table.pop()


def _first_undefined(table, width):
    """The first undefined branch entry in row-major order.  The branch
    columns come first, so a row has one exactly when its first undefined
    entry is one."""
    for alpha, row in enumerate(table):
        if None in row:
            col = row.index(None)
            if col < width:
                return alpha, col
    return None


def _define(table, alpha, col, beta, trail):
    """Set the edge alpha -col-> beta and its inverse; both slots are free."""
    table[alpha][col] = beta
    table[beta][col ^ 1] = alpha
    trail.append((alpha, col))
    trail.append((beta, col ^ 1))


def _close_under_relators(table, rotations, trail) -> bool:
    """Walk ``trail`` as a deduction queue: for each entry (alpha, col),
    trace every relator rotation in ``rotations[col]`` from alpha at both
    ends, and fill the edge between the ends when exactly one is missing.
    Every rotation starts with the defined edge (alpha, col).  Deductions
    append to ``trail`` and are reached in turn.  False at the first
    mismatch, True once the queue is drained."""
    for alpha, col in trail:
        beta = table[alpha][col]
        beta_row = table[beta]
        for word in rotations[col]:
            length = len(word)
            f = beta
            row = beta_row
            i = 1
            while i < length:
                target = row[word[i]]
                if target is None:
                    break
                f = target
                row = table[f]
                i += 1
            else:
                if f != alpha:
                    return False
                continue
            b = alpha
            j = length - 1
            while j > i:
                target = table[b][word[j] ^ 1]
                if target is None:
                    break
                b = target
                j -= 1
            else:
                # one missing edge with both endpoints known: forced unless
                # b's slot is taken, which is a mismatch
                if table[b][word[i] ^ 1] is not None:
                    return False
                _define(table, f, word[i], b, trail)
    return True


def _compare_renumbered(table, base) -> int:
    """Renumber cosets in row-major discovery order starting at ``base`` and
    compare with the table in row-major order up to the first entry
    undefined in either: -1 smaller, 1 larger, 0 equal that far."""
    position = {base: 0}
    order = [base]
    for i, coset in enumerate(order):
        row = table[i]
        for col, target in enumerate(table[coset]):
            if target is None or row[col] is None:
                return 0
            renumbered = position.get(target)
            if renumbered is None:
                renumbered = position[target] = len(order)
                order.append(target)
            if renumbered != row[col]:
                return -1 if renumbered < row[col] else 1
    return 0

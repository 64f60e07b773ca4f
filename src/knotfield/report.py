"""Side-by-side counts of normal subgroups and ideal norms.

For a braid that carries a field invariant, list for each index m up to a
bound how many normal subgroups of index m the closure's fundamental group
has, next to how many ideals of norm m the field's ring of integers has.
The two columns are computed independently.  For a knot and an odd prime
p they are related: the subgroup column exceeds 1 at index 2p exactly when
p divides tr M - 2 (a dihedral quotient of order 2p), and since
gcd(tr - 2, tr + 2) divides 4, the ideal column then reads 1 at p exactly
when p divides tr - 2 to an odd power, that is, when p ramifies.

The subgroup column counts the records of the normal-only low-index search
(``low_index_subgroups(..., normal_only=True)``), which prunes every branch
with no normal completion instead of enumerating all conjugacy classes; a
normal subgroup is its own conjugacy class, so each record is one subgroup.
The search runs on ``artin.arc_presentation``, whose relators grow
linearly with the braid where Artin's grow exponentially.
The ideal column comes from ``numfield.ideals_of_norm``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .artin import arc_presentation
from .braid import BraidWord
from .invariant import FieldInvariant, field_of
from .numfield import ideals_of_norm
from .subgroups import low_index_subgroups


@dataclass(frozen=True)
class CorrespondenceRow:
    index: int
    normal_subgroups: int
    ideals_of_norm: int


@dataclass(frozen=True)
class CorrespondenceReport:
    invariant: FieldInvariant
    rows: tuple[CorrespondenceRow, ...]


def correspondence_report(word: BraidWord, max_index: int) -> CorrespondenceReport:
    invariant = field_of(word)
    presentation = arc_presentation(word)
    records = low_index_subgroups(presentation, max_index, normal_only=True)
    normal = Counter(r.index for r in records)
    rows = tuple(
        CorrespondenceRow(m, normal[m], ideals_of_norm(invariant.field, m)) for m in range(1, max_index + 1)
    )
    return CorrespondenceReport(invariant, rows)

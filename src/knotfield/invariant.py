"""From three-strand braids to real quadratic fields.

The two braid generators map to the unimodular matrices [[1,1],[0,1]] and
[[1,0],[-1,1]], extending to a surjection of the three-strand braid group
onto SL2(Z); a braid word multiplies out with its first letter leftmost.
When the product is hyperbolic (|trace| > 2) the braid acquires a real
quadratic field generated by sqrt(trace^2 - 4), together with the component
count of its closure.  For the family s1^p s2^-q the product is
[[pq+1, p],[q, 1]] and the radicand is pq(pq+4).

Conjugating the braid preserves the trace, hence the field: the invariant
is stable under Markov moves of the first kind.  The generator map has a
kernel, so braids with equal monodromy are not distinguished; the matrix is
included in the invariant record so that callers can detect collisions.
"""

from __future__ import annotations

from ._record import record
from .braid import BraidWord, check_length, closure_components
from .errors import NonHyperbolic, WrongStrandCount, integer_rows
from .numfield import QuadraticField, make_field

_GEN = ((1, 1), (0, 1))
_GEN_INV = ((1, -1), (0, 1))
_GEN2 = ((1, 0), (-1, 1))
_GEN2_INV = ((1, 0), (1, 1))


@record
class MonodromyMatrix:
    """A 2x2 integer matrix of determinant one."""

    entries: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        rows = integer_rows(self.entries, "monodromy matrix")
        object.__setattr__(self, "entries", rows)
        (a, b), (c, d) = rows
        if a * d - b * c != 1:
            raise ValueError(f"matrix {rows} does not have determinant 1")

    @property
    def trace(self) -> int:
        return self.entries[0][0] + self.entries[1][1]

    def is_hyperbolic(self) -> bool:
        return abs(self.trace) > 2


def _mat_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


_IDENTITY = ((1, 0), (0, 1))


def monodromy(word: BraidWord) -> MonodromyMatrix:
    """Image of a three-strand braid word, first letter leftmost."""
    if word.strands != 3:
        raise WrongStrandCount(f"monodromy is defined on 3 strands, got {word.strands}")
    images = {1: _GEN, -1: _GEN_INV, 2: _GEN2, -2: _GEN2_INV}
    acc = _IDENTITY
    for k in word.letters:
        acc = _mat_mul(acc, images[k])
    return MonodromyMatrix(acc)


@record
class FieldInvariant:
    """The quadratic field attached to a hyperbolic three-strand braid."""

    braid: BraidWord
    matrix: MonodromyMatrix
    radicand: int
    field: QuadraticField
    components: int
    is_knot: bool


def field_of(word: BraidWord) -> FieldInvariant:
    matrix = monodromy(word)
    if not matrix.is_hyperbolic():
        raise NonHyperbolic(matrix.trace)
    radicand = matrix.trace**2 - 4
    components = closure_components(word)
    return FieldInvariant(
        braid=word,
        matrix=matrix,
        radicand=radicand,
        field=make_field(radicand),
        components=components,
        is_knot=components == 1,
    )


def two_generator_power_braid(p: int, q: int) -> BraidWord:
    """The braid s1^p s2^-q on three strands."""
    if p < 1 or q < 1:
        raise ValueError("exponents must be at least 1")
    check_length(p + q)
    return BraidWord(3, (1,) * p + (-2,) * q)


@record
class TableRow:
    p: int
    q: int
    radicand: int
    square_free: int
    field: str


def field_table(pairs) -> list[TableRow]:
    """One row per (p, q): the field of the closed braid s1^p s2^-q, with
    both the raw radicand and its square-free part."""
    rows = []
    for p, q in pairs:
        invariant = field_of(two_generator_power_braid(p, q))
        rows.append(
            TableRow(
                p=p,
                q=q,
                radicand=invariant.radicand,
                square_free=invariant.field.square_free,
                field=invariant.field.field_str(),
            )
        )
    return rows

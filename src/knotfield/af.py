"""Stationary approximately-finite algebra data: Bratteli diagrams,
Perron-Frobenius analysis, and the dimension-group descriptor.

A stationary diagram is represented by its single incidence matrix plus a
level count used only for rendering; the infinite diagram itself carries no
more information than the matrix.  Every size gets the Perron root's
nearest float, certified by a Sturm bracket, and the characteristic
polynomial with its integer roots peeled as minimal polynomial.  Sizes one
and two also carry the exact root as a label (rational or a quadratic
surd).  All of it is exact integer arithmetic.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from ._record import record
from .errors import BudgetExceeded, DeadVertex, FloatOverflow, NotPrimitive, integer_rows
from .numfield import square_free_part

Matrix = tuple[tuple[int, ...], ...]

# A stationary diagram holds levels * size**2 edge entries; 25,000 levels of
# a 2x2 matrix is about 5 MB of DOT.
_DIAGRAM_ENTRIES = 10**5
# The Perron root of a 64x64 matrix of entries 0..3 takes about 1.2 s on
# CPython 3.11, and the cost grows about as size**5.5: at 120 the Sturm
# coefficients reach 47,000 bits and the root takes 33 s.
_PERRON_SIZE = 64


@record
class IncidenceMatrix:
    """Square matrix of nonnegative integer edge multiplicities.  Entries
    must be integers: an integral value such as 2.0 or a numpy integer is
    converted, and any other raises ValueError."""

    entries: Matrix

    def __post_init__(self):
        mat = integer_rows(self.entries, "incidence")
        if set(map(len, mat)) != {len(mat)}:  # also refuses the empty matrix
            raise ValueError("incidence matrix must be square and nonempty")
        object.__setattr__(self, "entries", mat)
        if min(map(min, mat)) < 0:
            raise ValueError("incidence entries must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.entries)

    def has_dead_vertex(self) -> bool:
        return not all(map(any, self.entries)) or not all(map(any, zip(*self.entries)))

    def is_primitive(self) -> bool:
        """Strongly connected with period 1 (Denardo 1977): searches from
        vertex 0 along and against the edges reach every vertex, and the
        gcd of level[u] + 1 - level[w] over edges u -> w is 1."""
        level = _bfs_levels(self.entries)
        if len(level) < self.size or len(_bfs_levels(tuple(zip(*self.entries)))) < self.size:
            return False
        edges = ((u, w) for u, row in enumerate(self.entries) for w, v in enumerate(row) if v)
        return math.gcd(*(level[u] + 1 - level[w] for u, w in edges)) == 1


def _bfs_levels(rows) -> dict[int, int]:
    """Breadth-first level of each vertex reachable from vertex 0 along nonzero entries."""
    level = {0: 0}
    queue = [0]
    for u in queue:
        for w, v in enumerate(rows[u]):
            if v and w not in level:
                level[w] = level[u] + 1
                queue.append(w)
    return level


def char_poly(matrix: IncidenceMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - A), lowest degree first, by Berkowitz's
    division-free recurrence (IPL 1984) over leading principal submatrices."""
    a = matrix.entries
    poly = [1]  # highest degree first
    for k in range(matrix.size):
        row, column = a[k][:k], [a[i][k] for i in range(k)]
        toeplitz = [1, -a[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(r * c for r, c in zip(row, column)))
            column = [sum(x * c for x, c in zip(a[i], column)) for i in range(k)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return tuple(reversed(poly))


@record
class QuadraticSurd:
    """(add + coeff * sqrt(radicand)) / div in lowest terms, radicand square-free."""

    add: int
    coeff: int
    radicand: int
    div: int

    @staticmethod
    def make(add: int, coeff: int, radicand: int, div: int) -> "QuadraticSurd":
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        rest = square_free_part(radicand)
        coeff, radicand = coeff * math.isqrt(radicand // rest), rest
        if div < 0:
            add, coeff, div = -add, -coeff, -div
        g = math.gcd(math.gcd(abs(add), abs(coeff)), div)
        return QuadraticSurd(add // g, coeff // g, radicand, div // g)

    def __str__(self) -> str:
        root = f"sqrt({self.radicand})"
        if self.coeff != 1:
            root = f"{self.coeff}*{root}"
        body = f"{self.add}+{root}" if self.add else root
        return f"({body})/{self.div}" if self.div != 1 else f"({body})"


@record
class PerronData:
    """Spectral radius of a primitive incidence matrix.

    ``eigenvalue`` is the nearest float, certified by a Sturm bracket at
    every size, and the minimal polynomial is the characteristic polynomial
    with its integer roots peeled (x - rho when rho is one).  No other
    factor is split off, so it may be a proper multiple of the true minimal
    polynomial; ``degree`` is its degree.  ``exact`` labels sizes one and
    two with the root itself, a Fraction (degree 1) or a QuadraticSurd
    (degree 2), and is None for size >= 3.
    """

    eigenvalue: float
    exact: Fraction | QuadraticSurd | None
    char_polynomial: tuple[int, ...]
    min_polynomial: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.min_polynomial) - 1


def perron(matrix: IncidenceMatrix) -> PerronData:
    """Perron-Frobenius data of a primitive nonnegative integer matrix.  A
    root that rounds beyond the largest float raises FloatOverflow, and a
    matrix larger than _PERRON_SIZE raises BudgetExceeded."""
    if matrix.size > _PERRON_SIZE:
        raise BudgetExceeded(f"Perron root of a {matrix.size}x{matrix.size} matrix exceeds the size limit "
                             f"of {_PERRON_SIZE}")
    if not matrix.is_primitive():
        raise NotPrimitive("no power of the matrix is strictly positive")
    try:
        poly = char_poly(matrix)
        # rho is the largest real root of poly, a simple one, and lies in the
        # Collatz-Wielandt bracket [min row sum, max row sum]; poly is monic, so
        # a rho that is not an integer is irrational.  A repeated root zeroes
        # every term of Sturm's sequence, so count on the square-free part.
        sturm = _sturm(poly)
        if len(sturm[-1]) > 1:
            sturm = _sturm(_deflate(poly, sturm[-1])[0])
        sums = [sum(row) for row in matrix.entries]
        top = max(sums)
        above = _variations(sturm, top)
        roots = _integer_roots(sturm, -top - 1, top)
        if roots and _variations(sturm, roots[0]) == above:
            rho = roots[0]
            return PerronData(float(rho), Fraction(rho) if matrix.size <= 2 else None, poly, (-rho, 1))
        min_poly = poly
        for root in roots:
            while _eval_poly(min_poly, root) == 0:
                min_poly = _deflate(min_poly, (-root, 1))[0]
        # labelled before the float, so a radicand it cannot factor is refused first
        exact = QuadraticSurd.make(-poly[1], 1, poly[1] ** 2 - 4 * poly[0], 2) if matrix.size == 2 else None
        return PerronData(_nearest_float(sturm, min(sums), top, above), exact, poly, min_poly)
    except OverflowError:  # int-to-float rounding past the range raises, never returns inf
        raise FloatOverflow(f"the Perron root is above the largest float, {sys.float_info.max}") from None


def _sturm(poly: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sturm's sequence poly, poly', -rem, ..., each later term divided by
    its content; the last is gcd(poly, poly') up to sign.  For square-free
    poly, the sign changes at x minus those at y count the roots in (x, y]."""
    seq, rest = [poly], [-i * c for i, c in enumerate(poly)][1:]
    while rest:
        content = math.gcd(*rest)  # positive, so signs are kept
        seq.append(tuple(-c // content for c in rest))
        rest = _deflate(seq[-2], seq[-1])[1]
    return seq


def _deflate(coeffs, factor) -> tuple[tuple[int, ...], list[int]]:
    """Pseudo-division (quotient, rest): lead**(2k) * coeffs equals
    quotient * factor + rest, with lead leading factor and rest stripped and
    shorter than factor.  It is exact division when lead is 1 or -1."""
    lead = factor[-1]
    rest, quotient = list(coeffs), []
    while len(rest) >= len(factor):
        top = lead * rest.pop()
        shift = len(rest) + 1 - len(factor)
        rest = [lead * lead * c for c in rest]
        quotient = [lead * lead * c for c in quotient] + [top]
        for i, c in enumerate(factor[:-1]):
            rest[shift + i] -= top * c
    while rest and rest[-1] == 0:
        rest.pop()
    return tuple(reversed(quotient)), rest


def _eval_poly(coeffs, num: int, den: int = 1) -> int:
    """den**degree * p(num / den), by Horner's rule on integers."""
    total, scale = 0, 1
    for c in reversed(coeffs):
        total = total * num + c * scale
        scale *= den
    return total


def _variations(sturm, num: int, den: int = 1) -> int:
    """Sign changes along the Sturm sequence at num / den, zeros skipped."""
    signs = [v > 0 for v in (_eval_poly(p, num, den) for p in sturm) if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _integer_roots(sturm, lo: int, hi: int) -> list[int]:
    """Integer roots of sturm[0] in (lo, hi], largest first: intervals that
    hold a root are halved to width 1, and their one integer tested exactly."""
    roots, stack = [], [(lo, hi)]
    while stack:
        lo, hi = stack.pop()
        if _variations(sturm, lo) == _variations(sturm, hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            stack += [(lo, mid), (mid, hi)]
        elif _eval_poly(sturm[0], hi) == 0:
            roots.append(hi)
    return roots


def _nearest_float(sturm, lo: int, hi: int, above: int) -> float:
    """Nearest float to the largest root of sturm[0], irrational, in (lo, hi]
    and with ``above`` sign changes above it: bisect until both ends of
    (lo, hi] / 2**shift round alike, which ends, as a tie is rational."""
    shift = 0
    while lo / (1 << shift) != hi / (1 << shift):
        lo, hi, mid, shift = 2 * lo, 2 * hi, lo + hi, shift + 1
        if _variations(sturm, mid, 1 << shift) > above:
            lo = mid
        else:
            hi = mid
    return hi / (1 << shift)


@record
class DimensionGroupDescriptor:
    """Ordered K-theory data of the stationary algebra with the given matrix."""

    rank: int
    min_polynomial: tuple[int, ...]
    order_text: str
    radicand: int | None


def dimension_group(matrix: IncidenceMatrix) -> DimensionGroupDescriptor:
    data = perron(matrix)
    lam_text = f"{data.eigenvalue:.12g}" if data.exact is None else str(data.exact)
    radicand = None
    if isinstance(data.exact, QuadraticSurd):
        c0, c1, _ = data.char_polynomial
        radicand = c1 * c1 - 4 * c0
    return DimensionGroupDescriptor(
        rank=matrix.size,
        min_polynomial=data.min_polynomial,
        order_text=f"Z[{lam_text}]",
        radicand=radicand,
    )


@record
class BratteliDiagram:
    """Leveled multigraph: vertex counts per level and one multiplicity
    matrix per gap, of shape (count at level) x (count at next level).
    Both fields are tuples, kept as given: construction validates them and
    copies nothing."""

    level_sizes: tuple[int, ...]
    edge_matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.level_sizes) != len(self.edge_matrices) + 1:
            raise ValueError("need exactly one edge matrix per consecutive level pair")
        for level, mat in enumerate(self.edge_matrices):
            if len(mat) != self.level_sizes[level] or not set(map(len, mat)) <= {self.level_sizes[level + 1]}:
                raise ValueError(f"edge matrix {level} has the wrong shape")
            if min(map(min, filter(None, mat)), default=0) < 0:
                raise ValueError("edge multiplicities must be nonnegative")


def stationary_diagram(matrix: IncidenceMatrix, levels: int) -> BratteliDiagram:
    """Diagram with ``levels`` identical edge layers (so levels+1 vertex rows).
    More than _DIAGRAM_ENTRIES edge entries in all raise BudgetExceeded."""
    if levels < 1:
        raise ValueError("need at least one level")
    if matrix.has_dead_vertex():
        raise DeadVertex("incidence matrix has an all-zero row or column")
    size = matrix.size
    if levels * size * size > _DIAGRAM_ENTRIES:
        raise BudgetExceeded(f"{levels} levels of a {size}x{size} matrix hold {levels * size * size} "
                             f"edge entries, above the limit of {_DIAGRAM_ENTRIES}")
    return BratteliDiagram(
        level_sizes=(size,) * (levels + 1),
        edge_matrices=(matrix.entries,) * levels,
    )


def emit_dot(diagram: BratteliDiagram) -> str:
    """Graphviz text with one rank per level and multiplicity-labelled edges."""
    lines = ["digraph bratteli {", "  rankdir=TB;", '  node [shape=circle, label=""];']
    for level, size in enumerate(diagram.level_sizes):
        names = " ".join(f'"v{level}_{i}";' for i in range(size))
        lines.append(f"  {{ rank=same; {names} }}")
    for level, mat in enumerate(diagram.edge_matrices):
        for i, row in enumerate(mat):
            for j, mult in enumerate(row):
                if mult > 0:
                    lines.append(
                        f'  "v{level}_{i}" -> "v{level + 1}_{j}" [label="{mult}"];'
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"

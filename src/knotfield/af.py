"""Stationary approximately-finite algebra data: Bratteli diagrams,
Perron-Frobenius analysis, and the dimension-group descriptor.

A stationary diagram is represented by its single incidence matrix plus a
level count used only for rendering; the infinite diagram itself carries no
more information than the matrix.  Exact arithmetic is provided for sizes
one and two (rational numbers and quadratic surds), and their float is the
exact value rounded; larger matrices get a floating eigenvalue from power
iteration with a stated tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DeadVertex, NoConvergence, NotPrimitive

Matrix = tuple[tuple[int, ...], ...]

_POWER_TOL = 1e-12
_POWER_MAX_ITER = 100_000


def _as_matrix(rows) -> Matrix:
    mat = tuple(tuple(int(v) for v in row) for row in rows)
    size = len(mat)
    if size == 0 or any(len(row) != size for row in mat):
        raise ValueError("incidence matrix must be square and nonempty")
    return mat


@dataclass(frozen=True)
class IncidenceMatrix:
    """Square matrix of nonnegative integer edge multiplicities."""

    entries: Matrix

    def __post_init__(self):
        mat = _as_matrix(self.entries)
        object.__setattr__(self, "entries", mat)
        if any(v < 0 for row in mat for v in row):
            raise ValueError("incidence entries must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.size))

    def determinant(self) -> int:
        return _det(self.entries)

    def has_dead_vertex(self) -> bool:
        size = self.size
        dead_row = any(all(v == 0 for v in row) for row in self.entries)
        dead_col = any(all(self.entries[i][j] == 0 for i in range(size)) for j in range(size))
        return dead_row or dead_col

    def is_primitive(self) -> bool:
        """Some power is strictly positive; checked up to the Wielandt bound
        (size-1)**2 + 1 on boolean matrices."""
        size = self.size
        current = tuple(tuple(1 if v else 0 for v in row) for row in self.entries)
        step = current
        for _ in range((size - 1) ** 2 + 1):
            if all(all(v for v in row) for row in current):
                return True
            current = _bool_mul(current, step)
        return all(all(v for v in row) for row in current)

    def to_json_dict(self) -> dict:
        return {"size": self.size, "matrix": [list(r) for r in self.entries]}


def _bool_mul(a, b):
    n = len(a)
    return tuple(
        tuple(1 if any(a[i][k] and b[k][j] for k in range(n)) else 0 for j in range(n))
        for i in range(n)
    )


def _det(mat) -> int:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def char_poly(matrix: IncidenceMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - A), lowest degree first, via the
    Faddeev-LeVerrier recurrence in exact rational arithmetic."""
    n = matrix.size
    a = [[Fraction(v) for v in row] for row in matrix.entries]
    coeffs = [Fraction(1)]  # leading coefficient of x^n
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A*M_{k-1} + c_{n-k+1} * I
        if k > 1:
            m = _mat_mul_frac(a, m)
        else:
            m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            m[i][i] += coeffs[-1]
        am = _mat_mul_frac(a, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
    ints = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("characteristic polynomial came out non-integer")
        ints.append(int(c))
    return tuple(reversed(ints))  # low -> high


def _mat_mul_frac(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
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
        square, rest = _square_part(radicand)
        coeff *= square
        radicand = rest
        if div < 0:
            add, coeff, div = -add, -coeff, -div
        g = math.gcd(math.gcd(abs(add), abs(coeff)), div)
        return QuadraticSurd(add // g, coeff // g, radicand, div // g)

    def value(self) -> float:
        """The nearest float.  sqrt(coeff**2 * radicand) is bracketed by
        integer square roots at scale 2**-shift, refined until both ends
        round alike; that ends, as an irrational value is never a tie."""
        sign = -1 if self.coeff < 0 else 1
        n = self.coeff * self.coeff * self.radicand
        shift = 64
        while True:
            scaled = n << (2 * shift)
            root = math.isqrt(scaled)
            lower = ((self.add << shift) + sign * root) / (self.div << shift)
            if root * root == scaled:
                return lower
            upper = ((self.add << shift) + sign * (root + 1)) / (self.div << shift)
            if lower == upper:
                return lower
            shift *= 2

    def __str__(self) -> str:
        root = f"sqrt({self.radicand})"
        if self.coeff != 1:
            root = f"{self.coeff}*{root}"
        body = f"{self.add}+{root}" if self.add else root
        return f"({body})/{self.div}" if self.div != 1 else f"({body})"


def _square_part(n: int) -> tuple[int, int]:
    """n = square**2 * rest with rest square-free."""
    square = 1
    rest = n
    d = 2
    while d * d <= rest:
        while rest % (d * d) == 0:
            rest //= d * d
            square *= d
        d += 1
    return square, rest


@dataclass(frozen=True)
class PerronData:
    """Spectral radius of a primitive incidence matrix.

    ``exact`` is a Fraction (degree 1) or QuadraticSurd (degree 2) for sizes
    one and two, and None in the floating regime.  ``degree`` is the degree
    of the reported minimal polynomial; for size >= 3 reducibility beyond
    integer roots is not detected, so the reported polynomial may be a
    proper multiple of the true minimal polynomial.
    """

    eigenvalue: float
    exact: Fraction | QuadraticSurd | None
    char_polynomial: tuple[int, ...]
    min_polynomial: tuple[int, ...]
    degree: int

    def exact_str(self) -> str | None:
        return None if self.exact is None else str(self.exact)

    def to_json_dict(self) -> dict:
        return {
            "exact": self.exact_str(),
            "float": self.eigenvalue,
            "minpoly": list(self.min_polynomial),
        }


def perron(matrix: IncidenceMatrix) -> PerronData:
    """Perron-Frobenius data of a primitive nonnegative integer matrix."""
    if not matrix.is_primitive():
        raise NotPrimitive("no power of the matrix is strictly positive")
    poly = char_poly(matrix)
    if matrix.size == 1:
        lam = matrix.entries[0][0]
        return PerronData(float(lam), Fraction(lam), poly, (-lam, 1), 1)
    if matrix.size == 2:
        t = matrix.trace()
        det = matrix.determinant()
        disc = t * t - 4 * det
        root = math.isqrt(disc) if disc >= 0 else None
        if root is not None and root * root == disc:
            lam = Fraction(t + root, 2)
            return PerronData(float(lam), lam, poly, (-lam.numerator, lam.denominator), 1)
        exact = QuadraticSurd.make(t, 1, disc, 2)
        return PerronData(exact.value(), exact, poly, poly, 2)
    value = _power_iteration(matrix)
    min_poly, degree = _peel_integer_roots(poly, value)
    return PerronData(value, None, poly, min_poly, degree)


def _power_iteration(matrix: IncidenceMatrix) -> float:
    n = matrix.size
    vec = [1.0] * n
    estimate = 0.0
    for _ in range(_POWER_MAX_ITER):
        nxt = [sum(matrix.entries[i][j] * vec[j] for j in range(n)) for i in range(n)]
        norm = max(abs(v) for v in nxt)
        if norm == 0:
            raise NoConvergence("matrix annihilated the positive cone")
        nxt = [v / norm for v in nxt]
        if abs(norm - estimate) <= _POWER_TOL * max(1.0, abs(norm)):
            return norm
        estimate = norm
        vec = nxt
    raise NoConvergence(
        f"power iteration did not reach {_POWER_TOL} within {_POWER_MAX_ITER} iterations"
    )


def _peel_integer_roots(poly: tuple[int, ...], value: float) -> tuple[tuple[int, ...], int]:
    """Deflate integer roots; if the eigenvalue is one of them, return the
    linear factor, otherwise the deflated polynomial."""
    coeffs = list(poly)
    while len(coeffs) > 2:
        root = _find_integer_root(coeffs)
        if root is None:
            break
        if abs(value - root) < 1e-6:
            return (-root, 1), 1
        coeffs = _deflate(coeffs, root)
    return tuple(coeffs), len(coeffs) - 1


def _find_integer_root(coeffs) -> int | None:
    constant = coeffs[0]
    if constant == 0:
        return 0
    for candidate in _divisors(abs(constant)):
        for root in (candidate, -candidate):
            if _eval_poly(coeffs, root) == 0:
                return root
    return None


def _divisors(n: int):
    for d in range(1, n + 1):
        if n % d == 0:
            yield d


def _eval_poly(coeffs, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _deflate(coeffs, root):
    # synthetic division by (x - root), highest degree first internally
    high_first = list(reversed(coeffs))
    out = [high_first[0]]
    for c in high_first[1:-1]:
        out.append(c + root * out[-1])
    return tuple(reversed(out))


@dataclass(frozen=True)
class DimensionGroupDescriptor:
    """Ordered K-theory data of the stationary algebra with the given matrix."""

    rank: int
    min_polynomial: tuple[int, ...]
    order_text: str
    radicand: int | None
    positivity_note: str
    unit_note: str


def dimension_group(matrix: IncidenceMatrix) -> DimensionGroupDescriptor:
    data = perron(matrix)
    if isinstance(data.exact, QuadraticSurd):
        lam_text = str(data.exact)
        radicand = matrix.trace() ** 2 - 4 * matrix.determinant()
    elif isinstance(data.exact, Fraction):
        lam_text = str(data.exact)
        radicand = None
    else:
        lam_text = f"{data.eigenvalue:.12g}"
        radicand = None
    return DimensionGroupDescriptor(
        rank=matrix.size,
        min_polynomial=data.min_polynomial,
        order_text=f"Z[{lam_text}]",
        radicand=radicand,
        positivity_note="positive cone: elements with positive dominant-eigenvalue embedding",
        unit_note="order unit: 1",
    )


@dataclass(frozen=True)
class BratteliDiagram:
    """Leveled multigraph: vertex counts per level and one multiplicity
    matrix per gap, of shape (count at level) x (count at next level)."""

    level_sizes: tuple[int, ...]
    edge_matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "level_sizes", tuple(self.level_sizes))
        mats = tuple(tuple(tuple(row) for row in m) for m in self.edge_matrices)
        object.__setattr__(self, "edge_matrices", mats)
        if len(self.level_sizes) != len(mats) + 1:
            raise ValueError("need exactly one edge matrix per consecutive level pair")
        for level, mat in enumerate(mats):
            if len(mat) != self.level_sizes[level] or any(
                len(row) != self.level_sizes[level + 1] for row in mat
            ):
                raise ValueError(f"edge matrix {level} has the wrong shape")
            if any(v < 0 for row in mat for v in row):
                raise ValueError("edge multiplicities must be nonnegative")


def stationary_diagram(matrix: IncidenceMatrix, levels: int) -> BratteliDiagram:
    """Diagram with ``levels`` identical edge layers (so levels+1 vertex rows)."""
    if levels < 1:
        raise ValueError("need at least one level")
    if matrix.has_dead_vertex():
        raise DeadVertex("incidence matrix has an all-zero row or column")
    size = matrix.size
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

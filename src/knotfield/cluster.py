"""Exact cluster mutation: seeds, exchange matrices, enumeration.

A seed is a tuple of Laurent fractions (the cluster variables, written in
the initial variables) together with a skew-symmetric integer exchange
matrix.  Mutation in direction k replaces the k-th variable through the
exchange relation

    x_k * x_k' = prod_i x_i^max(b_ik, 0) + prod_i x_i^max(-b_ik, 0)

and transforms the matrix entrywise; both operations are involutions.  All
arithmetic is exact integer arithmetic, and every mutated variable is again
a Laurent fraction with monomial denominator; a division failure aborts
with NonLaurentResult and indicates a bug, not a counterexample.

Everything here is a pure function of immutable values; ``mutate_seed`` is
memoized, which makes replaying shared prefixes of direction sequences
(mutation trees, random property runs) cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .af import BratteliDiagram
from .errors import BudgetExceeded, DirectionOutOfRange, TooSmall, UnsupportedSurface
from .laurent import LaurentFraction, Polynomial

MatrixRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetric integer matrix driving the exchange relations."""

    rows: MatrixRows

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("exchange matrix must be square")
        for i in range(size):
            for j in range(size):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("exchange matrix must be skew-symmetric")

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(row[k - 1] for row in self.rows)

    def permuted(self, perm: tuple[int, ...]) -> "ExchangeMatrix":
        """Simultaneous row/column relabelling: new index i holds old perm[i]."""
        return ExchangeMatrix(
            tuple(tuple(self.rows[perm[i]][perm[j]] for j in range(self.size)) for i in range(self.size))
        )

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def mutate_matrix(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix half of mutation in direction k (1-based)."""
    size = matrix.size
    if not 1 <= k <= size:
        raise DirectionOutOfRange(f"direction {k} outside 1..{size}")
    kk = k - 1
    old = matrix.rows
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == kk or j == kk:
                row.append(-old[i][j])
            else:
                bump = abs(old[i][kk]) * old[kk][j] + old[i][kk] * abs(old[kk][j])
                row.append(old[i][j] + bump // 2)
        rows.append(tuple(row))
    return ExchangeMatrix(tuple(rows))


@dataclass(frozen=True)
class Seed:
    """Cluster variables (in the initial variables) plus exchange matrix."""

    variables: tuple[LaurentFraction, ...]
    matrix: ExchangeMatrix

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.matrix.size:
            raise ValueError("variable count does not match matrix size")

    @property
    def rank(self) -> int:
        return self.matrix.size

    def to_json_dict(self) -> dict:
        return {
            "B": self.matrix.to_json(),
            "vars": [v.render() for v in self.variables],
        }


def initial_seed(matrix: ExchangeMatrix) -> Seed:
    n = matrix.size
    return Seed(tuple(LaurentFraction.unit_variable(i, n) for i in range(1, n + 1)), matrix)


def mutate_seed(seed: Seed, k: int) -> Seed:
    if not 1 <= k <= seed.rank:
        raise DirectionOutOfRange(f"direction {k} outside 1..{seed.rank}")
    return _mutate_seed_cached(seed, k)


@lru_cache(maxsize=2048)
def _mutate_seed_cached(seed: Seed, k: int) -> Seed:
    n = seed.rank
    column = seed.matrix.column(k)
    plus = LaurentFraction.from_polynomial(Polynomial.constant(n, 1))
    minus = LaurentFraction.from_polynomial(Polynomial.constant(n, 1))
    for i, b in enumerate(column, start=1):
        if b > 0:
            plus = plus * seed.variables[i - 1] ** b
        elif b < 0:
            minus = minus * seed.variables[i - 1] ** (-b)
    exchanged = (plus + minus).divide_exact(seed.variables[k - 1])
    variables = list(seed.variables)
    variables[k - 1] = exchanged
    return Seed(tuple(variables), mutate_matrix(seed.matrix, k))


def laurent_check(seed: Seed, directions) -> bool:
    """Mutate along the sequence; True iff every variable produced along the
    way is a reduced Laurent fraction over a monomial denominator."""
    current = seed
    for k in directions:
        current = mutate_seed(current, k)
        for var in current.variables:
            if not var.is_reduced():
                return False
    return True


def _canonical_form(seed: Seed) -> tuple:
    """Orbit representative under simultaneous relabelling of positions:
    sort the variables, breaking ties by the least permuted matrix."""
    keys = [v.key() for v in seed.variables]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    groups: list[list[int]] = []
    for pos in order:
        if groups and keys[groups[-1][-1]] == keys[pos]:
            groups[-1].append(pos)
        else:
            groups.append([pos])
    best_matrix = None
    for perm in _tie_permutations(groups):
        candidate = seed.matrix.permuted(perm).rows
        if best_matrix is None or candidate < best_matrix:
            best_matrix = candidate
    return (tuple(keys[i] for i in order), best_matrix)


def _tie_permutations(groups):
    """All position orders consistent with the sorted variable order."""
    from itertools import permutations, product

    options = [list(permutations(g)) for g in groups]
    for choice in product(*options):
        flat = []
        for part in choice:
            flat.extend(part)
        yield tuple(flat)


def enumerate_seeds(seed: Seed, max_seeds: int) -> tuple[int, bool]:
    """Breadth-first closure under mutation up to relabelling.

    Returns (count, finite).  If the closure has not completed once
    ``max_seeds`` distinct seeds are known, reports (max_seeds, False).
    """
    if max_seeds < 1:
        raise ValueError("max_seeds must be at least 1")
    seen = {_canonical_form(seed)}
    frontier = [seed]
    while frontier:
        next_frontier = []
        for current in frontier:
            for k in range(1, current.rank + 1):
                neighbour = mutate_seed(current, k)
                form = _canonical_form(neighbour)
                if form in seen:
                    continue
                if len(seen) >= max_seeds:
                    return max_seeds, False
                seen.add(form)
                next_frontier.append(neighbour)
        frontier = next_frontier
    return len(seen), True


def polygon_seed(vertex_count: int) -> Seed:
    """Initial seed of the fan triangulation of a convex polygon: the path
    quiver on vertex_count - 3 diagonals."""
    if vertex_count < 4:
        raise TooSmall(f"a polygon seed needs at least 4 vertices, got {vertex_count}")
    n = vertex_count - 3
    rows = []
    for i in range(n):
        row = [0] * n
        if i + 1 < n:
            row[i + 1] = 1
        if i - 1 >= 0:
            row[i - 1] = -1
        rows.append(tuple(row))
    return initial_seed(ExchangeMatrix(tuple(rows)))


@dataclass(frozen=True)
class SurfaceSpec:
    """A genus-g surface with n cusps, 2g - 2 + n > 0."""

    genus: int
    cusps: int

    def __post_init__(self):
        if self.genus < 0 or self.cusps < 0:
            raise ValueError("genus and cusp count must be nonnegative")
        if 2 * self.genus - 2 + self.cusps <= 0:
            raise UnsupportedSurface(
                f"surface ({self.genus},{self.cusps}) violates 2g-2+n > 0"
            )

    @property
    def cluster_rank(self) -> int:
        return 6 * self.genus - 6 + 3 * self.cusps

    @property
    def af_rank(self) -> int:
        return 6 * self.genus - 6 + 2 * self.cusps


_TORUS_WITH_CUSP = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


def surface_seed(spec: SurfaceSpec) -> Seed:
    """Seed of an ideal triangulation; available only for the once-cusped
    torus, the single case with an explicit matrix."""
    if (spec.genus, spec.cusps) != (1, 1):
        raise UnsupportedSurface(
            f"no explicit exchange matrix for surface ({spec.genus},{spec.cusps})"
        )
    return initial_seed(ExchangeMatrix(_TORUS_WITH_CUSP))


def mutation_tree(seed: Seed, depth: int, prune_backtrack: bool = False) -> BratteliDiagram:
    """Leveled graph of seeds reached by 0..depth mutations.

    Seeds are deduplicated exactly (variables and matrix, no relabelling)
    within each level; an edge of multiplicity m records m directions
    leading from a seed to the same seed one level down.  With
    ``prune_backtrack`` the immediately undoing direction is skipped.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > 6:
        raise BudgetExceeded(f"tree depth {depth} exceeds the node-count guard (6)")
    levels = [[(seed, None)]]  # (seed, direction used to arrive)
    sizes = [1]
    matrices = []
    for _ in range(depth):
        current = levels[-1]
        index: dict[Seed, int] = {}
        nxt: list[tuple[Seed, int | None]] = []
        counts: dict[tuple[int, int], int] = {}
        for pos, (node, arrived) in enumerate(current):
            for k in range(1, node.rank + 1):
                if prune_backtrack and arrived == k:
                    continue
                child = mutate_seed(node, k)
                if child not in index:
                    index[child] = len(nxt)
                    nxt.append((child, k))
                key = (pos, index[child])
                counts[key] = counts.get(key, 0) + 1
        matrices.append(
            tuple(
                tuple(counts.get((i, j), 0) for j in range(len(nxt)))
                for i in range(len(current))
            )
        )
        sizes.append(len(nxt))
        levels.append(nxt)
    return BratteliDiagram(tuple(sizes), tuple(matrices))

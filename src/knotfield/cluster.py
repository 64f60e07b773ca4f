"""Exact cluster mutation: seeds, exchange matrices, enumeration.

A seed is a tuple of Laurent fractions (the cluster variables, written in
the initial variables) together with a skew-symmetric integer exchange
matrix.  Mutation in direction k replaces the k-th variable through the
exchange relation

    x_k * x_k' = prod_i x_i^max(b_ik, 0) + prod_i x_i^max(-b_ik, 0)

and transforms the matrix entrywise; both operations are involutions.  All
arithmetic is exact integer arithmetic, and every mutated variable is again
a Laurent fraction with monomial denominator.  In general x_k' is the exact
quotient of the right-hand side by x_k; a division failure aborts with
NonLaurentResult and indicates a bug, not a counterexample.  Seeds reached
from the initial seed of the once-cusped torus (matrix +-B0) are flagged
and take a division-free route: every exchange there reads
x_k * x_k' = x_i^2 + x_j^2 and K = (x1^2 + x2^2 + x3^2) / (x1 x2 x3) is the
same in every seed, so x_k' = K x_i x_j - x_k (the Markov recurrence with
variables; Propp, The combinatorics of frieze patterns and Markoff numbers,
2005).  A ``Seed`` built directly is not flagged and divides.  An exchange
operand of more than MAX_OPERAND_TERMS numerator terms raises
BudgetExceeded before either route multiplies.

Enumeration and mutation trees need only seed identity, so they run on
the extended exchange matrix [B; C] instead: B over the C-matrix, whose
columns are the c-vectors relative to the start seed, mutated by the entry
rule of B alone (Fomin and Zelevinsky, Cluster algebras IV, 2007).

Everything here is a pure function of immutable values; mutation is
memoized, which makes replaying shared prefixes of direction sequences
(random property runs) cheap.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, neg, sub

from ._record import record
from .af import BratteliDiagram
from .errors import BudgetExceeded, DirectionOutOfRange, TooSmall, UnsupportedSurface, integer_rows
from .laurent import LaurentFraction, Polynomial

MatrixRows = tuple[tuple[int, ...], ...]

# numerator terms of one exchange operand; on the torus path 1,2,3,... the
# largest operand has 7921 terms at step 11 and 20737 at step 12
MAX_OPERAND_TERMS = 10_000
# vertices of a polygon seed, whose matrix has (vertices - 3)^2 entries
MAX_POLYGON_VERTICES = 100
# entries one mutation-tree level may write: a C block of rank^2 per child
# and an edge-matrix row of at most (level size * rank) per seed, so
# level size * rank * (rank^2 + level size); polygon 11 at depth 6 needs
# 16,788,616 at its last level; also the entries that seed enumeration may
# hold, rank^2 + _SEED_OVERHEAD per seed
MAX_TREE_ENTRIES = 20_000_000
# entries charged to each enumerated seed beside its rank^2 c-vector entries:
# at rank 3 a seed costs about 0.85 KiB (its sorted key, a set slot and its
# frontier rows), about 109 eight-byte words
_SEED_OVERHEAD = 100

_TORUS_WITH_CUSP = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
# (x1^2 + x2^2 + x3^2) / (x1 x2 x3), the same in every seed of the torus
_MARKOV = LaurentFraction(Polynomial(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}), (1, 1, 1))


@record
class ExchangeMatrix:
    """Skew-symmetric integer matrix driving the exchange relations.  Entries
    must be integers: an integral value such as 2.0 or a numpy integer is
    converted, and any other raises ValueError."""

    rows: MatrixRows

    def __post_init__(self):
        rows = integer_rows(self.rows, "exchange matrix")
        object.__setattr__(self, "rows", rows)
        if not set(map(len, rows)) <= {len(rows)}:
            raise ValueError("exchange matrix must be square")
        if rows != tuple(tuple(map(neg, col)) for col in zip(*rows)):
            raise ValueError("exchange matrix must be skew-symmetric")

    @property
    def size(self) -> int:
        return len(self.rows)

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(row[k - 1] for row in self.rows)


def _check_direction(size: int, k: int):
    if not 1 <= k <= size:
        raise DirectionOutOfRange(f"direction {k} outside 1..{size}")


def mutate_matrix(matrix: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix half of mutation in direction k (1-based)."""
    _check_direction(matrix.size, k)
    return ExchangeMatrix(_mutate_b(matrix.rows, k - 1))


def _mutate_b(rows: MatrixRows, k: int) -> MatrixRows:
    """Rows of B, or of the extended matrix [B; C], mutated at k (0-based):
    row k of B is negated, and every other row has a_ik -> -a_ik and
    a_ij -> a_ij + (|a_ik| b_kj + a_ik |b_kj|) / 2 for j != k.  That term is
    a_ik max(b_kj, 0) when a_ik > 0 and a_ik max(-b_kj, 0) when a_ik < 0, so
    the pivot row is split by sign once and a row with a_ik = 0 is shared.
    The rule is an involution: mutating the result at k gives ``rows``."""
    pivot = rows[k]
    plus = [p if p > 0 else 0 for p in pivot]
    minus = [-p if p < 0 else 0 for p in pivot]
    out = []
    for row in rows:
        a = row[k]
        if a == 0:
            out.append(row)
            continue
        if a == 1:
            new = list(map(add, row, plus))
        elif a == -1:
            new = list(map(sub, row, minus))
        else:
            new = [v + a * q for v, q in zip(row, plus if a > 0 else minus)]
        new[k] = -a
        out.append(tuple(new))
    out[k] = tuple(map(neg, pivot))
    return tuple(out)


@record
class Seed:
    """Cluster variables (in the initial variables) plus exchange matrix."""

    variables: tuple[LaurentFraction, ...]
    matrix: ExchangeMatrix
    # True only on seeds from initial_seed on +-B0 and from the Markov route,
    # whose variables satisfy (x1^2 + x2^2 + x3^2) / (x1 x2 x3) = _MARKOV.  A
    # seed equal to a flagged one satisfies it too, so equality ignores it
    # (the leading underscore keeps it out of __init__, ==, hash and repr).
    _markov: bool = False

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.matrix.size:
            raise ValueError("variable count does not match matrix size")

    @property
    def rank(self) -> int:
        return self.matrix.size


def initial_seed(matrix: ExchangeMatrix) -> Seed:
    n = matrix.size
    seed = Seed(tuple(LaurentFraction.unit_variable(i, n) for i in range(1, n + 1)), matrix)
    if matrix.rows in (_TORUS_WITH_CUSP, _mutate_b(_TORUS_WITH_CUSP, 0)):  # B0 or -B0
        object.__setattr__(seed, "_markov", True)
    return seed


def mutate_seed(seed: Seed, k: int) -> Seed:
    _check_direction(seed.rank, k)
    return _mutate_seed_cached(seed, k, seed._markov)


@lru_cache(maxsize=2048)
def _mutate_seed_cached(seed: Seed, k: int, markov: bool) -> Seed:
    """Mutation at k by the Markov route when ``markov`` is set, else by
    exact division; the result carries ``markov`` as its flag."""
    x_k = seed.variables[k - 1]
    pairs = list(zip(seed.variables, seed.matrix.column(k)))
    terms = max(len(x.numerator.terms) for x in (x_k, *(x for x, b in pairs if b)))
    if terms > MAX_OPERAND_TERMS:
        raise BudgetExceeded(f"exchange operand of {terms} terms exceeds the limit of {MAX_OPERAND_TERMS}")
    if markov:
        x_i, x_j = (x for i, x in enumerate(seed.variables, 1) if i != k)
        exchanged = LaurentFraction.product(_MARKOV, x_i, x_j) - x_k
    else:
        plus, minus = (
            _exchange_monomial(seed.rank, [x for x, b in pairs for _ in range(sign * b)]) for sign in (1, -1)
        )
        exchanged = (plus + minus).divide_exact(x_k)
    variables = list(seed.variables)
    variables[k - 1] = exchanged
    mutated = Seed(tuple(variables), mutate_matrix(seed.matrix, k))
    object.__setattr__(mutated, "_markov", markov)
    return mutated


def _exchange_monomial(rank: int, factors: list[LaurentFraction]) -> LaurentFraction:
    """One side of the exchange relation: the product of ``factors`` (x_i
    repeated |b_ik| times) taken at once, or 1 when there are none."""
    if not factors:
        return LaurentFraction.from_polynomial(Polynomial.constant(rank, 1))
    return LaurentFraction.product(*factors)


def laurent_check(seed: Seed, directions) -> bool:
    """Mutate along the sequence and return True.  The certificate is the
    exact division in each exchange (``LaurentFraction.divide_exact``): a
    quotient that is not a Laurent polynomial raises NonLaurentResult.  It
    divides on the torus too, where ``mutate_seed`` takes the division-free
    Markov route, so the certificate stays independent of that route.  Its
    steps are memoized apart from that route's and obey the operand term
    limit."""
    current = seed
    for k in directions:
        _check_direction(current.rank, k)
        current = _mutate_seed_cached(current, k, False)
    return True


def _extended_start(seed: Seed) -> MatrixRows:
    """[B; C] at the start seed: the rows of B over those of C = I."""
    n = seed.rank
    return seed.matrix.rows + tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def enumerate_seeds(seed: Seed, max_seeds: int) -> tuple[int, bool]:
    """Breadth-first closure under mutation up to relabelling.

    Returns (count, finite).  If the closure has not completed once
    ``max_seeds`` distinct seeds are known, reports (max_seeds, False).
    Each seed counts as rank^2 + _SEED_OVERHEAD entries (its key and the
    storage around it), so adding a seed that would make the seeds held
    count past MAX_TREE_ENTRIES raises BudgetExceeded instead.

    Runs on the extended exchange matrix [B; C] from ``seed.matrix``
    (Fomin and Zelevinsky, Cluster algebras IV, 2007) and keys a seed by
    its c-vectors, the columns of C, as a multiset.  Two keys are equal
    exactly when the seeds agree up to relabelling: C_t fixes the seed with
    principal coefficients, since tropical duality gives G_t = (C_t^T)^-1
    and B_t = C_t^T B_0 C_t (Nakanishi and Zelevinsky, 2012) and g-vectors
    fix cluster variables (Gross, Hacking, Keel and Kontsevich, 2018); the
    exchange graph does not depend on coefficients (Cao, Huang and Li,
    2020); and ``ExchangeMatrix`` only admits skew-symmetric B.  The
    c-vectors are distinct because C is invertible, and a relabelling
    permutes them and B together.

    Mutation is an involution, so the neighbour of a frontier seed in the
    direction it arrived by is the seed it came from, already in the set:
    the frontier carries that direction and skips it.
    """
    if max_seeds < 1:
        raise ValueError("max_seeds must be at least 1")
    n = seed.rank
    per_seed = n * n + _SEED_OVERHEAD
    cap = MAX_TREE_ENTRIES // per_seed  # seeds that fit the entry limit
    start = _extended_start(seed)
    seen = {tuple(sorted(zip(*start[n:])))}
    frontier = [(start, None)]  # (seed, direction used to arrive)
    while frontier:
        next_frontier = []
        for current, arrived in frontier:
            for k in range(n):
                if k == arrived:
                    continue
                neighbour = _mutate_b(current, k)
                form = tuple(sorted(zip(*neighbour[n:])))
                if form in seen:
                    continue
                if len(seen) >= max_seeds:
                    return max_seeds, False
                if len(seen) >= cap:
                    raise BudgetExceeded(
                        f"{len(seen) + 1} seeds of rank {n} would count {(len(seen) + 1) * per_seed} "
                        f"entries ({n * n} + {_SEED_OVERHEAD} each), above the limit of {MAX_TREE_ENTRIES}"
                    )
                seen.add(form)
                next_frontier.append((neighbour, k))
        frontier = next_frontier
    return len(seen), True


def polygon_seed(vertex_count: int) -> Seed:
    """Initial seed of the fan triangulation of a convex polygon: the path
    quiver on vertex_count - 3 diagonals.  More than MAX_POLYGON_VERTICES
    vertices raise BudgetExceeded before the matrix is built."""
    if vertex_count < 4:
        raise TooSmall(f"a polygon seed needs at least 4 vertices, got {vertex_count}")
    if vertex_count > MAX_POLYGON_VERTICES:
        raise BudgetExceeded(
            f"a polygon seed of {vertex_count} vertices exceeds the limit of {MAX_POLYGON_VERTICES}"
        )
    n = vertex_count - 3
    rows = tuple(tuple((j == i + 1) - (j == i - 1) for j in range(n)) for i in range(n))
    return initial_seed(ExchangeMatrix(rows))


@record
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
    Depth above 6, or a level that could write more than MAX_TREE_ENTRIES
    entries, raises BudgetExceeded before that level is built.

    Runs on [B; C] from ``seed.matrix`` and keys a seed by its labelled
    C block, which fixes B and the cluster variables for the reasons given
    under ``enumerate_seeds``.  Each level's rows are written once: a seed's
    child indices are recorded as the level is walked, then counted into
    its row, which the diagram keeps as the tuple it was frozen to.
    Mutation is an involution, so a seed's child in the direction it
    arrived by is its parent, whose rows are carried instead of recomputed.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > 6:
        raise BudgetExceeded(f"tree depth {depth} exceeds the node-count guard (6)")
    n = seed.rank
    current = [(_extended_start(seed), None, None)]  # (seed, direction used to arrive, parent)
    matrices = []
    for level in range(1, depth + 1):
        entries = len(current) * n * (n * n + len(current))
        if entries > MAX_TREE_ENTRIES:
            raise BudgetExceeded(
                f"tree level {level} could write {entries} entries, above the limit of {MAX_TREE_ENTRIES}"
            )
        index: dict[MatrixRows, int] = {}
        nxt: list[tuple[MatrixRows, int | None, MatrixRows | None]] = []
        children: list[list[int]] = []  # per seed, the child index of each direction
        for node, arrived, parent in current:
            targets = []
            for k in range(n):
                if k != arrived:
                    child = _mutate_b(node, k)
                elif prune_backtrack:
                    continue
                else:
                    child = parent
                label = child[n:]
                if label not in index:
                    index[label] = len(nxt)
                    nxt.append((child, k, node))
                targets.append(index[label])
            children.append(targets)
        rows = []
        for targets in children:
            row = [0] * len(nxt)
            for j in targets:
                row[j] += 1
            rows.append(tuple(row))
        matrices.append(tuple(rows))
        current = nxt
    return BratteliDiagram((*map(len, matrices), len(current)), tuple(matrices))

"""Answer checks that share no code path with knotfield.

Every function here works on plain integers, tuples and Fractions, and
imports nothing from the package it checks.  Each one re-derives an
answer from the mathematics the package documents (Catalan counts, the
Markov tree, flips of polygon triangulations, coset tables, Kronecker
symbols, Sturm sequences) by a different algorithm than the package uses.
A check returns ``None`` when the answer is right and a short reason when
it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

# A Mersenne prime: evaluations of cluster variables are reduced modulo it.
MOD = (1 << 61) - 1


# --- cluster algebra ---------------------------------------------------------


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def polygon_closure(vertex_count: int) -> tuple[int, bool]:
    """Seeds of a polygon up to relabelling are its triangulations."""
    return catalan(vertex_count - 2), True


def torus_tree_levels(depth: int, pruned: bool) -> list[int]:
    """The once-cusped torus has a 3-regular exchange graph with no cycles.

    Without pruning, level k holds every seed within k steps of the root
    that has the parity of k: 2^(k+1) - 1.  With pruning it holds the
    3 * 2^(k-1) non-backtracking walks.
    """
    if pruned:
        return [1] + [3 * 2 ** (k - 1) for k in range(1, depth + 1)]
    return [2 ** (k + 1) - 1 for k in range(depth + 1)]


def polygon_tree_levels(vertex_count: int, depth: int, pruned: bool, order=None) -> list[int]:
    """Level sizes of the mutation tree, by flipping diagonals of labelled
    triangulations of a convex polygon.

    Position i starts with diagonal (0, order[i] + 2) of the fan at vertex
    0, matching a seed whose matrix was relabelled by ``order``.  A seed
    reached along several edges keeps the direction of the first one found,
    scanning parents in level order and directions in ascending order; with
    ``pruned`` only that direction is skipped below it.
    """
    n = vertex_count
    order = range(n - 3) if order is None else order
    start = tuple((0, i + 2) for i in order)
    levels = [1]
    frontier = [(start, None)]
    for _ in range(depth):
        seen = {}
        for diagonals, arrived in frontier:
            for pos in range(len(diagonals)):
                if pruned and arrived == pos:
                    continue
                child = _flip(diagonals, pos, n)
                seen.setdefault(child, pos)
        frontier = list(seen.items())
        levels.append(len(frontier))
    return levels


def _flip(diagonals, pos, n):
    edges = set(diagonals) | {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    a, b = diagonals[pos]
    # the diagonal's two triangles have one apex on each side of it; two
    # common neighbours on one side would need crossing edges
    apexes = [
        c for c in range(n)
        if c not in (a, b) and (min(a, c), max(a, c)) in edges and (min(b, c), max(b, c)) in edges
    ]
    (c,) = [v for v in apexes if a < v < b]
    (d,) = [v for v in apexes if not a < v < b]
    out = list(diagonals)
    out[pos] = (min(c, d), max(c, d))
    return tuple(out)


def markov_path_values(point, path):
    """Mutate the numbers ``point`` along ``path`` in the torus exchange
    relation x_k x_k' = x_i^2 + x_j^2, modulo MOD."""
    values = list(point)
    for k in path:
        i, j = [x for x in range(3) if x != k - 1]
        values[k - 1] = (values[i] ** 2 + values[j] ** 2) * pow(values[k - 1], -1, MOD) % MOD
    return values


def markov_invariant(values) -> int:
    x, y, z = values
    return (x * x + y * y + z * z) * pow(x * y * z % MOD, -1, MOD) % MOD


class LaurentEvaluator:
    """Evaluates Laurent fractions, given as (terms, denominator) data, at
    one point modulo MOD, caching powers of the coordinates."""

    def __init__(self, point):
        self.point = point
        self._powers = {}

    def power(self, var, exponent):
        key = (var, exponent)
        value = self._powers.get(key)
        if value is None:
            value = self._powers[key] = pow(self.point[var], exponent, MOD)
        return value

    def __call__(self, terms, denominator) -> int:
        total = 0
        for exps, coeff in terms.items():
            term = coeff
            for var, e in enumerate(exps):
                if e:
                    term = term * self.power(var, e) % MOD
            total += term
        den = 1
        for var, e in enumerate(denominator):
            if e:
                den = den * self.power(var, e) % MOD
        return total * pow(den, -1, MOD) % MOD


# --- braids and link groups -------------------------------------------------


def monodromy_trace(letters) -> int:
    """Trace of the product of [[1,1],[0,1]] (s1) and [[1,0],[-1,1]] (s2)
    and their inverses, first letter leftmost."""
    gens = {1: (1, 1, 0, 1), -1: (1, -1, 0, 1), 2: (1, 0, -1, 1), -2: (1, 0, 1, 1)}
    a, b, c, d = 1, 0, 0, 1
    for k in letters:
        e, f, g, h = gens[k]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a + d


def component_count(letters, strands: int) -> int:
    """Cycles of the permutation the braid induces on its strands."""
    position = list(range(strands))
    for k in letters:
        g = abs(k) - 1
        position[g], position[g + 1] = position[g + 1], position[g]
    seen = set()
    cycles = 0
    for start in range(strands):
        if start in seen:
            continue
        cycles += 1
        x = start
        while x not in seen:
            seen.add(x)
            x = position[x]
    return cycles


def _reduce(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _artin_image(k: int, gen: int) -> list[int]:
    """Image of the free generator ``gen`` under s_|k|^sign(k)."""
    i = abs(k)
    if gen == i:
        return [i, i + 1, -i] if k > 0 else [i + 1]
    if gen == i + 1:
        return [i] if k > 0 else [-(i + 1), i, i + 1]
    return [gen]


def link_group_relators(letters, strands: int) -> list[list[int]]:
    """Relators x_i^-1 * b(x_i) of the closure, from the Artin action with
    the first braid letter acting first; trivial relators dropped."""
    images = [[g] for g in range(1, strands + 1)]
    for k in letters:
        new = []
        for word in images:
            out = []
            for x in word:
                img = _artin_image(k, abs(x))
                out.extend(img if x > 0 else [-y for y in reversed(img)])
            new.append(_reduce(out))
        images = new
    relators = []
    for g, image in enumerate(images, start=1):
        rel = _reduce([-g] + image)
        if rel:
            relators.append(rel)
    return relators


def _column(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def coset_table_problem(table, rank: int, relators) -> str | None:
    """Why ``table`` is not a complete, transitive coset table on which
    every relator acts trivially; None if it is one."""
    n = len(table)
    if any(len(row) != 2 * rank for row in table):
        return "row width is not twice the rank"
    for g in range(rank):
        fwd = [row[2 * g] for row in table]
        if sorted(fwd) != list(range(n)):
            return f"generator {g + 1} does not permute the cosets"
        if any(table[fwd[c]][2 * g + 1] != c for c in range(n)):
            return f"inverse column of generator {g + 1} is not the inverse permutation"
    reached = {0}
    stack = [0]
    while stack:
        c = stack.pop()
        for target in table[c]:
            if target not in reached:
                reached.add(target)
                stack.append(target)
    if len(reached) != n:
        return "cosets are not connected"
    for rel in relators:
        cols = [_column(x) for x in rel]
        for start in range(n):
            c = start
            for col in cols:
                c = table[c][col]
            if c != start:
                return f"relator {rel} moves coset {start}"
    return None


def relabel(table, base: int):
    """Renumber the cosets in order of first discovery from ``base``, scanning
    each row's columns left to right."""
    order = [base]
    number = {base: 0}
    for c in order:
        for target in table[c]:
            if target not in number:
                number[target] = len(order)
                order.append(target)
    return tuple(tuple(number[t] for t in table[c]) for c in order)


def canonical_table(table):
    return min(relabel(table, base) for base in range(len(table)))


def is_normal(table) -> bool:
    """The stabilizer of coset 0 is normal iff the action is regular, i.e.
    the table looks the same from every base coset."""
    first = relabel(table, 0)
    return all(relabel(table, base) == first for base in range(1, len(table)))


# --- real quadratic fields ---------------------------------------------------


def factor(n: int) -> dict[int, int]:
    """Trial division; only used on numbers below about 1e13."""
    out: dict[int, int] = {}
    n = abs(n)
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p, step = 5, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += step
        step = 6 - step
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def square_free_of(*parts: int) -> int:
    """Square-free part of the product of ``parts``, factoring each part on
    its own."""
    total: dict[int, int] = {}
    for part in parts:
        for p, e in factor(part).items():
            total[p] = total.get(p, 0) + e
    out = 1
    for p, e in total.items():
        if e % 2:
            out *= p
    return out


def fundamental_discriminant(square_free: int) -> int:
    return square_free if square_free % 4 == 1 else 4 * square_free


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1, by quadratic reciprocity."""
    if n == 1:
        return 1
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def split_kind(disc: int, p: int) -> str:
    return {1: "split", -1: "inert", 0: "ramified"}[kronecker(disc, p)]


def smallest_non_inert_prime(disc: int) -> int:
    p = 2
    while kronecker(disc, p) == -1 or factor(p) != {p: 1}:
        p += 1
    return p


def ideal_count(disc: int, norm: int) -> int:
    """Ideals of the given norm: the sum of (disc/d) over divisors d."""
    return sum(kronecker(disc, d) for d in range(1, norm + 1) if norm % d == 0)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# --- Perron-Frobenius data ---------------------------------------------------


def is_primitive(rows) -> bool:
    """Strongly connected with cycle-length gcd 1 (the graph criterion)."""
    n = len(rows)
    level = {0: 0}
    queue = [0]
    for u in queue:
        for v in range(n):
            if rows[u][v] and v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    back = {0}
    queue = [0]
    for v in queue:
        for u in range(n):
            if rows[u][v] and u not in back:
                back.add(u)
                queue.append(u)
    if len(level) != n or len(back) != n:
        return False
    period = 0
    for u in range(n):
        for v in range(n):
            if rows[u][v]:
                period = math.gcd(period, level[u] + 1 - level[v])
    return period == 1


def _det(rows) -> int:
    """Bareiss fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def characteristic_polynomial(rows) -> list[int]:
    """det(xI - A), lowest degree first, interpolated from its values at
    x = 0..n."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = [
        Fraction(_det([[(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]))
        for x in xs
    ]
    # Newton divided differences, then expand into the monomial basis
    coef = list(ys)
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = [Fraction(0)] * (n + 1)
    for i in range(n, -1, -1):
        # poly = poly * (x - xs[i]) + coef[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - xs[i] * p for s, p in zip(shifted, poly)]
        poly[0] += coef[i]
    return [int(c) for c in poly]


def evaluate_poly(poly, x):
    total = 0
    for c in reversed(poly):
        total = total * x + c
    return total


def _poly_rem(num, den):
    num = list(num)
    while len(num) >= len(den) and any(num):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _sturm_chain(poly):
    p0 = [Fraction(c) for c in poly]
    p1 = [i * c for i, c in enumerate(p0)][1:]
    chain = [p0, p1]
    while True:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            return chain
        chain.append([-c for c in rem])


def _variations(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_roots_above(poly, lo, hi=None) -> int:
    """Distinct real roots in (lo, hi], or in (lo, infinity) without hi."""
    chain = _sturm_chain(poly)
    at_lo = _variations([_sign(evaluate_poly(p, lo)) for p in chain])
    if hi is None:
        at_hi = _variations([_sign(p[-1]) for p in chain])
    else:
        at_hi = _variations([_sign(evaluate_poly(p, hi)) for p in chain])
    return at_lo - at_hi


def _sign(x) -> int:
    return (x > 0) - (x < 0)


REL_TOL = 1e-9


def perron_float_problem(rows, value: float) -> str | None:
    """Certify the reported float: det(xI - A) changes sign within the
    tolerance of it and has no real root beyond."""
    poly = characteristic_polynomial(rows)
    if not math.isfinite(value):
        return f"eigenvalue {value} is not finite"
    centre = Fraction(value)
    tol = Fraction(REL_TOL) * max(1, abs(centre))
    if real_roots_above(poly, centre + tol) != 0:
        return f"float {value!r}: det(xI-A) has a root above it"
    if real_roots_above(poly, centre - tol, centre + tol) < 1:
        return f"float {value!r}: no root of det(xI-A) within {REL_TOL:g} relative"
    return None


def surd_problem(rows, add: int, coeff: int, radicand: int, div: int) -> str | None:
    """(add + coeff*sqrt(radicand))/div must be the larger root of the 2x2
    characteristic polynomial x^2 - t x + det."""
    (a, b), (c, d) = rows
    t, det = a + d, a * d - b * c
    rational = add * add + coeff * coeff * radicand - t * div * add + det * div * div
    irrational = 2 * add * coeff - t * div * coeff
    if rational or irrational:
        return "surd is not a root of the characteristic polynomial"
    if coeff * div <= 0:
        return "surd is the smaller root"
    return None

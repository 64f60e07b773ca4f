"""The four workloads: seeded inputs, the program calls, and their checks.

Each workload function turns a seed into a list of ``Case`` objects.  A case's
``run`` makes the public knotfield calls a CLI handler makes; its
``check`` compares the answer against ``oracles``.  Inputs are built
before the clock starts, so the program sees only the generated values.
The package is reached through ``kf.<name>`` at call time, which lets the
tracer's rebinding take effect.

Known defects (ROADMAP item 3) are listed on the cases that hit them, as
failure kind -> defect tag; such a failure is reported and counted, but
does not make the run incorrect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import knotfield as kf

import oracles as o

# Per-case deadline in seconds.  The registered workloads never come near
# theirs; on ``fields`` it cuts off the ROADMAP 3(c) hangs.
DEADLINES = {"torus-deep": 30.0, "closure": 30.0, "linkgroup": 30.0, "fields": 2.0}

# The host-speed reference loop (worker.REFERENCES) closest to each
# workload's own work: big-integer division on torus-deep, the interpreter
# itself on the rest.
REFERENCE = {"torus-deep": "bigint", "closure": "interp", "linkgroup": "interp", "fields": "interp"}

TORUS_MATRIX = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str] | None]
    expect_error: str | None = None  # DomainError subclass the oracle predicts
    known: dict[str, str] = field(default_factory=dict)  # failure kind -> defect tag
    counter: str | None = None  # per-layer count of answers found wrong


def wrong(detail: str) -> tuple[str, str]:
    return ("wrong", detail)


def build(workload: str, seed: int, small: bool = False) -> list[Case]:
    rng = random.Random(f"{workload}/{seed}")
    return _CASE_MAKERS[workload](rng, small)


# --- torus-deep ----------------------------------------------------------------


def _torus_deep(rng, small):
    """Seeded non-backtracking direction paths on the once-cusped torus.

    After its first two directions a path either turns back to the
    direction before the last one or on to the third.  The paths are a
    fixed set, and the seed relabels the three directions of all of them
    at once; by the symmetry of the torus matrix under relabelling, every
    path costs the same and shares the same prefixes for every seed.  (A
    relabelling drawn per path would change which prefixes the paths
    share, and with it the cost of each path, from seed to seed.)  The
    mutation memo stays live across paths, so shared prefixes hit it.
    Each final seed is evaluated at a seeded point modulo a prime and
    compared with the exchange relation applied to numbers, and with the
    Markov invariant (x1^2 + x2^2 + x3^2) / (x1 x2 x3).
    """
    count, length = (4, 4) if small else (32, 8)
    start = kf.surface_seed(kf.SurfaceSpec(1, 1))
    point = [rng.randrange(2, o.MOD - 1) for _ in range(3)]
    invariant = o.markov_invariant(point)
    evaluate = o.LaurentEvaluator(point)
    values: dict[int, tuple[object, int]] = {}  # id -> (variable, value)

    def value_of(var):
        hit = values.get(id(var))
        if hit is None:
            hit = values[id(var)] = (var, evaluate(var.numerator.terms, var.denominator))
        return hit[1]

    def check_path(path):
        def check(seed):
            sign = -1 if len(path) % 2 else 1
            if seed.matrix.rows != tuple(tuple(sign * v for v in row) for row in TORUS_MATRIX):
                return wrong("exchange matrix is not +-B0")
            got = [value_of(v) for v in seed.variables]
            if got != o.markov_path_values(point, path):
                return wrong("cluster variables disagree with the exchange relation at the test point")
            if o.markov_invariant(got) != invariant:
                return wrong("Markov invariant changed")
            return None
        return check

    def run_path(path):
        def run():
            current = start
            for k in path:
                current = kf.mutate_seed(current, k)
            return current
        return run

    relabel = rng.sample((1, 2, 3), 3)
    cases = []
    for i, path in enumerate(_torus_paths(count, length)):
        path = [relabel[k - 1] for k in path]
        cases.append(Case(f"path{i}:{''.join(map(str, path))}", run_path(path), check_path(path)))
    return cases


def _torus_paths(count, length):
    """``count`` paths of ``length`` directions with distinct turn
    sequences, the same for every seed."""
    fixed = random.Random("torus-deep/paths")
    everything = [[(bits >> i) & 1 for i in range(length - 2)] for bits in range(2 ** (length - 2))]
    fixed.shuffle(everything)
    paths = []
    for turns in everything[:count]:
        path = fixed.sample((1, 2, 3), 2)
        for back in turns:
            path.append(path[-2] if back else 6 - path[-1] - path[-2])
        paths.append(path)
    return paths


# --- closure -------------------------------------------------------------------


def _relabelled(seed, rng):
    """The seed's matrix under a seeded simultaneous row/column permutation:
    new position i is old position perm[i].  Returns (seed, perm)."""
    rows = seed.matrix.rows
    perm = rng.sample(range(len(rows)), len(rows))
    permuted = tuple(tuple(rows[perm[i]][perm[j]] for j in range(len(rows))) for i in range(len(rows)))
    return kf.initial_seed(kf.ExchangeMatrix(permuted)), perm


def _closure(rng, small):
    """Closure under mutation (enumeration) and mutation trees, on polygons
    and the torus, each from a seeded relabelling of its initial seed."""
    polygons = range(4, 7) if small else range(4, 10)
    torus_cap, depth, tree_polygon = (20, 3, 6) if small else (200, 6, 8)
    torus, _ = _relabelled(kf.surface_seed(kf.SurfaceSpec(1, 1)), rng)
    cases = []

    def expect(answer):
        return lambda got: None if tuple(got) == answer else wrong(f"got {tuple(got)}, expected {answer}")

    for v in polygons:
        start, _ = _relabelled(kf.polygon_seed(v), rng)
        cases.append(Case(
            f"enumerate:polygon{v}",
            lambda start=start: kf.enumerate_seeds(start, 10_000),
            expect(o.polygon_closure(v)),
        ))
    cases.append(Case(
        f"enumerate:torus-max{torus_cap}",
        lambda: kf.enumerate_seeds(torus, torus_cap),
        expect((torus_cap, False)),  # the torus has infinitely many seeds
    ))

    def check_tree(levels, rank, pruned):
        def check(diagram):
            if list(diagram.level_sizes) != levels:
                return wrong(f"levels {list(diagram.level_sizes)}, expected {levels}")
            for gap, matrix in enumerate(diagram.edge_matrices):
                out_degree = rank - (1 if pruned and gap > 0 else 0)
                if any(sum(row) != out_degree for row in matrix):
                    return wrong(f"a node at level {gap} does not have {out_degree} edges down")
            return None
        return check

    polygon, order = _relabelled(kf.polygon_seed(tree_polygon), rng)
    for pruned in (False, True):
        tag = "pruned" if pruned else "full"
        cases.append(Case(
            f"tree:torus-{tag}",
            lambda pruned=pruned: kf.mutation_tree(torus, depth, pruned),
            check_tree(o.torus_tree_levels(depth, pruned), 3, pruned),
        ))
        cases.append(Case(
            f"tree:polygon{tree_polygon}-{tag}",
            lambda pruned=pruned: kf.mutation_tree(polygon, depth, pruned),
            check_tree(o.polygon_tree_levels(tree_polygon, depth, pruned, order), tree_polygon - 3, pruned),
        ))
    return cases


# --- linkgroup -----------------------------------------------------------------

# Conjugacy classes and normal subgroups per index 1, 2, ..., pinned from
# the commit that introduced the benchmark.
PINNED = {
    ("1 -2 1 -2", 3): ((1, 1, 1, 2, 4, 11, 9, 10), (1, 1, 1, 1, 1, 1, 1, 1)),
    ("1 1 1 -2", 3): ((1, 1, 2, 3, 2, 8, 7, 10), (1, 1, 1, 1, 1, 2, 1, 1)),
    ("1 1 -2 -2", 3): ((1, 7, 16, 60, 122, 794), (1, 7, 13, 35, 31, 94)),
    ("1 1 1 1 1", 2): ((1, 1, 1, 1, 6, 11, 9, 5), (1, 1, 1, 1, 1, 1, 1, 1)),
    ("1 -2 3 -2", 4): ((1, 3, 4, 7, 6, 12), (1, 3, 4, 7, 6, 12)),
}
REPORTS = (("1 -2 1 -2", 8), ("1 1 1 -2", 8), ("1 1 -2 -2", 6))
SEARCHES = (("1 1 1 1 1", 2, 8), ("1 -2 3 -2", 4, 6))


def _check_records(records, letters, strands, key, max_index):
    relators = o.link_group_relators(letters, strands)
    classes, normals = PINNED[key]
    seen = set()
    for rec in records:
        table = rec.coset_table
        if rec.index != len(table):
            return wrong("index differs from the table size")
        problem = o.coset_table_problem(table, strands, relators)
        if problem:
            return wrong(f"index {rec.index}: {problem}")
        if rec.is_normal != o.is_normal(table):
            return wrong(f"index {rec.index}: normality flag is wrong")
        canon = o.canonical_table(table)
        if canon != table or canon in seen:
            return wrong(f"index {rec.index}: table is not a new class representative")
        seen.add(canon)
    for m in range(1, max_index + 1):
        got = sum(1 for r in records if r.index == m)
        got_normal = sum(1 for r in records if r.index == m and r.is_normal)
        if (got, got_normal) != (classes[m - 1], normals[m - 1]):
            return wrong(f"index {m}: {got} classes / {got_normal} normal, pinned {classes[m - 1]} / {normals[m - 1]}")
    return None


def _linkgroup(rng, small):
    """Low-index subgroups of link groups, through ``report correspondence``
    and ``linkgroup subgroups``/``abelianize``.

    The braids are fixed: the cost of the coset-table search swings by up
    to six times between conjugates of one braid, which would drown any
    change in the search itself.  The seed only orders the cases.
    """
    cap = 4 if small else None
    cases = []
    for text, max_index in REPORTS:
        max_index = cap or max_index
        letters = [int(v) for v in text.split()]

        def check(rep, letters=letters, text=text, max_index=max_index):
            trace = o.monodromy_trace(letters)
            d = o.square_free_of(trace - 2, trace + 2)
            disc = o.fundamental_discriminant(d)
            if rep.invariant.field.square_free != d:
                return wrong(f"field D {rep.invariant.field.square_free}, expected {d}")
            normals = PINNED[(text, 3)][1]
            for row in rep.rows:
                expected = (normals[row.index - 1], o.ideal_count(disc, row.index))
                if (row.normal_subgroups, row.ideals_of_norm) != expected:
                    return wrong(f"row {row.index}: {(row.normal_subgroups, row.ideals_of_norm)}, expected {expected}")
            if [row.index for row in rep.rows] != list(range(1, max_index + 1)):
                return wrong("rows do not cover 1..max_index")
            return None

        cases.append(Case(
            f"report:{text}:<={max_index}",
            lambda text=text, max_index=max_index: kf.correspondence_report(kf.parse_braid(text, 3), max_index),
            check,
        ))
    for text, strands, max_index in SEARCHES:
        max_index = cap or max_index
        letters = [int(v) for v in text.split()]

        def run(text=text, strands=strands, max_index=max_index):
            return kf.low_index_subgroups(kf.link_group_presentation(kf.parse_braid(text, strands)), max_index)

        cases.append(Case(
            f"subgroups:{text}:{strands}:<={max_index}",
            run,
            lambda records, letters=letters, strands=strands, text=text, max_index=max_index:
                _check_records(records, letters, strands, (text, strands), max_index),
        ))
    for text, strands in PINNED:
        letters = [int(v) for v in text.split()]

        def run(text=text, strands=strands):
            presentation = kf.link_group_presentation(kf.parse_braid(text, strands))
            return presentation, kf.abelianization(presentation)

        def check(result, letters=letters, strands=strands):
            presentation, (free_rank, torsion) = result
            if [r.letters() for r in presentation.relators] != o.link_group_relators(letters, strands):
                return wrong("relators differ from the Artin action")
            components = o.component_count(letters, strands)
            if (free_rank, torsion) != (components, []):
                return wrong(f"H1 = Z^{free_rank} + {torsion}, expected Z^{components}")
            return None

        cases.append(Case(f"abelianize:{text}:{strands}", run, check))
    rng.shuffle(cases)
    return cases


# --- fields --------------------------------------------------------------------

_GUARD = 1 << 63  # radicands above it are refused (ROADMAP 3(d))
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_NORMS = 30


def _splitting(field_, components):
    return (
        [kf.split_prime(field_, p) for p in _PRIMES],
        [kf.ideals_of_norm(field_, m) for m in range(1, _NORMS + 1)],
        kf.ideal_chain(field_, components),
    )


def _field_data_problem(field_, splitting, radicand, d, components):
    splits, ideals, chain = splitting
    k = math.isqrt(radicand // d) if radicand % d == 0 else 0
    if field_.square_free != d or d * k * k != radicand:
        return wrong(f"D {field_.square_free}, expected {d}")
    disc = o.fundamental_discriminant(d)
    if field_.discriminant != disc:
        return wrong(f"discriminant {field_.discriminant}, expected {disc}")
    for p, s in zip(_PRIMES, splits):
        kind = o.split_kind(disc, p)
        if s.kind != kind:
            return wrong(f"prime {p} is {s.kind}, expected {kind}")
        if kind == "split" and p > 2 and (s.root * s.root - disc) % p:
            return wrong(f"root {s.root} is not a square root of {disc} mod {p}")
    expected = [o.ideal_count(disc, m) for m in range(1, _NORMS + 1)]
    if ideals != expected:
        return wrong(f"ideal counts {ideals}, expected {expected}")
    p = o.smallest_non_inert_prime(disc)
    got = [(s.prime, s.kind, e) for ideal in chain for s, e in ideal.factors]
    want = [(p, o.split_kind(disc, p), e) for e in range(components, 0, -1)]
    if got != want:
        return wrong(f"ideal chain {got}, expected {want}")
    return None


def _field_problem(result, radicand, d, components):
    inv, splitting = result
    if inv.radicand != radicand:
        return wrong(f"radicand {inv.radicand}, expected {radicand}")
    if (inv.components, inv.is_knot) != (components, components == 1):
        return wrong("component count")
    return _field_data_problem(inv.field, splitting, radicand, d, components)


def _field_case(name, letters, radicand=None, d=None, known=None):
    """``field --braid`` on a 3-strand word, then splitting and ideals.

    The oracle's trace comes from its own matrix product; ``radicand`` and
    ``d`` may be given when a closed form is cheaper than factoring."""
    text = " ".join(map(str, letters))
    trace = o.monodromy_trace(letters)
    if abs(trace) <= 2:
        return Case(name, lambda: kf.field_of(kf.parse_braid(text, 3)), lambda _: None,
                    expect_error="NonHyperbolic")
    if radicand is None:
        radicand, d = trace * trace - 4, o.square_free_of(trace - 2, trace + 2)
    elif radicand != trace * trace - 4:
        raise AssertionError(f"closed form for {name} disagrees with the trace")
    components = o.component_count(letters, 3)

    def run():
        inv = kf.field_of(kf.parse_braid(text, 3))
        return inv, _splitting(inv.field, inv.components)

    return Case(name, run, lambda r: _field_problem(r, radicand, d, components), known=known or {})


def _pq_case(p, q):
    """``field --pq``: the braid s1^p s2^-q, so p + q stays small."""
    m = p * q
    d = o.square_free_of(p, q, m + 4)  # radicand pq(pq+4), factored piecewise
    components = o.component_count((1,) * p + (-2,) * q, 3)

    def run():
        inv = kf.field_of(kf.two_generator_power_braid(p, q))
        return inv, _splitting(inv.field, inv.components)

    return Case(f"field:pq={p},{q}", run, lambda r: _field_problem(r, m * (m + 4), d, components))


def _radicand_case(p, q, components):
    """The field of radicand pq(pq+4) straight from ``make_field``, for
    pairs whose braid would be too long to build; trial division then runs
    up to its 2.1M bound when the radicand keeps two large prime factors."""
    m = p * q
    radicand = m * (m + 4)
    d = o.square_free_of(p, q, m + 4)

    def run():
        field_ = kf.make_field(radicand)
        return field_, _splitting(field_, components)

    def check(result):
        field_, splitting = result
        if field_.radicand_raw != radicand:
            return wrong(f"radicand {field_.radicand_raw}, expected {radicand}")
        return _field_data_problem(field_, splitting, radicand, d, components)

    return Case(f"make_field:pq={p},{q}", run, check)


def _lucas_case(n):
    """(s1 s2^-1)^n has trace L(2n), so radicand 5 F(2n)^2 and D = 5."""
    radicand = 5 * o.fibonacci(2 * n) ** 2
    known = {"raised:TooLargeToFactor": "3(d)"} if radicand > _GUARD else None
    return _field_case(f"field:(s1s2^-1)^{n}", (1, -2) * n, radicand, 5, known)


def _table_case(pairs):
    expected = []
    for p, q in pairs:
        m = p * q
        d = o.square_free_of(p, q, m + 4)
        expected.append((p, q, m * (m + 4), d, f"Q(sqrt({m * (m + 4)}))"))

    def check(rows):
        got = [(r.p, r.q, r.radicand, r.square_free, r.field) for r in rows]
        return None if got == expected else wrong(f"table {got}, expected {expected}")

    return Case(f"table:{len(pairs)}-pairs", lambda: kf.field_table(pairs), check)


def _random_matrix(rng, size, sparse, primitive):
    entries = (0, 0, 0, 1, 1, 2) if sparse else (0, 1, 2, 3)
    while True:
        rows = tuple(tuple(rng.choice(entries) for _ in range(size)) for _ in range(size))
        dead = any(not any(r) for r in rows) or any(not any(col) for col in zip(*rows))
        if o.is_primitive(rows) == primitive and not dead:
            return rows


def _perron_case(name, rows, known=None):
    text = ";".join(",".join(map(str, r)) for r in rows)
    if not o.is_primitive(rows):
        return Case(f"perron:{name}:{text}", lambda: kf.perron(kf.IncidenceMatrix(rows)), lambda _: None,
                    expect_error="NotPrimitive")
    n = len(rows)
    poly = o.characteristic_polynomial(rows)

    def run():
        matrix = kf.IncidenceMatrix(rows)
        return kf.perron(matrix), kf.dimension_group(matrix)

    def check(result):
        data, group = result
        problem = o.perron_float_problem(rows, data.eigenvalue)
        if problem:
            return ("wrong_float", problem)
        if list(data.char_polynomial) != poly:
            return wrong(f"char poly {data.char_polynomial}, expected {poly}")
        value = Fraction(data.eigenvalue)
        tol = Fraction(o.REL_TOL) * max(1, abs(value))
        if o.real_roots_above(list(data.min_polynomial), value - tol, value + tol) < 1:
            return wrong("eigenvalue is not a root of the reported minimal polynomial")
        if n > 2 and data.exact is not None:
            return wrong("exact value reported for size > 2")
        radicand = None
        if isinstance(data.exact, Fraction):
            lam = data.exact
            if o.evaluate_poly(poly, lam) != 0 or o.real_roots_above(poly, lam) != 0:
                return wrong(f"exact {lam} is not the largest root")
        elif n == 2:
            s = data.exact
            problem = o.surd_problem(rows, s.add, s.coeff, s.radicand, s.div)
            if problem:
                return wrong(problem)
            radicand = poly[1] ** 2 - 4 * poly[0]  # trace^2 - 4 det
        if group.radicand != radicand:
            return wrong(f"dimension group radicand {group.radicand}, expected {radicand}")
        if group.rank != n or tuple(group.min_polynomial) != tuple(data.min_polynomial):
            return wrong("dimension group rank or minimal polynomial")
        return None

    known = known or {"wrong_float": "3(a)", "raised:NoConvergence": "3(a)"}
    return Case(f"perron:{name}:{text}", run, check, known=known, counter="af.perron.wrong")


def _fields(rng, small):
    """Quadratic fields of braids and Perron data of incidence matrices,
    including the inputs behind the known defects of ROADMAP item 3."""
    npairs, nwords, nmatrices = (2, 3, 4) if small else (12, 12, 24)
    lucas = (10, 25) if small else range(10, 31)
    cases = []
    for _ in range(npairs):
        cases.append(_pq_case(rng.randint(1, 300), rng.randint(1, 300)))
        m = max(2, int(math.exp(rng.uniform(math.log(2), math.log(1e9)))))  # pq(pq+4) up to ~1e18
        p = rng.randint(1, 9)
        cases.append(_radicand_case(p, max(1, m // p), rng.randint(1, 3)))
    for i in range(nwords):
        letters = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(4, 14)))
        cases.append(_field_case(f"field:word{i}", letters))
    cases.extend(_lucas_case(n) for n in lucas)
    cases.append(_table_case([(p, q) for p in (1, 2, 3) for q in (1, 2, 4)]))
    for i in range(nmatrices):
        primitive = i % 6 != 5
        rows = _random_matrix(rng, 2 + i % 4, sparse=i % 2 == 1, primitive=primitive)
        cases.append(_perron_case(f"random{i}", rows))
    cases.append(_perron_case("plastic", ((0, 1, 0), (0, 0, 1), (1, 1, 0))))
    cases.append(_perron_case("3b", ((1000000007, 3), (5, 1000000009)), {"wrong_float": "3(b)"}))
    cases.append(_perron_case("3c", ((10000000000, 1), (1, 1)), {"deadline": "3(c)"}))
    cases.append(_perron_case("3c", ((3, 1, 1), (1, 3, 1), (1, 1, 100000000000)), {"deadline": "3(c)"}))
    rng.shuffle(cases)
    return cases


_CASE_MAKERS = {
    "torus-deep": _torus_deep,
    "closure": _closure,
    "linkgroup": _linkgroup,
    "fields": _fields,
}

"""Command-line interface.

Machine output goes to stdout (JSON with --json, Graphviz with --dot where
supported); diagnostics go to stderr.  Exit codes: 0 success, 1 usage
error, 2 domain error (non-hyperbolic braid, perfect-square radicand, and
friends), with a one-line ``ErrorKind: reason`` on stderr.

This module alone writes the stdout formats: each handler builds its JSON
payload and its text from public fields of the domain objects, which know
nothing of either.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import af, cluster
from ._record import record
from .artin import arc_presentation, link_group_presentation
from .braid import closure_components, free_reduce, parse_braid
from .errors import DomainError, integer
from .invariant import field_of, field_table, two_generator_power_braid
from .report import correspondence_report
from .subgroups import INDEX_CAP, low_index_subgroups


@record
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# global flags may appear before the subcommand or after it; SUPPRESS keeps
# a later (sub)parser from clobbering a value the root parser already set
_GLOBAL_DEFAULTS = {"json": False, "dot": False, "seed": 0, "strands": 3}


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON on stdout")
    common.add_argument("--dot", action="store_true", default=argparse.SUPPRESS,
                        help="emit Graphviz DOT where supported")
    common.add_argument("--seed", type=integer, default=argparse.SUPPRESS,
                        help="seed for randomized property trials")
    common.add_argument("--strands", type=integer, default=argparse.SUPPRESS,
                        help="strand count for braid inputs")
    return common


@functools.cache
def _build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(
        prog="knotfield",
        description="braid closures, cluster mutation, and quadratic fields",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    braid = sub.add_parser("braid", help="braid word utilities")
    braid_sub = braid.add_subparsers(dest="action", required=True)
    for name in ("components", "normalize"):
        p = braid_sub.add_parser(name, parents=[common])
        p.add_argument("word", help="braid word, e.g. '1 -2' or 's1 s2^-1'")

    linkgroup = sub.add_parser("linkgroup", help="closure fundamental group")
    lg_sub = linkgroup.add_subparsers(dest="action", required=True)
    for name in ("present", "abelianize", "subgroups"):
        p = lg_sub.add_parser(name, parents=[common])
        p.add_argument("word")
        if name == "subgroups":
            p.add_argument("--max-index", type=integer, default=4)

    cl = sub.add_parser("cluster", help="cluster mutation engine")
    cl_sub = cl.add_subparsers(dest="action", required=True)
    mutate = cl_sub.add_parser("mutate", parents=[common])
    mutate.add_argument("--dirs", required=True, help="comma-separated directions, e.g. 1,2,1")
    tree = cl_sub.add_parser("tree", parents=[common])
    tree.add_argument("--depth", type=integer, required=True)
    tree.add_argument("--prune-backtrack", action="store_true")
    enum = cl_sub.add_parser("enumerate", parents=[common])
    enum.add_argument("--max", type=integer, default=100)
    lc = cl_sub.add_parser("laurent-check", parents=[common])
    lc.add_argument("--trials", type=integer, default=100)
    lc.add_argument("--depth", type=integer, default=8)
    for p in (mutate, tree, enum, lc):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--polygon", type=integer, help="polygon vertex count")
        group.add_argument("--surface", nargs=2, type=integer, metavar=("G", "N"), help="genus and cusps")

    af_cmd = sub.add_parser("af", help="incidence-matrix analysis")
    af_sub = af_cmd.add_subparsers(dest="action", required=True)
    bratteli = af_sub.add_parser("bratteli", parents=[common])
    bratteli.add_argument("--matrix", required=True, help="row-major, e.g. '2,1;1,1'")
    bratteli.add_argument("--levels", type=integer, default=3)
    perron_cmd = af_sub.add_parser("perron", parents=[common])
    perron_cmd.add_argument("--matrix", required=True)

    field = sub.add_parser("field", parents=[common], help="quadratic field of a braid closure")
    source = field.add_mutually_exclusive_group(required=True)
    source.add_argument("--braid", help="three-strand braid word")
    source.add_argument("--pq", nargs=2, type=integer, metavar=("P", "Q"))

    table = sub.add_parser("table", parents=[common], help="field table for s1^p s2^-q closures")
    table.add_argument("--pq-list", nargs="+", required=True, metavar="P,Q")

    rep = sub.add_parser("report", help="correspondence reports")
    rep_sub = rep.add_subparsers(dest="action", required=True)
    corr = rep_sub.add_parser("correspondence", parents=[common])
    corr.add_argument("--braid", required=True)
    corr.add_argument("--max-index", type=integer, default=4)

    return parser


def _integers(flag: str, text: str) -> list[int]:
    """The comma-separated integers of ``text``; empty entries are skipped."""
    values = []
    for token in filter(None, text.split(",")):
        try:
            values.append(integer(token))
        except ValueError:
            raise ValueError(f"{flag} takes comma-separated integers, got {token!r}") from None
    return values


def _parse_matrix(text: str):
    rows = [tuple(_integers("--matrix", row)) for row in text.split(";")]
    return af.IncidenceMatrix(tuple(rows))


def _starting_seed(args) -> cluster.Seed:
    if args.polygon is not None:
        return cluster.polygon_seed(args.polygon)
    g, n = args.surface if args.surface is not None else (1, 1)
    return cluster.surface_seed(cluster.SurfaceSpec(g, n))


def _max_index(args) -> int:
    if not 1 <= args.max_index <= INDEX_CAP:
        raise ValueError(f"--max-index must be between 1 and {INDEX_CAP}, got {args.max_index}")
    return args.max_index


def _cmd_braid(args) -> str:
    word = parse_braid(args.word, args.strands)
    if args.action == "components":
        count = closure_components(word)
        return json.dumps({"components": count}) if args.json else str(count)
    reduced = free_reduce(word)
    if args.json:
        return json.dumps({"strands": reduced.strands, "letters": reduced.letters})
    return str(reduced)


def _cmd_linkgroup(args) -> str:
    word = parse_braid(args.word, args.strands)
    if args.action == "abelianize":
        # H1 of a closed braid's complement is free on its components
        components = closure_components(word)
        if args.json:
            return json.dumps({"free_rank": components, "torsion": []})
        return " + ".join(["Z"] * components)
    if args.action == "present":
        presentation = link_group_presentation(word)
        if args.json:
            relators = [r.syllables for r in presentation.relators]
            return json.dumps({"rank": presentation.generator_count, "relators": relators})
        return str(presentation)
    records = low_index_subgroups(arc_presentation(word), _max_index(args))
    if args.json:
        return json.dumps(
            [
                {"index": r.index, "normal": r.is_normal, "table": r.coset_table}
                for r in records
            ]
        )
    lines = [f"index {r.index}  normal {str(r.is_normal).lower()}" for r in records]
    return "\n".join(lines)


def _cmd_cluster(args) -> str:
    seed = _starting_seed(args)
    if args.action == "mutate":
        directions = _integers("--dirs", args.dirs)
        current = seed
        for k in directions:
            current = cluster.mutate_seed(current, k)
        if args.json:
            return json.dumps({"B": current.matrix.rows, "vars": [v.render() for v in current.variables]})
        return _seed_text(current)
    if args.action == "tree":
        if args.depth < 0:
            raise ValueError(f"--depth must be nonnegative, got {args.depth}")
        diagram = cluster.mutation_tree(seed, args.depth, args.prune_backtrack)
        if args.dot:
            return af.emit_dot(diagram)
        payload = {"levels": diagram.level_sizes, "matrices": diagram.edge_matrices}
        return json.dumps(payload) if args.json else " ".join(str(s) for s in diagram.level_sizes)
    if args.action == "enumerate":
        if args.max < 1:
            raise ValueError(f"--max must be at least 1, got {args.max}")
        count, finite = cluster.enumerate_seeds(seed, args.max)
        payload = {"seeds": count, "finite": finite}
        return json.dumps(payload) if args.json else f"seeds {count} finite {str(finite).lower()}"
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    if args.depth < 1:
        raise ValueError(f"--depth must be at least 1, got {args.depth}")
    rng = random.Random(args.seed)
    for _ in range(args.trials):
        length = rng.randint(1, args.depth)
        directions = [rng.randint(1, seed.rank) for _ in range(length)]
        cluster.laurent_check(seed, directions)  # raises NonLaurentResult on failure
    payload = {"trials": args.trials, "failures": 0, "ok": True}
    return json.dumps(payload) if args.json else f"trials {args.trials} failures 0"


def _seed_text(seed: cluster.Seed) -> str:
    vars_text = ", ".join(v.render() for v in seed.variables)
    rows = "; ".join(",".join(str(v) for v in row) for row in seed.matrix.rows)
    return f"vars: {vars_text}\nmatrix: {rows}"


def _cmd_af(args) -> str:
    matrix = _parse_matrix(args.matrix)
    if args.action == "bratteli":
        if args.levels < 1:
            raise ValueError(f"--levels must be at least 1, got {args.levels}")
        diagram = af.stationary_diagram(matrix, args.levels)
        if args.dot:
            return af.emit_dot(diagram)
        payload = {"levels": diagram.level_sizes, "matrix": matrix.entries}
        return json.dumps(payload) if args.json else " ".join(str(s) for s in diagram.level_sizes)
    data = af.perron(matrix)
    exact = None if data.exact is None else str(data.exact)
    if args.json:
        return json.dumps({
            "size": matrix.size,
            "matrix": matrix.entries,
            "lambda": {"exact": exact, "float": data.eigenvalue, "minpoly": data.min_polynomial},
        })
    return f"lambda {data.eigenvalue:.12f}" + (f" = {exact}" if exact else "")


def _cmd_field(args) -> str:
    if args.pq is not None:
        word = two_generator_power_braid(*args.pq)
    else:
        word = parse_braid(args.braid, args.strands)
    invariant = field_of(word)
    if args.json:
        return json.dumps({
            "radicand": invariant.radicand,
            "D": invariant.field.square_free,
            "field": invariant.field.field_str(),
            "knot": invariant.is_knot,
        })
    return (
        f"radicand {invariant.radicand}  D {invariant.field.square_free}  "
        f"field {invariant.field.field_str()}  knot {str(invariant.is_knot).lower()}"
    )


def _cmd_table(args) -> str:
    pairs = []
    for token in args.pq_list:
        try:
            p, q = map(integer, token.split(","))
        except ValueError:
            raise ValueError(f"--pq-list takes integer pairs P,Q, got {token!r}") from None
        pairs.append((p, q))
    rows = field_table(pairs)
    if args.json:
        return json.dumps([
            {"p": row.p, "q": row.q, "radicand": row.radicand, "D": row.square_free, "field": row.field}
            for row in rows
        ])
    lines = [f"{'p':>3} {'q':>3} {'radicand':>9} {'D':>6}  field"]
    for row in rows:
        lines.append(f"{row.p:>3} {row.q:>3} {row.radicand:>9} {row.square_free:>6}  {row.field}")
    return "\n".join(lines)


def _cmd_report(args) -> str:
    word = parse_braid(args.braid, args.strands)
    rep = correspondence_report(word, _max_index(args))
    field = rep.invariant.field.field_str()
    if args.json:
        rows = [
            {"index": r.index, "normal_subgroups": r.normal_subgroups, "ideals_of_norm": r.ideals_of_norm}
            for r in rep.rows
        ]
        return json.dumps({"field": field, "rows": rows})
    lines = [f"field {field}"]
    lines.append(f"{'m':>3} {'normal subgroups':>17} {'ideals of norm m':>17}")
    for row in rep.rows:
        lines.append(f"{row.index:>3} {row.normal_subgroups:>17} {row.ideals_of_norm:>17}")
    return "\n".join(lines)


_HANDLERS = {
    "braid": _cmd_braid,
    "linkgroup": _cmd_linkgroup,
    "cluster": _cmd_cluster,
    "af": _cmd_af,
    "field": _cmd_field,
    "table": _cmd_table,
    "report": _cmd_report,
}


def run(argv: list[str]) -> CommandResult:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(1, "", f"usage error: {exc}\n")
    for name, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        output = _HANDLERS[args.command](args)
    except DomainError as exc:
        return CommandResult(2, "", f"{type(exc).__name__}: {exc}\n")
    except ValueError as exc:
        return CommandResult(1, "", f"usage error: {exc}\n")
    if output and not output.endswith("\n"):
        output += "\n"
    return CommandResult(0, output, "")


def main() -> None:
    result = run(sys.argv[1:])
    if result.stdout:
        sys.stdout.write(result.stdout)
    if result.stderr:
        sys.stderr.write(result.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()

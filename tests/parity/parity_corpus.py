"""Command-line parity corpus: a seeded argv list and its expected records.

``argv_corpus()`` builds the same list of ``knotfield`` argument vectors on
every run: every subcommand in text and ``--json`` form (``--dot`` where it
applies), with usage errors and domain errors mixed in.  ``record(argv)``
runs one vector in-process through ``knotfield.cli.run`` and keeps its exit
code, stdout and stderr, each output replaced by its sha256 when it is
longer than ``_LONG`` characters.  argparse words its own usage errors
differently across CPython versions, so for a vector that argparse itself
refuses only the exit code is kept.

``records.json`` beside this file holds the expected records, one per line.
``regenerate.py`` rewrites it, or with ``--check`` lists each argv whose
record changed.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from knotfield import cli

RECORDS = Path(__file__).with_name("records.json")

_SEED = 14
_LONG = 200


def _word(rng: random.Random, strands: int, length: int) -> str:
    letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
    return " ".join(map(str, letters))


def _matrix(rng: random.Random, size: int, top: int) -> str:
    return ";".join(",".join(str(rng.randint(0, top)) for _ in range(size)) for _ in range(size))


def _formats(argv: list[str], *extra: str) -> list[list[str]]:
    return [argv, argv + ["--json"]] + [argv + [flag] for flag in extra]


def argv_corpus() -> list[list[str]]:
    rng = random.Random(_SEED)
    corpus: list[list[str]] = []

    # braid components / normalize, with aliases and bad tokens
    for _ in range(10):
        strands = rng.randint(2, 5)
        word = _word(rng, strands, rng.randint(0, 12))
        for action in ("components", "normalize"):
            corpus += _formats(["--strands", str(strands), "braid", action, word])
    for word in ("s1 s2^-1 s1^3", "s1^0 s2", "s0", "s1^-2,2", "0", "3", "nope", "1 x", ""):
        for action in ("components", "normalize"):
            corpus += _formats(["braid", action, word])
    corpus += [["--strands", "0", "braid", "components", "1"], ["--strands", "-2", "braid", "normalize", ""]]
    corpus += [["braid", "components", "s1^1000000000000"], ["braid", "components", "s1^" + "9" * 5000]]

    # linkgroup present / abelianize / subgroups
    for _ in range(15):
        strands = rng.randint(2, 4)
        word = _word(rng, strands, rng.randint(0, 5))
        corpus += _formats(["--strands", str(strands), "linkgroup", "present", word])
    for _ in range(15):
        strands = rng.randint(1, 6)
        word = _word(rng, strands, rng.randint(0, 9)) if strands > 1 else ""
        corpus += _formats(["--strands", str(strands), "linkgroup", "abelianize", word])
    for k in range(1, 9):
        corpus += _formats(["linkgroup", "abelianize", " ".join(["1 -2"] * k)])
    for word in ("1 1 1", "1 -2", "1 2 -1 2", "1 1 2 2", "-1 2 -1 2 2", "1 -2 1 -2 1 -2", ""):
        for index in ("1", "2", "3", "4"):
            corpus += _formats(["linkgroup", "subgroups", word, "--max-index", index])
    for index in ("0", "11", "-1"):
        corpus += _formats(["linkgroup", "subgroups", "1 -2", "--max-index", index])
    for action in ("present", "abelianize", "subgroups"):
        corpus += _formats(["linkgroup", action, "4"]) + _formats(["linkgroup", action, "s1 q"])
    corpus += [["--strands", "0", "linkgroup", "abelianize", ""]]

    # cluster mutate / tree / enumerate / laurent-check
    for _ in range(15):
        source = rng.choice([["--polygon", str(rng.randint(4, 7))], [], ["--surface", "1", "1"]])
        rank = 3 if source[:1] != ["--polygon"] else int(source[1]) - 3
        depth = rng.randint(0, 4 if rank == 3 else 6)
        dirs = ",".join(str(rng.randint(1, rank)) for _ in range(depth))
        corpus += _formats(["cluster", "mutate", "--dirs", dirs, *source])
    for source in (["--polygon", "4"], ["--polygon", "5"], ["--polygon", "6"], []):
        for depth in ("0", "1", "2"):
            corpus += _formats(["cluster", "tree", "--depth", depth, *source], "--dot")
        corpus += _formats(["cluster", "tree", "--depth", "2", "--prune-backtrack", *source], "--dot")
    for vertices in range(4, 9):
        for top in ("1", "5", "100"):
            corpus += _formats(["cluster", "enumerate", "--polygon", str(vertices), "--max", top])
    corpus += _formats(["cluster", "enumerate", "--max", "30"])
    for seed in ("0", "1", "7"):
        corpus += _formats(["cluster", "laurent-check", "--trials", "4", "--depth", "3", "--seed", seed])
        corpus += _formats(["cluster", "laurent-check", "--trials", "6", "--depth", "5",
                            "--polygon", "6", "--seed", seed])
    corpus += _formats(["cluster", "mutate", "--dirs", "4"])
    corpus += _formats(["cluster", "mutate", "--dirs", "1", "--polygon", "3"])
    corpus += _formats(["cluster", "mutate", "--dirs", "1", "--surface", "0", "2"])
    corpus += _formats(["cluster", "mutate", "--dirs", "1", "--surface", "2", "1"])
    corpus += _formats(["cluster", "mutate", "--dirs", "1", "--surface", "-1", "3"])
    corpus += _formats(["cluster", "mutate", "--dirs", "1,x"])
    corpus += _formats(["cluster", "enumerate", "--max", "0"])
    corpus += _formats(["cluster", "tree", "--depth", "-1"], "--dot")
    corpus += _formats(["cluster", "laurent-check", "--trials", "-1"])
    corpus += _formats(["cluster", "laurent-check", "--depth", "0"])

    # af perron / bratteli
    for _ in range(30):
        size = rng.randint(1, 4)
        corpus += _formats(["af", "perron", "--matrix", _matrix(rng, size, rng.choice((1, 3, 9)))])
    for _ in range(15):
        size = rng.randint(1, 3)
        levels = str(rng.randint(1, 4))
        corpus += _formats(["af", "bratteli", "--matrix", _matrix(rng, size, 3), "--levels", levels], "--dot")
    for matrix in ("1,2;3", "1,-1;1,1", "", "a,1;1,1", "0,0;0,0", "1,1;0,1", "0,1;1,0", "4", "10000000000,1;1,1"):
        corpus += _formats(["af", "perron", "--matrix", matrix])
    for levels in ("0", "-3", "100000"):
        corpus += _formats(["af", "bratteli", "--matrix", "2,1;1,1", "--levels", levels], "--dot")

    # field / table
    for _ in range(10):
        corpus += _formats(["field", "--pq", str(rng.randint(1, 40)), str(rng.randint(1, 40))])
    for _ in range(10):
        corpus += _formats(["field", "--braid", _word(rng, 3, rng.randint(1, 10))])
    for argv in (["--pq", "0", "1"], ["--pq", "2", "-1"], ["--braid", "1"], ["--braid", ""],
                 ["--braid", "1 2"], ["--braid", "s1 s2^-1"]):
        corpus += _formats(["field", *argv])
    corpus += _formats(["--strands", "4", "field", "--braid", "1 -3"])
    corpus += [["field", "--pq", "1000000000000", "1"]]
    for _ in range(10):
        pairs = [f"{rng.randint(1, 20)},{rng.randint(1, 20)}" for _ in range(rng.randint(1, 6))]
        corpus += _formats(["table", "--pq-list", *pairs])
    for token in ("1", "1,2,3", "x,1", "0,1"):
        corpus += _formats(["table", "--pq-list", "1,1", token])

    # report correspondence
    for word in ("1 -2", "1 1 -2", "-1 2 -1 2 2", "1 -2 1 -2"):
        for index in ("1", "3", "4"):
            corpus += _formats(["report", "correspondence", "--braid", word, "--max-index", index])
    for argv in (["--braid", "1"], ["--braid", "1 -2", "--max-index", "0"],
                 ["--braid", "1 -2", "--max-index", "12"], ["--braid", "1 2 3"]):
        corpus += _formats(["report", "correspondence", *argv])

    # vectors that argparse itself refuses
    corpus += [
        [], ["nope"], ["braid"], ["braid", "components"], ["linkgroup", "twist", "1"],
        ["field"], ["field", "--pq", "1"], ["field", "--pq", "1", "1", "--braid", "1 -2"],
        ["--seed", "x", "field", "--pq", "1", "1"], ["af", "perron"], ["table"],
        ["cluster", "mutate"], ["cluster", "tree", "--depth", "x"],
        ["cluster", "enumerate", "--polygon", "5", "--surface", "1", "1"],
        ["report", "correspondence"], ["linkgroup", "subgroups", "1", "--max-index", "two"],
        ["--strands", "3.5", "braid", "components", "1"], ["field", "--pq", "1", "1", "--bogus"],
    ]
    return [json.loads(key) for key in dict.fromkeys(json.dumps(argv) for argv in corpus)]


def _digest(text: str):
    if len(text) <= _LONG:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _argparse_refuses(argv: list[str]) -> bool:
    try:
        cli._build_parser().parse_args(argv)
    except cli._UsageError:
        return True
    return False


def record(argv: list[str]) -> dict:
    result = cli.run(argv)
    if result.exit_code == 1 and _argparse_refuses(argv):
        return {"argv": argv, "exit": result.exit_code}
    return {"argv": argv, "exit": result.exit_code, "stdout": _digest(result.stdout), "stderr": _digest(result.stderr)}


def load() -> list[dict]:
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def dump(records: list[dict]) -> str:
    lines = ",\n".join(json.dumps(r, ensure_ascii=False) for r in records)
    return f"[\n{lines}\n]\n"


def changed(expected: list[dict], actual: list[dict]) -> list[list[str]]:
    """The argv of every record that differs, is missing, or is new."""
    old = {json.dumps(r["argv"]): r for r in expected}
    new = {json.dumps(r["argv"]): r for r in actual}
    return [json.loads(key) for key in dict.fromkeys([*old, *new]) if old.get(key) != new.get(key)]

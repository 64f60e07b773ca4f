"""Rewrite the command-line parity records, or check them.

    PYTHONPATH=src python tests/parity/regenerate.py           # rewrite records.json
    PYTHONPATH=src python tests/parity/regenerate.py --check   # list changed argv, exit 1 if any

A change that regenerates the records names every argv whose output changed
as a contract change.
"""

from __future__ import annotations

import argparse
import json
import sys

import parity_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with records.json instead of rewriting it")
    args = parser.parse_args()
    actual = [parity_corpus.record(argv) for argv in parity_corpus.argv_corpus()]
    if not args.check:
        parity_corpus.RECORDS.write_text(parity_corpus.dump(actual), encoding="utf-8")
        print(f"wrote {len(actual)} records to {parity_corpus.RECORDS.name}")
        return 0
    changed = parity_corpus.changed(parity_corpus.load(), actual)
    for argv in changed:
        print(json.dumps(argv, ensure_ascii=False))
    print(f"{len(changed)} of {len(actual)} records changed", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())

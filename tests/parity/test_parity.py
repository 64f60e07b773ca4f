"""Every argv of the parity corpus gives the recorded exit code, stdout and
stderr (see parity_corpus.py; regenerate.py rewrites the records)."""

import parity_corpus


def test_corpus_covers_every_subcommand():
    tokens = {word for argv in parity_corpus.argv_corpus() for word in argv}
    assert {
        "braid", "components", "normalize", "linkgroup", "present", "abelianize", "subgroups",
        "cluster", "mutate", "tree", "enumerate", "laurent-check", "af", "bratteli", "perron",
        "field", "table", "report", "correspondence", "--json", "--dot",
    } <= tokens


def test_records_match():
    expected = parity_corpus.load()
    actual = [parity_corpus.record(argv) for argv in parity_corpus.argv_corpus()]
    changed = parity_corpus.changed(expected, actual)
    assert not changed, f"{len(changed)} records changed, first: {changed[:5]}"

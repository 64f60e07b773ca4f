"""Every `knotfield ...` line of the README's command-line block runs and
exits 0; where a `# {...}` comment follows on the same or the next line,
stdout must equal it."""

import shlex
from pathlib import Path

import pytest

from knotfield.cli import run

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _examples():
    block = _README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + [""]
    examples = []
    for line, following in zip(lines, lines[1:]):
        if not line.startswith("knotfield "):
            continue
        command, _, comment = line.partition("#")  # no example quotes a '#'
        if not comment and following.startswith("# {"):
            comment = following[1:]
        comment = comment.strip()
        expected = comment if comment.startswith("{") else None
        examples.append(pytest.param(shlex.split(command)[1:], expected, id=command.strip()))
    return examples


_EXAMPLES = _examples()


def test_block_has_examples_with_output():
    assert len(_EXAMPLES) >= 10
    assert sum(example.values[1] is not None for example in _EXAMPLES) >= 3


@pytest.mark.parametrize("argv, expected", _EXAMPLES)
def test_example(argv, expected):
    result = run(argv)
    assert result.exit_code == 0, result.stderr
    if expected is not None:
        assert result.stdout.strip() == expected

"""The CLI examples in README.md print what their comments say.

The first ```sh block under ``## CLI`` pairs each ``selink ...`` line with
a ``# ...`` comment, inline or on the next line.  The comment is the first
line the command prints, or a prefix of it when the comment ends in
``...``.
"""

import shlex
from pathlib import Path

import pytest

from selink.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples() -> list[tuple[list[str], str]]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## CLI\n") :]
    start = section.index("```sh\n") + len("```sh\n")
    lines = section[start : section.index("```", start)].splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("selink "):
            continue
        command, _, comment = line.partition(" #")
        if not comment:
            comment = lines[i + 1].removeprefix("#")
        examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


EXAMPLES = cli_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example(capsys, argv, expected):
    assert main(argv) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    if expected.endswith("..."):
        assert first_line.startswith(expected.removesuffix("..."))
    else:
        assert first_line == expected

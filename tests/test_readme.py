"""Every `$ opcurve ...` example in README.md, run through the CLI.

The examples run in order in one directory, because the session
examples build on the work.json that earlier ones write.  A `...` in an
expected line stands for any text, and spaces next to it do not count.
"""

import re
import shlex
from pathlib import Path

from opcurve.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples(text):
    """(argv, expected stdout lines) for each `$ opcurve` line in a fenced
    block; the output runs to the next example or the closing fence."""
    out = []
    current = None
    for line in text.splitlines():
        if line.startswith("```"):
            current = None
        elif line.startswith("$ opcurve "):
            current = []
            out.append((shlex.split(line)[2:], current))
        elif current is not None:
            current.append(line)
    return out


def _matches(want, got):
    parts = re.split(r" *\.\.\. *", want)
    return re.fullmatch(".*".join(map(re.escape, parts)), got) is not None


def test_readme_examples_print_what_the_readme_shows(capsys, monkeypatch,
                                                     tmp_path):
    monkeypatch.chdir(tmp_path)
    examples = _examples(README.read_text())
    assert examples
    for argv, want in examples:
        main(argv)
        got = capsys.readouterr().out.splitlines()
        assert len(got) == len(want), argv
        for w, g in zip(want, got):
            assert _matches(w, g), (argv, w, g)

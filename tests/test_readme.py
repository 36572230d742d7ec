"""The README's worked examples, run against the library and the CLI.

The quick tour's commented results and the ``csflab csf --basis e`` and
``--basis s`` sessions pin the documented e- and s-values to the
production routes.
"""

from __future__ import annotations

import pathlib
import shlex

import csflab

from test_cli import run

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _block(lang, first_line):
    """The lines of the fenced ``lang`` block whose first line is given."""
    lines = README.read_text().splitlines()
    start = lines.index(f"```{lang}") + 1
    while lines[start] != first_line:
        start = lines.index(f"```{lang}", start) + 1
    return lines[start : lines.index("```", start)]


def test_quick_tour_e_coefficient():
    tour = _block("python", "from csflab import (")
    scope = vars(csflab).copy()
    exec(next(line for line in tour if line.startswith("p = ")), scope)
    line = next(line for line in tour if line.startswith("chromatic_e_expansion(p)"))
    code, _, shown = line.partition("#")
    assert repr(eval(code, scope)) == shown.strip()


def test_quick_tour_sweep():
    tour = _block("python", "from csflab import (")
    scope = vars(csflab).copy()
    exec(next(line for line in tour if line.startswith("reports = ")), scope)
    for line in tour:
        if line.startswith(("summarize(reports)", "reports[-1]")):
            code, _, shown = line.partition("#")
            assert repr(eval(code, scope)) == shown.strip()


def _check_session(command_line):
    command, *shown = _block("text", command_line)
    args = shlex.split(command)[2:]
    result = run(*args)
    assert (result.exit_code, result.stderr) == (0, "")
    assert len(shown) == 4
    assert result.stdout.splitlines() == shown


def test_csf_elementary_session():
    _check_session("$ csflab csf --hessenberg 0,0,1,1,3 --basis e")


def test_csf_schur_session():
    _check_session("$ csflab csf --hessenberg 0,0,1,1,3 --basis s")

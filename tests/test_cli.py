from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from csflab.cli import main
from csflab.harness import CONJECTURES, emit_report, run_verification
from csflab.posets import enumerate_hessenberg, kchain_hessenberg
from csflab.qcore import partitions

from oracles import symfunc_from_json

E5 = "0,0,1,1,3"


CliResult = collections.namedtuple("CliResult", "exit_code stdout stderr")


def run(*args):
    """``csflab ARGS...`` in this process: the code that its SystemExit
    carries, and what it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            main(args=list(args), prog_name="csflab")
    return CliResult(stop.value.code, out.getvalue(), err.getvalue())


def test_help_lists_subcommands():
    result = run("--help")
    assert result.exit_code == 0
    for name in ("csf", "tableaux", "hikita", "verify", "formula"):
        assert name in result.stdout


def test_csf_elementary_expansion():
    result = run("csf", "--hessenberg", E5, "--basis", "e")
    assert result.exit_code == 0
    assert result.stdout.splitlines() == [
        "e[3,1,1] [0,0,1,1]",
        "e[3,2] [0,0,1,1]",
        "e[4,1] [0,2,3,3,2]",
        "e[5] [1,2,2,2,2,1]",
    ]


def test_csf_evaluated_at_one():
    result = run("csf", "--hessenberg", E5, "--basis", "e", "--q-at", "1")
    assert result.stdout.splitlines() == [
        "e[3,1,1] 2",
        "e[3,2] 2",
        "e[4,1] 10",
        "e[5] 10",
    ]


def test_csf_monomial_and_schur_for_antichain():
    result = run("csf", "--hessenberg", "0,0", "--basis", "m")
    assert result.stdout.splitlines() == ["m[1,1] [1,1]"]
    result = run("csf", "--hessenberg", "0,0", "--basis", "s")
    assert result.stdout.splitlines() == ["s[1,1] [1,1]"]


def test_csf_json_round_trip(tmp_path):
    out = tmp_path / "e5.json"
    result = run("csf", "--hessenberg", E5, "--basis", "e", "--json", str(out))
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    f = symfunc_from_json(data)
    assert f.basis == "e" and f.n == 5
    assert f.coeff((3, 2)) == (0, 0, 1, 1)


# sha256 of ``csflab csf --hessenberg M --basis B [--q-at Q]`` stdout, and of
# the file that ``--json`` writes, keyed "M B [Q]"; taken before the
# coefficients became integer tuples.
CSF_OUTPUT_DIGESTS = {
    "0,0,1 e": "afb0f95baed48c4679e36ef5b9d06c2f77d90065e74a9758b80df470d744c99e",
    "0,0,1 e 1/2": "d16a48d230cee41cfd955d41bd9b385c55c4e8c3e18c8055aeaa251a9980ed69",
    "0,0,1 s": "17e619721db24fd8fc12950aca62272852d0803cf86ccce58cbe9ce70b6098d3",
    "0,0,1 s 1/2": "88e1ef7ff6abb967566972117b65339cb1f1ee92c81eea9d02fdb83db6d292c4",
    "0,0,1 m": "a8fc7522643ec184350f58a2369261aad9590a5562a656a84739d53c917ff85d",
    "0,0,1 m 1/2": "44866737af91759f4dec405a7984811a2bc8adbdfbda9be6aaf72f36551b2a29",
    "0,1,1,2 e": "7630963762bfad262f64bac2bc7f457de6b496ca8ff7647dfc599cad138f39a6",
    "0,1,1,2 e 1/2": "498cdbcd30d064c9a927cbdfcca4a5bc8690d0e541cd6667aaf63f9dbc53de80",
    "0,1,1,2 s": "5253b11db24a95727944106fc5d8204ade63960131d08662dca90141a980f97f",
    "0,1,1,2 s 1/2": "06e453290dc9f4f5789eb6941d4db31b42ec59af243decd2264e14dc9334482c",
    "0,1,1,2 m": "1f6a41b5c4e2ba6f2193962dd747092969b45a914d900d3d20bb32ccfce89b87",
    "0,1,1,2 m 1/2": "c286bd676893f1904dc76b2dc05d0dd1603668480a45a2327209dba02b0607f9",
    "0,0,1,1,3 e": "f12f99d04c9fb8cff807f6eefce628419f453afcaa1f984efeebc8a1591df0d5",
    "0,0,1,1,3 e 1/2": "1fab0c87c0d1ed9ebe40580611b774b2d26c04d5e68f2ed1565c3bc3fd687fd0",
    "0,0,1,1,3 s": "dc346862a1307965fbc417cf486795c948fa0b99cf8782c3d041f2755b67b217",
    "0,0,1,1,3 s 1/2": "65cfc5fd6b9c1076113cf5791b52f14a3907445c216a46824eadf47b1bb314f4",
    "0,0,1,1,3 m": "6d1d98b293dcd27f640f82ed1c099f7a2b6c1d369bfeafdab91cd11ac90adb0b",
    "0,0,1,1,3 m 1/2": "d016aaf7c2b141df1f18e7d6655ccf1970b203c1263983ce8283f888961614b1",
    "0,0,0,2,4 e": "5b78f55e713130ed73a9f6a5c17aa6d57bc849138116936b49a35d8aa7ae56c3",
    "0,0,0,2,4 e 1/2": "bf3e7ebe5823bf573a2a7d3ba79b818c42a48691877ece2ccb36183301e08b52",
    "0,0,0,2,4 s": "fa3c44b0edb116a71146cb3348abf2590e4f2c39c041509e01975e3d28518d92",
    "0,0,0,2,4 s 1/2": "1bc960e56197ca9fbf8d6a8a7571c719db91d7966ca9dd95a25e0162f43ffe31",
    "0,0,0,2,4 m": "a4a3a9c548231e74e130b9626c8e1bb2f1a3aec9939851462d0f68e9934cf782",
    "0,0,0,2,4 m 1/2": "e29007d81b066246e9f15dd2d4d7514819c3af4f0d623baa9b8cb225705a5fda",
    "0,0,1,1,3 e --json": "27a8dceb5771072fd803a2eb0da60315ac1b903d6be662c2e8b6d2465d700386",
    "0,0,1,1,3 s --json": "278307471f9d9aa302176d20742238379d68f8f8f20a867851d6e80a55021186",
    "0,0,1,1,3 m --json": "c941522c32687abf9e8888e260f636fe3e302bbef03237655d3dfb1150bc6cd8",
}


@pytest.mark.parametrize("key", sorted(CSF_OUTPUT_DIGESTS))
def test_csf_output_pinned(key, tmp_path):
    m, basis, *rest = key.split()
    args = ["csf", "--hessenberg", m, "--basis", basis]
    if rest == ["--json"]:
        out = tmp_path / "f.json"
        assert run(*args, "--json", str(out)).exit_code == 0
        text = out.read_text()
    else:
        result = run(*args, *(["--q-at", rest[0]] if rest else []))
        assert result.exit_code == 0
        text = result.stdout
    assert hashlib.sha256(text.encode()).hexdigest() == CSF_OUTPUT_DIGESTS[key]


def test_json_round_trip_keeps_rational_coefficients():
    doc = {"basis": "m", "n": 3, "coeffs": [
        {"partition": [2, 1], "poly": ["1/2", 0, "-7/3"]},
        {"partition": [3], "poly": [0, 4]},
    ]}
    f = symfunc_from_json(doc)
    assert f.coeffs == {(2, 1): (Fraction(1, 2), 0, Fraction(-7, 3)), (3,): (0, 4)}
    assert [type(c) for c in f.coeffs[(2, 1)]] == [Fraction, int, Fraction]
    assert f.to_json_dict() == doc
    assert repr(f) == "SymFunc('m', n=3, {(2, 1): [1/2,0,-7/3], (3,): [0,4]})"
    assert f.eval_at("1/2") == {(2, 1): Fraction(-1, 12), (3,): Fraction(2)}


def usage_error(*args):
    """The ``Error:`` line of a usage error, which exits with code 2 and
    writes nothing to stdout."""
    result = run(*args)
    assert (result.exit_code, result.stdout) == (2, ""), result
    return result.stderr.splitlines()[-1]


def test_csf_usage_errors():
    assert usage_error("csf", "--hessenberg", "0,2", "--basis", "e") == (
        "Error: entry 2 at position 2 out of range in (0, 2)")
    assert usage_error("csf", "--hessenberg", "zero", "--basis", "e") == (
        "Error: invalid literal for int() with base 10: 'zero'")
    assert usage_error("csf", "--hessenberg", E5, "--basis", "q").startswith(
        "Error: argument --basis: invalid choice: 'q'")
    assert usage_error("csf", "--hessenberg", E5, "--basis", "e", "--q-at", "x") == (
        "Error: bad rational 'x': Invalid literal for Fraction: 'x'")


def test_csf_parses_q_at_before_it_expands(monkeypatch):
    import csflab.cli as cli

    def expand(p):
        raise AssertionError("expanded before --q-at was parsed")

    monkeypatch.setattr(cli, "chromatic_e_expansion", expand)
    assert usage_error("csf", "--hessenberg", E5, "--basis", "e", "--q-at", "1/0") == (
        "Error: bad rational '1/0': Fraction(1, 0)")


def test_tableaux_powerful_listing():
    result = run("tableaux", "--hessenberg", E5, "--shape", "3,2", "--class", "powerful")
    lines = result.stdout.splitlines()
    assert len(lines) == 3
    invs = sorted(int(line.split("inv=")[1].split()[0]) for line in lines)
    assert invs == [2, 3, 3]
    assert sum(line.endswith("strong=yes") for line in lines) == 2

    result = run("tableaux", "--hessenberg", E5, "--shape", "3,2", "--class", "strong")
    assert len(result.stdout.splitlines()) == 2


def test_tableaux_hikita_listing():
    result = run("tableaux", "--hessenberg", E5, "--shape", "3,2", "--class", "hikita")
    lines = result.stdout.splitlines()
    assert lines and all(line.endswith("strong=yes") for line in lines)


def test_tableaux_k_set_listing():
    m = "0,0,1,1,2,4"
    counts = {}
    for which in ("strong", "k-set", "powerful"):
        result = run("tableaux", "--hessenberg", m, "--shape", "4,2", "--class", which)
        assert result.exit_code == 0
        counts[which] = len(result.stdout.splitlines())
    assert counts == {"strong": 6, "k-set": 8, "powerful": 10}


def test_tableaux_usage_errors():
    assert usage_error("tableaux", "--hessenberg", E5, "--shape", "4,1", "--class", "k-set") == (
        "Error: class k-set only exists for shape (3, 2), got (4, 1)")
    # (n-2, 2) is no partition at n <= 4: refused for n, not for a bogus shape
    for m, shape, n in (("0", "1", 1), ("0,0,1", "2,1", 3)):
        assert usage_error("tableaux", "--hessenberg", m, "--shape", shape, "--class", "k-set") == (
            f"Error: shape (n-2, 2) needs n > 4, got {n}")
    assert usage_error("tableaux", "--hessenberg", E5, "--shape", "2,2", "--class", "standard") == (
        "Error: shape (2, 2) does not have size 5")
    assert usage_error("tableaux", "--hessenberg", E5, "--shape", "2,3", "--class", "standard") == (
        "Error: not a partition: (2, 3)")


def test_hikita_statistics():
    result = run("hikita", "--hessenberg", "0,0", "--shape", "2")
    assert result.stdout.splitlines() == ["1,2 [1] / [1]"]
    explicit = run("hikita", "--hessenberg", "0,0", "--shape", "2", "--prob")
    assert explicit.stdout == result.stdout
    def values(result):
        return [line.split(" ", 1)[1] for line in result.stdout.splitlines()]

    zeta_out = run("hikita", "--hessenberg", E5, "--shape", "3,2", "--zeta")
    assert values(zeta_out) and all(" / " not in v for v in values(zeta_out))
    h_out = run("hikita", "--hessenberg", E5, "--shape", "3,2", "--h")
    assert values(h_out) and all(" / " in v for v in values(h_out))


# sha256 of the concatenated stdout of ``csflab hikita --hessenberg M --shape L
# STAT`` over every vector with n = 1..6 in enumerate_hessenberg order, each
# with every shape in partitions(n) order: 573 lines per statistic.
HIKITA_OUTPUT_DIGESTS = {
    "--prob": "871aaf4abcca45281ee08b9a9b8a4310fd16edd512d5253e1050131052f1611a",
    "--zeta": "219a60e90129e03ab4a1dad3f4dd05611f049f96b7a3079716e16831327f8298",
    "--h": "41a582d7ef937df9127710937b29d8b07136807fa200a5e2209b1f00117bb145",
}


@pytest.mark.parametrize("stat", sorted(HIKITA_OUTPUT_DIGESTS))
def test_hikita_output_pinned(stat):
    digest, lines = hashlib.sha256(), 0
    for n in range(1, 7):
        for m in enumerate_hessenberg(n):
            for lam in partitions(n):
                result = run("hikita", "--hessenberg", ",".join(map(str, m)),
                             "--shape", ",".join(map(str, lam)), stat)
                assert result.exit_code == 0
                digest.update(result.stdout.encode())
                lines += result.stdout.count("\n")
    assert lines == 573
    assert digest.hexdigest() == HIKITA_OUTPUT_DIGESTS[stat]


# sha256 of the concatenated stdout of ``csflab tableaux --hessenberg M --shape
# L --class C`` over every vector with n in the class's range, in
# enumerate_hessenberg order, each with every shape in partitions(n) order
# (only (n-2, 2) for k-set): (sizes, lines, sha256) per class.
TABLEAUX_OUTPUT_DIGESTS = {
    "standard": (range(1, 6), 2065,
                 "e8cfe98f838225318c907ed93e74d4debff05895be6f869ff91a286871e4fed4"),
    "strong": (range(1, 6), 815,
               "23e79086e6bab1fb00b940099ebc64ddaa6070a47c1ca2290b990397ae6dc668"),
    "powerful": (range(1, 6), 1070,
                 "f3f55d9900563cee1ca0c500d56b4b6120ae0c66eff4efb207b1b57e0490e130"),
    "hikita": (range(1, 6), 125,
               "15daf25c86b2dd75a24f40fe9de375f111652e9580a72c6de69abc771b9049f7"),
    "k-set": (range(5, 7), 821,
              "77d3359ffa2180b68821feacd9111fd1c257ecad4fcb18c1842e11f3bb5b81ea"),
}


@pytest.mark.parametrize("which", sorted(TABLEAUX_OUTPUT_DIGESTS))
def test_tableaux_output_pinned(which):
    sizes, expected_lines, expected = TABLEAUX_OUTPUT_DIGESTS[which]
    digest, lines = hashlib.sha256(), 0
    for n in sizes:
        shapes = [(n - 2, 2)] if which == "k-set" else list(partitions(n))
        for m in enumerate_hessenberg(n):
            for lam in shapes:
                result = run("tableaux", "--hessenberg", ",".join(map(str, m)),
                             "--shape", ",".join(map(str, lam)), "--class", which)
                assert result.exit_code == 0
                digest.update(result.stdout.encode())
                lines += result.stdout.count("\n")
    assert (lines, digest.hexdigest()) == (expected_lines, expected)


# sha256 of the concatenated stdout of ``csflab formula --path N`` for
# N = 1..14, and of ``csflab formula --kchain G`` for every G in
# itertools.product(range(2, 6), repeat=k), k = 1..5 in that order, with at
# most 10 vertices: (arguments, lines, sha256) per form.
FORMULA_OUTPUT_DIGESTS = {
    "--path": ([str(n) for n in range(1, 15)], 235,
               "2c5cb496365242cb4fb98c3d9d655a8675a3452790fc2fdbc2c18a33e2bcdf29"),
    "--kchain": ([",".join(map(str, gamma))
                  for k in range(1, 6) for gamma in itertools.product(range(2, 6), repeat=k)
                  if sum(gamma) - (k - 1) <= 10], 3231,
                 "844b3648260c5a1ba009c63a5dbf77513b5091afb58a7c8799457b704957b2af"),
}


@pytest.mark.parametrize("form", sorted(FORMULA_OUTPUT_DIGESTS))
def test_formula_output_pinned(form):
    arguments, expected_lines, expected = FORMULA_OUTPUT_DIGESTS[form]
    digest, lines = hashlib.sha256(), 0
    for argument in arguments:
        result = run("formula", form, argument)
        assert result.exit_code == 0
        digest.update(result.stdout.encode())
        lines += result.stdout.count("\n")
    assert (lines, digest.hexdigest()) == (expected_lines, expected)


def test_verify_all_holds(tmp_path):
    report = tmp_path / "bounds.jsonl"
    result = run("verify", "--conjecture", "bounds", "--max-n", "3",
                 "--report", str(report))
    assert result.exit_code == 0
    assert "bounds n<=3: holds=20 fails=0 skipped=0" in result.stdout
    lines = report.read_text().splitlines()
    assert len(lines) == 20
    assert all(json.loads(line)["status"] == "holds" for line in lines)


def test_verify_failure_exits_one(monkeypatch):
    import csflab.harness as harness

    def refuted(m, lam):
        return "fails", {"forced": True}

    monkeypatch.setitem(harness._PER_UNIT, "nonzero", (refuted, None))
    result = run("verify", "--conjecture", "nonzero", "--max-n", "2")
    assert result.exit_code == 1
    assert result.stdout == "nonzero n<=2: holds=0 fails=5 skipped=0\n"


def test_verify_error_exits_three(monkeypatch):
    import csflab.harness as harness

    def boom(m, lam):
        raise RuntimeError("forced")

    monkeypatch.setitem(harness._PER_UNIT, "nonzero", (boom, None))
    result = run("verify", "--conjecture", "nonzero", "--max-n", "2")
    assert result.exit_code == 3
    last = result.stdout.strip().splitlines()[-1]
    assert last == "nonzero n<=2: holds=0 fails=0 skipped=0 error=5"
    assert "RuntimeError: forced" in result.stderr


def test_h_lower_bound_at_six_exits_one():
    result = run("verify", "--conjecture", "h-lower-bound", "--max-n", "6")
    assert result.exit_code == 1
    assert result.stdout == "h-lower-bound n<=6: holds=1835 fails=1 skipped=0\n"
    [line] = result.stderr.splitlines()
    assert (json.loads(line)["m"], json.loads(line)["lam"]) == ([0, 0, 1, 1, 2, 4], [3, 2, 1])


@pytest.mark.parametrize("conjecture, max_n, code, summary", [
    ("bounds", 3, 0, "bounds n<=3: holds=20 fails=0 skipped=0"),
    ("h-lower-bound", 6, 1, "h-lower-bound n<=6: holds=1835 fails=1 skipped=0"),
])
def test_python_c_main_exits_with_the_code(conjecture, max_n, code, summary):
    """The ``python -c 'from csflab.cli import main; main()' verify ...`` form
    that CI runs: main's SystemExit is the process's exit code."""
    import csflab

    src = os.path.dirname(os.path.dirname(os.path.abspath(csflab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "from csflab.cli import main; main()", "verify",
         "--conjecture", conjecture, "--max-n", str(max_n), "--jobs", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == summary


@pytest.mark.parametrize("conjecture", CONJECTURES)
def test_verify_report_is_emit_report_of_run_verification(conjecture, tmp_path):
    """The CLI and the library write the same bytes, seconds included, at
    --jobs 1 and 2: a cold CLI run against the library's replay of its
    cache and a warm CLI run, and a cold library run against the CLI's
    replay of that cache."""
    for jobs in (1, 2):
        cli_cache, library_cache = tmp_path / f"cli{jobs}", tmp_path / f"lib{jobs}"
        out = {name: tmp_path / f"{name}{jobs}.jsonl"
               for name in ("cli_cold", "lib_warm", "cli_warm", "lib_cold", "cli_replay")}

        def cli(cache, report):
            result = run("verify", "--conjecture", conjecture, "--max-n", "5",
                         "--jobs", str(jobs), "--cache", str(cache), "--report", str(report))
            assert result.exit_code == 0, result

        def library(cache, report):
            emit_report(run_verification(conjecture, 5, jobs, cache_dir=str(cache)), report)

        cli(cli_cache, out["cli_cold"])
        library(cli_cache, out["lib_warm"])
        cli(cli_cache, out["cli_warm"])
        library(library_cache, out["lib_cold"])
        cli(library_cache, out["cli_replay"])
        assert out["cli_cold"].read_bytes() == out["lib_warm"].read_bytes()
        assert out["cli_cold"].read_bytes() == out["cli_warm"].read_bytes()
        assert out["lib_cold"].read_bytes() == out["cli_replay"].read_bytes()
        assert len(out["lib_cold"].read_text().splitlines()) == (114 if conjecture ==
                                                                "barbell-powerful" else 384)


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_echoes_each_failing_and_erroring_report_line(monkeypatch, tmp_path, jobs):
    import csflab.harness as harness

    plain, scope = harness._PER_UNIT["h-lower-bound"]

    def flaky(m, lam):
        if lam == (2, 1, 1):
            raise RuntimeError('forced "quoted" \u00fc')
        return plain(m, lam)

    monkeypatch.setitem(harness._PER_UNIT, "h-lower-bound", (flaky, scope))
    report = tmp_path / "report.jsonl"
    result = run("verify", "--conjecture", "h-lower-bound", "--max-n", "6",
                 "--jobs", str(jobs), "--report", str(report))
    assert result.exit_code == 3
    lines = report.read_text().splitlines()
    echoed = [line for line in lines if json.loads(line)["status"] in ("fails", "error")]
    assert result.stderr.splitlines() == echoed
    assert [json.loads(line)["status"] for line in echoed].count("fails") == 1
    assert len(echoed) == 1 + 14  # the n = 6 failure and the 14 n = 4 vectors
    assert result.stdout.splitlines()[-1] == (
        "h-lower-bound n<=6: holds=1821 fails=1 skipped=0 error=14"
    )


def test_verify_usage_errors():
    cap = "Error: n_max must be between 1 and 8 (pass override_cap=True to go to 10)"
    assert usage_error("verify", "--conjecture", "bounds", "--max-n", "9") == cap
    assert usage_error("verify", "--conjecture", "bounds", "--max-n", "0") == cap
    assert usage_error("verify", "--conjecture", "positivity", "--max-n", "3").startswith(
        "Error: argument --conjecture: invalid choice: 'positivity'")


def test_verify_unusable_cache_dir_is_a_usage_error(monkeypatch, tmp_path):
    import csflab.harness as harness

    ran = []
    monkeypatch.setattr(harness, "evaluate_task", lambda *task: ran.append(task))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for path, reason in [(taken, "File exists"), (taken / "cache", "Not a directory")]:
        line = usage_error("verify", "--conjecture", "bounds", "--max-n", "3",
                           "--cache", str(path))
        assert line == f"Error: cannot use {path} as a cache directory: {reason}"
    assert ran == []  # refused before any unit runs
    assert taken.read_text() == "not a directory\n"



def test_verify_unwritable_report_is_a_usage_error(tmp_path, monkeypatch):
    # refused before the sweep: no unit runs, and no exit 1 misreports a
    # failed verification
    import csflab.cli as cli

    def no_sweep(*args, **kwargs):
        pytest.fail("the sweep ran before the report path was refused")

    monkeypatch.setattr(cli, "run_verification", no_sweep)
    path = tmp_path / "missing" / "r.jsonl"
    line = usage_error("verify", "--conjecture", "bounds", "--max-n", "3",
                       "--report", str(path))
    assert line.startswith(f"Error: cannot write report file {path}: ")
    assert not path.parent.exists()
    line = usage_error("verify", "--conjecture", "bounds", "--max-n", "3",
                       "--report", str(tmp_path))
    assert line.startswith(f"Error: cannot write report file {tmp_path}: ")


def test_verify_usage_error_leaves_the_report_path_as_it_was(tmp_path):
    # the path is tried before the sweep, which then refuses --max-n
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    old.write_bytes(b"kept\n")
    for path in (new, old):
        line = usage_error("verify", "--conjecture", "bounds", "--max-n", "0",
                           "--report", str(path))
        assert line.startswith("Error: n_max must be between 1 and 8")
    assert not new.exists()
    assert old.read_bytes() == b"kept\n"


def test_csf_unwritable_json_is_a_usage_error(tmp_path):
    path = tmp_path / "missing" / "e.json"
    line = usage_error("csf", "--hessenberg", "0,0,1", "--basis", "e", "--json", str(path))
    assert line.startswith(f"Error: cannot write {path}: ")
    assert not path.parent.exists()

def test_verify_verbose_logs_to_stderr_and_keeps_the_report(tmp_path):
    args = ("verify", "--conjecture", "bounds", "--max-n", "3",
            "--cache", str(tmp_path / "cache"))
    quiet_report, verbose_report = tmp_path / "quiet.jsonl", tmp_path / "verbose.jsonl"
    quiet = run(*args, "--report", str(quiet_report))
    verbose = run(*args, "--report", str(verbose_report), "-v")
    assert quiet.exit_code == verbose.exit_code == 0
    # the second run replays the first one's cache, timing included
    assert verbose_report.read_bytes() == quiet_report.read_bytes()
    assert verbose.stdout == quiet.stdout
    assert "cache hits" not in quiet.stderr
    assert "csflab.harness: cache hits: 20 of 20 tasks" in verbose.stderr


def test_formula_matches_direct_expansion():
    direct = run("csf", "--hessenberg", "0,0,1", "--basis", "e")
    closed = run("formula", "--path", "3")
    assert closed.stdout == direct.stdout

    gamma = ",".join(str(g) for g in (2, 3))
    m = ",".join(str(v) for v in kchain_hessenberg((2, 3)))
    direct = run("csf", "--hessenberg", m, "--basis", "e")
    closed = run("formula", "--kchain", gamma)
    assert closed.stdout == direct.stdout


def test_formula_usage_errors():
    one = "Error: exactly one of --path or --kchain is required"
    assert usage_error("formula") == one
    assert usage_error("formula", "--path", "3", "--kchain", "2,2") == one
    assert usage_error("formula", "--kchain", "1,2") == (
        "Error: clique sizes must all be at least 2: (1, 2)")

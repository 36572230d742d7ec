from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from csflab.cli import main
from csflab.harness import CONJECTURES, emit_report, run_verification
from csflab.csf import SymFunc
from csflab.posets import kchain_hessenberg

E5 = "0,0,1,1,3"


def run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), catch_exceptions=False, **kwargs)


def test_help_lists_subcommands():
    result = run("--help")
    assert result.exit_code == 0
    for name in ("csf", "tableaux", "hikita", "verify", "formula"):
        assert name in result.output


def test_csf_elementary_expansion():
    result = run("csf", "--hessenberg", E5, "--basis", "e")
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "e[3,1,1] [0,0,1,1]",
        "e[3,2] [0,0,1,1]",
        "e[4,1] [0,2,3,3,2]",
        "e[5] [1,2,2,2,2,1]",
    ]


def test_csf_evaluated_at_one():
    result = run("csf", "--hessenberg", E5, "--basis", "e", "--q-at", "1")
    assert result.output.splitlines() == [
        "e[3,1,1] 2",
        "e[3,2] 2",
        "e[4,1] 10",
        "e[5] 10",
    ]


def test_csf_monomial_and_schur_for_antichain():
    result = run("csf", "--hessenberg", "0,0", "--basis", "m")
    assert result.output.splitlines() == ["m[1,1] [1,1]"]
    result = run("csf", "--hessenberg", "0,0", "--basis", "s")
    assert result.output.splitlines() == ["s[1,1] [1,1]"]


def test_csf_json_round_trip(tmp_path):
    out = tmp_path / "e5.json"
    result = run("csf", "--hessenberg", E5, "--basis", "e", "--json", str(out))
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    f = SymFunc.from_json_dict(data)
    assert f.basis == "e" and f.n == 5
    assert f.coeff((3, 2)).json_coeffs() == [0, 0, 1, 1]


def test_csf_usage_errors():
    assert run("csf", "--hessenberg", "0,2", "--basis", "e").exit_code == 2
    assert run("csf", "--hessenberg", "zero", "--basis", "e").exit_code == 2
    assert run("csf", "--hessenberg", E5, "--basis", "q").exit_code == 2
    result = run("csf", "--hessenberg", E5, "--basis", "e", "--q-at", "x")
    assert result.exit_code == 2 and "bad rational" in result.output


def test_tableaux_powerful_listing():
    result = run("tableaux", "--hessenberg", E5, "--shape", "3,2", "--class", "powerful")
    lines = result.output.splitlines()
    assert len(lines) == 3
    invs = sorted(int(line.split("inv=")[1].split()[0]) for line in lines)
    assert invs == [2, 3, 3]
    assert sum(line.endswith("strong=yes") for line in lines) == 2

    result = run("tableaux", "--hessenberg", E5, "--shape", "3,2", "--class", "strong")
    assert len(result.output.splitlines()) == 2


def test_tableaux_hikita_listing():
    result = run("tableaux", "--hessenberg", E5, "--shape", "3,2", "--class", "hikita")
    lines = result.output.splitlines()
    assert lines and all(line.endswith("strong=yes") for line in lines)


def test_tableaux_k_set_listing():
    m = "0,0,1,1,2,4"
    counts = {}
    for which in ("strong", "k-set", "powerful"):
        result = run("tableaux", "--hessenberg", m, "--shape", "4,2", "--class", which)
        assert result.exit_code == 0
        counts[which] = len(result.output.splitlines())
    assert counts == {"strong": 6, "k-set": 8, "powerful": 10}


def test_tableaux_usage_errors():
    result = run("tableaux", "--hessenberg", E5, "--shape", "4,1", "--class", "k-set")
    assert result.exit_code == 2 and "k-set" in result.output
    # (n-2, 2) is no partition at n <= 4: refused for n, not for a bogus shape
    for m, shape in (("0", "1"), ("0,0,1", "2,1")):
        result = run("tableaux", "--hessenberg", m, "--shape", shape, "--class", "k-set")
        assert result.exit_code == 2 and "n > 4" in result.output, result.output
    assert run("tableaux", "--hessenberg", E5, "--shape", "2,2", "--class", "standard").exit_code == 2
    assert run("tableaux", "--hessenberg", E5, "--shape", "2,3", "--class", "standard").exit_code == 2


def test_hikita_statistics():
    result = run("hikita", "--hessenberg", "0,0", "--shape", "2")
    assert result.output.splitlines() == ["1,2 [1] / [1]"]
    explicit = run("hikita", "--hessenberg", "0,0", "--shape", "2", "--prob")
    assert explicit.output == result.output
    def values(result):
        return [line.split(" ", 1)[1] for line in result.output.splitlines()]

    zeta_out = run("hikita", "--hessenberg", E5, "--shape", "3,2", "--zeta")
    assert values(zeta_out) and all(" / " not in v for v in values(zeta_out))
    h_out = run("hikita", "--hessenberg", E5, "--shape", "3,2", "--h")
    assert values(h_out) and all(" / " in v for v in values(h_out))


def test_verify_all_holds(tmp_path):
    report = tmp_path / "bounds.jsonl"
    result = run("verify", "--conjecture", "bounds", "--max-n", "3",
                 "--report", str(report))
    assert result.exit_code == 0
    assert "bounds n<=3: holds=20 fails=0 skipped=0" in result.output
    lines = report.read_text().splitlines()
    assert len(lines) == 20
    assert all(json.loads(line)["status"] == "holds" for line in lines)


def test_verify_failure_exits_one(monkeypatch):
    import csflab.harness as harness

    def refuted(m, lam):
        return "fails", {"forced": True}

    monkeypatch.setitem(harness._PER_UNIT, "nonzero", refuted)
    result = run("verify", "--conjecture", "nonzero", "--max-n", "2")
    assert result.exit_code == 1
    assert "fails=5" in result.output


def test_verify_error_exits_three(monkeypatch):
    import csflab.harness as harness

    def boom(m, lam):
        raise RuntimeError("forced")

    monkeypatch.setitem(harness._PER_UNIT, "nonzero", boom)
    result = run("verify", "--conjecture", "nonzero", "--max-n", "2")
    assert result.exit_code == 3
    last = result.output.strip().splitlines()[-1]
    assert last == "nonzero n<=2: holds=0 fails=0 skipped=0 error=5"
    assert "RuntimeError: forced" in result.output


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
            assert result.exit_code == 0, result.output

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

    plain = harness._PER_UNIT["h-lower-bound"]

    def flaky(m, lam):
        if lam == (2, 1, 1):
            raise RuntimeError('forced "quoted" \u00fc')
        return plain(m, lam)

    monkeypatch.setitem(harness._PER_UNIT, "h-lower-bound", flaky)
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
    result = run("verify", "--conjecture", "bounds", "--max-n", "9")
    assert result.exit_code == 2 and "override" in result.output
    assert run("verify", "--conjecture", "bounds", "--max-n", "0").exit_code == 2
    assert run("verify", "--conjecture", "positivity", "--max-n", "3").exit_code == 2


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
    assert closed.output == direct.output

    gamma = ",".join(str(g) for g in (2, 3))
    m = ",".join(str(v) for v in kchain_hessenberg((2, 3)))
    direct = run("csf", "--hessenberg", m, "--basis", "e")
    closed = run("formula", "--kchain", gamma)
    assert closed.output == direct.output


def test_formula_usage_errors():
    assert run("formula").exit_code == 2
    assert run("formula", "--path", "3", "--kchain", "2,2").exit_code == 2
    assert run("formula", "--kchain", "1,2").exit_code == 2

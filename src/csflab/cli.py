"""Command-line front end.

Five subcommands: ``csf`` prints a basis expansion of the chromatic
function of one unit order, ``tableaux`` lists a tableau class with
inversion counts, ``hikita`` prints insertion statistics over the
reachable tableaux, ``verify`` sweeps one conjecture over every unit
order up to a size, and ``formula`` evaluates the closed forms for path
and glued-clique orders.

Exit codes: 0 when everything holds, 1 when a verification fails,
2 on usage errors, 3 when a check raised inside ``verify`` (an ``error``
unit is a crash, not a counterexample).  Domain validation errors (bad
vectors, mismatched shapes) count as usage errors.
"""

from __future__ import annotations

import contextlib
import json
import logging
import sys

from fractions import Fraction

import click

from .csf import (
    chromatic_e_expansion,
    csf_coloring_oracle,
    csf_schur,
    kchain_formula,
    path_formula,
)
from .harness import CONJECTURES, emit_report, report_lines, run_verification, summarize
from .hikita import enumerate_hikita, h, prob, zeta
from .posets import check_hessenberg, poset_from_hessenberg
from .qcore import check_partition, parse_int_tuple, poly_text
from .structural import K_set
from .tableaux import colword, enumerate_class, inv_p, is_strong, tableau_to_text


def _usage(fn, *args, **kwargs):
    """Run a library call, converting its ValueError into exit code 2."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _vector(text):
    return _usage(lambda: check_hessenberg(parse_int_tuple(text)))


def _shape(text, n):
    lam = _usage(lambda: check_partition(parse_int_tuple(text)))
    if sum(lam) != n:
        raise click.UsageError(f"shape {lam} does not have size {n}")
    return lam


@contextlib.contextmanager
def _info_to_stderr():
    """While the block runs, send the csflab loggers' INFO records to stderr."""
    logger, handler = logging.getLogger("csflab"), logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _echo_expansion(f, q_at=None):
    values = f.eval_at(q_at) if q_at is not None else {
        part: poly_text(poly) for part, poly in sorted(f.coeffs.items())}
    for part, value in values.items():
        click.echo(f"{f.basis}[{','.join(map(str, part))}] {value}")


@click.group()
def main():
    """Exact chromatic-function toolkit for natural unit interval orders."""


@main.command()
@click.option("--hessenberg", required=True, metavar="M",
              help="Comma-separated vector, e.g. 0,0,1,1,3.")
@click.option("--basis", required=True, type=click.Choice(["m", "e", "s"]),
              help="Monomial, elementary, or Schur expansion.")
@click.option("--q-at", "q_at", metavar="RATIONAL", default=None,
              help="Evaluate every coefficient at an exact rational, e.g. 1 or 2/3.")
@click.option("--json", "json_path", metavar="PATH", default=None,
              help="Also write the symbolic expansion as JSON.")
def csf(hessenberg, basis, q_at, json_path):
    """Expand the chromatic function of one unit order in a basis."""
    p = poset_from_hessenberg(_vector(hessenberg))
    build = {
        "m": csf_coloring_oracle,
        "e": chromatic_e_expansion,
        "s": csf_schur,
    }[basis]
    f = _usage(build, p)
    if q_at is not None:
        try:
            q_at = Fraction(q_at)
        except (ValueError, ZeroDivisionError) as exc:
            raise click.UsageError(f"bad rational {q_at!r}: {exc}") from exc
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(f.to_json_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise click.ClickException(f"cannot write {json_path}: {exc}") from exc
    _echo_expansion(f, q_at)


@main.command()
@click.option("--hessenberg", required=True, metavar="M")
@click.option("--shape", required=True, metavar="L",
              help="Row shape as a comma-separated partition, e.g. 3,2.")
@click.option("--class", "which", required=True,
              type=click.Choice(["standard", "strong", "powerful", "hikita", "k-set"]))
def tableaux(hessenberg, shape, which):
    """List a tableau class, one per line, with inv and the strong flag."""
    m = _vector(hessenberg)
    lam = _shape(shape, len(m))
    p = poset_from_hessenberg(m)
    if which == "hikita":
        found = _usage(enumerate_hikita, m, lam)
    elif which == "k-set":
        # at n <= 4, (n-2, 2) is no partition: K_set refuses that itself
        wanted = (len(m) - 2, 2)
        if len(m) > 4 and lam != wanted:
            raise click.UsageError(
                f"class k-set only exists for shape {wanted}, got {lam}"
            )
        found = sorted(_usage(K_set, p), key=colword)
    else:
        found = _usage(enumerate_class, p, lam, which)
    for cols in found:
        flag = "yes" if is_strong(p, cols) else "no"
        click.echo(f"{tableau_to_text(cols)} inv={inv_p(p, cols)} strong={flag}")


@main.command()
@click.option("--hessenberg", required=True, metavar="M")
@click.option("--shape", required=True, metavar="L")
@click.option("--prob", "stat", flag_value="prob", default=True,
              help="Reach probability (default).")
@click.option("--zeta", "stat", flag_value="zeta",
              help="The q-power normalizer.")
@click.option("--h", "stat", flag_value="h",
              help="Probability divided by the normalizer.")
def hikita(hessenberg, shape, stat):
    """Insertion statistics for each reachable tableau of one shape."""
    m = _vector(hessenberg)
    lam = _shape(shape, len(m))
    pick = {"prob": prob, "zeta": zeta, "h": h}[stat]
    for cols in _usage(enumerate_hikita, m, lam):
        click.echo(f"{tableau_to_text(cols)} {pick(m, cols).text()}")


@main.command()
@click.option("--conjecture", required=True, type=click.Choice(list(CONJECTURES)))
@click.option("--max-n", "max_n", required=True, type=int,
              help="Largest poset size to sweep.")
@click.option("--jobs", default=1, show_default=True, help="Worker processes.")
@click.option("--report", "report_path", metavar="PATH", default=None,
              help="Write the JSON-lines report here, in report order.")
@click.option("--cache", "cache_dir", metavar="DIR", default=None,
              help="Result cache directory.")
@click.option("--override-cap", is_flag=True,
              help="Raise the size cap from 8 to 10.")
@click.option("-v", "--verbose", is_flag=True,
              help="Log the sweep's INFO messages to stderr.")
def verify(conjecture, max_n, jobs, report_path, cache_dir, override_cap, verbose):
    """Check one conjecture on every unit order with at most max-n elements."""
    with _info_to_stderr() if verbose else contextlib.nullcontext():
        reports = _usage(run_verification, conjecture, max_n, jobs,
                         cache_dir=cache_dir, override_cap=override_cap)
    if report_path:
        try:
            emit_report(reports, report_path)
        except OSError as exc:
            raise click.ClickException(str(exc)) from exc
    counts = summarize(reports)
    for line in report_lines(reports, ("fails", "error")):
        click.echo(line, err=True)
    errors = counts.get("error", 0)
    click.echo(
        f"{conjecture} n<={max_n}: holds={counts['holds']}"
        f" fails={counts['fails']} skipped={counts['skipped']}"
        + (f" error={errors}" if errors else "")
    )
    if errors:
        sys.exit(3)
    if counts["fails"]:
        sys.exit(1)


@main.command()
@click.option("--path", "path_n", type=int, default=None, metavar="N",
              help="Closed form for the n-vertex path order.")
@click.option("--kchain", "gamma_text", default=None, metavar="G",
              help="Closed form for glued cliques of sizes G, e.g. 3,2,4.")
def formula(path_n, gamma_text):
    """Print a closed-form e-expansion without enumerating colorings."""
    if (path_n is None) == (gamma_text is None):
        raise click.UsageError("exactly one of --path or --kchain is required")
    if path_n is not None:
        f = _usage(path_formula, path_n)
    else:
        f = _usage(kchain_formula, _usage(lambda: parse_int_tuple(gamma_text)))
    _echo_expansion(f)

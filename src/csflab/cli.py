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
vectors, mismatched shapes) count as usage errors.  The command line
needs only the standard library, and imports ``logging`` only for ``-v``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from fractions import Fraction

from .csf import chromatic_e_expansion, csf_coloring_oracle, csf_schur, kchain_formula
from .csf import path_formula
from .harness import CONJECTURES, emit_report, report_lines, run_verification, summarize
from .hikita import enumerate_hikita, h, prob, zeta
from .posets import check_hessenberg, poset_from_hessenberg
from .qcore import QRat, check_partition, parse_int_tuple, poly_text
from .structural import K_set
from .tableaux import colword, enumerate_class, inv_p, is_strong, tableau_to_text


class _UsageError(Exception):
    """A bad value that parsing let through: exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Usage errors print the usage, a help hint and ``Error: message``."""

    def error(self, message):
        self.exit(2, f"{self.format_usage()}Try '{self.prog} --help' for help.\n\n"
                     f"Error: {message}\n")


def _usage(fn, *args, **kwargs):
    """Run a library call, converting its ValueError into exit code 2."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _failure(message):
    """Print ``Error: message`` to stderr and exit with code 1."""
    print(f"Error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _vector(text):
    return _usage(lambda: check_hessenberg(parse_int_tuple(text)))


def _shape(text, n):
    lam = _usage(lambda: check_partition(parse_int_tuple(text)))
    if sum(lam) != n:
        raise _UsageError(f"shape {lam} does not have size {n}")
    return lam


@contextlib.contextmanager
def _info_to_stderr():
    """While the block runs, send the csflab loggers' INFO records to stderr."""
    import logging

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
        print(f"{f.basis}[{','.join(map(str, part))}] {value}")


def csf(hessenberg, basis, q_at, json_path):
    """Expand the chromatic function of one unit order in a basis."""
    p = poset_from_hessenberg(_vector(hessenberg))
    if q_at is not None:
        try:
            q_at = Fraction(q_at)
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"bad rational {q_at!r}: {exc}") from exc
    build = {"m": csf_coloring_oracle, "e": chromatic_e_expansion, "s": csf_schur}[basis]
    f = _usage(build, p)
    if json_path:
        try:
            with open(json_path, "w", encoding="utf-8") as fh:
                json.dump(f.to_json_dict(), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            _failure(f"cannot write {json_path}: {exc}")
    _echo_expansion(f, q_at)


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
            raise _UsageError(f"class k-set only exists for shape {wanted}, got {lam}")
        found = sorted(_usage(K_set, p), key=colword)
    else:
        found = _usage(enumerate_class, p, lam, which)
    for cols in found:
        flag = "yes" if is_strong(p, cols) else "no"
        print(f"{tableau_to_text(cols)} inv={inv_p(p, cols)} strong={flag}")


def hikita(hessenberg, shape, stat):
    """Insertion statistics for each reachable tableau of one shape."""
    m = _vector(hessenberg)
    lam = _shape(shape, len(m))
    pick = {"prob": prob, "zeta": zeta, "h": h}[stat]
    text = poly_text if stat == "zeta" else QRat.text
    for cols in _usage(enumerate_hikita, m, lam):
        print(f"{tableau_to_text(cols)} {text(pick(m, cols))}")


def verify(conjecture, max_n, jobs, report_path, cache_dir, override_cap, verbose):
    """Check one conjecture on every unit order with at most max-n elements."""
    with _info_to_stderr() if verbose else contextlib.nullcontext():
        reports = _usage(run_verification, conjecture, max_n, jobs,
                         cache_dir=cache_dir, override_cap=override_cap)
    if report_path:
        try:
            emit_report(reports, report_path)
        except OSError as exc:
            _failure(exc)
    counts = summarize(reports)
    for line in report_lines(reports, ("fails", "error")):
        print(line, file=sys.stderr)
    errors = counts.get("error", 0)
    print(
        f"{conjecture} n<={max_n}: holds={counts['holds']}"
        f" fails={counts['fails']} skipped={counts['skipped']}"
        + (f" error={errors}" if errors else "")
    )
    return 3 if errors else 1 if counts["fails"] else 0


def formula(path_n, gamma_text):
    """Print a closed-form e-expansion without enumerating any tableaux."""
    if (path_n is None) == (gamma_text is None):
        raise _UsageError("exactly one of --path or --kchain is required")
    if path_n is not None:
        f = _usage(path_formula, path_n)
    else:
        f = _usage(kchain_formula, _usage(lambda: parse_int_tuple(gamma_text)))
    _echo_expansion(f)


def _parser(prog_name):
    """The top-level parser; each subcommand's ``run`` default is its function."""
    parser = _Parser(prog=prog_name, allow_abbrev=False, description=(
        "Exact chromatic-function toolkit for natural unit interval orders."))
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                     required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        return sub.add_argument

    option = command(csf)
    option("--hessenberg", required=True, metavar="M",
           help="Comma-separated vector, e.g. 0,0,1,1,3.")
    option("--basis", required=True, choices=("m", "e", "s"),
           help="Monomial, elementary, or Schur expansion.")
    option("--q-at", metavar="RATIONAL",
           help="Evaluate every coefficient at an exact rational, e.g. 1 or 2/3.")
    option("--json", dest="json_path", metavar="PATH",
           help="Also write the symbolic expansion as JSON.")

    option = command(tableaux)
    option("--hessenberg", required=True, metavar="M")
    option("--shape", required=True, metavar="L",
           help="Row shape as a comma-separated partition, e.g. 3,2.")
    option("--class", dest="which", required=True,
           choices=("standard", "strong", "powerful", "hikita", "k-set"))

    option = command(hikita)
    option("--hessenberg", required=True, metavar="M")
    option("--shape", required=True, metavar="L")
    option("--prob", dest="stat", action="store_const", const="prob", default="prob",
           help="Reach probability (default).")
    option("--zeta", dest="stat", action="store_const", const="zeta",
           help="The q-power normalizer.")
    option("--h", dest="stat", action="store_const", const="h",
           help="Probability divided by the normalizer.")

    option = command(verify)
    option("--conjecture", required=True, choices=CONJECTURES)
    option("--max-n", required=True, type=int, metavar="N",
           help="Largest poset size to sweep.")
    option("--jobs", type=int, default=1, metavar="K", help="Worker processes. [default: 1]")
    option("--report", dest="report_path", metavar="PATH",
           help="Write the JSON-lines report here, in report order.")
    option("--cache", dest="cache_dir", metavar="DIR", help="Result cache directory.")
    option("--override-cap", action="store_true",
           help="Raise the size cap from 8 to 10.")
    option("-v", "--verbose", action="store_true",
           help="Log the sweep's INFO messages to stderr.")

    option = command(formula)
    option("--path", dest="path_n", type=int, metavar="N",
           help="Closed form for the n-vertex path order.")
    option("--kchain", dest="gamma_text", metavar="G",
           help="Closed form for glued cliques of sizes G, e.g. 3,2,4.")
    return parser, commands.choices


def main(args=None, prog_name=None):
    """Run one subcommand on ``args`` (default ``sys.argv[1:]``) and raise
    SystemExit with its exit code."""
    parser, commands = _parser(prog_name)
    options = vars(parser.parse_args(args))
    name, run = options.pop("command"), options.pop("run")
    try:
        code = run(**options)
    except _UsageError as exc:
        commands[name].error(str(exc))
    raise SystemExit(code or 0)

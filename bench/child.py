"""One measured process of the benchmark.

Run by ``run.py`` as a fresh interpreter, so no in-process cache of a
previous run is warm.  It imports csflab from the checkout's ``src/``
and refuses to run against any other copy.

    child.py setup verify CONJECTURE MAX_N   import csflab.cli, build tasks_for(...)
    child.py setup expand - MAX_N            import csflab.cli, build the vector list
    child.py cli ARGS...                     csflab ARGS... (the console script)
    child.py expand MAX_N OUT                e- and s-expansions of every vector
    child.py trace PREFIX (cli|expand) ...   either of the two above, traced
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_csflab():
    """Import csflab.cli from ``src/`` (on PYTHONPATH), never another copy."""
    import csflab
    import csflab.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(csflab.__file__))) != SRC:
        sys.exit(f"csflab imported from {csflab.__file__}, not from {SRC}")


def _modules():
    from csflab import cli, csf, harness, posets, qcore, tableaux

    return {"cli": cli, "csf": csf, "harness": harness, "posets": posets,
            "qcore": qcore, "tableaux": tableaux}


def _vectors(max_n):
    from csflab import posets

    return [m for n in range(1, max_n + 1) for m in posets.enumerate_hessenberg(n)]


def _expand(vectors):
    """One JSON line per vector; a vector that raises is kept with its error."""
    from csflab import csf, posets

    lines = []
    for m in vectors:
        try:
            p = posets.poset_from_hessenberg(m)
            row = {"m": list(m), "e": csf.chromatic_e_expansion(p).to_json_dict(),
                   "s": csf.csf_schur(p).to_json_dict()}
        except Exception as exc:  # recorded and checked by run.py
            row = {"m": list(m), "error": f"{type(exc).__name__}: {exc}"}
        lines.append(json.dumps(row, sort_keys=True))
    return lines


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _run(mode, args):
    if mode == "cli":
        from csflab.cli import main

        main(args=args, prog_name="csflab")
    elif mode == "expand":
        max_n, out = args
        _write(out, _expand(_vectors(int(max_n))))
    else:
        sys.exit(f"unknown mode {mode!r}")


def main(argv):
    mode, args = argv[0], argv[1:]
    _import_csflab()
    if mode == "setup":
        kind, conjecture, max_n = args
        if kind == "verify":
            from csflab.harness import tasks_for

            tasks_for(conjecture, int(max_n))
        else:
            _vectors(int(max_n))
        return
    if mode != "trace":
        _run(mode, args)
        return
    import spans

    prefix, mode, args = args[0], args[1], args[2:]
    tracer = spans.install(_modules())
    try:
        _run(mode, args)
    finally:
        start = time.perf_counter()
        tracer.dump(prefix)
        with open(prefix + ".dump_s", "w", encoding="utf-8") as fh:
            fh.write(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])

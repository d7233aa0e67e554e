"""Batch command-line frontend with JSON input and output.

Subcommands cover the Voronoi-cell audits, tiling and dual-cell reports,
canonical scaling, the convex lift, hypergraph classification, and the
matching case engine.  All pipelines are deterministic: identical inputs
produce byte-identical output.

Each subcommand is one row of ``COMMANDS``: its words, help text, input
option, golden file name and handler.  ``build_parser`` builds the
argument parser from the rows.  A handler returns its report and exit
code; ``main`` alone renders the report, compares it with ``--golden``,
writes it to stdout or ``--out`` and maps exceptions to exit codes.

Exit codes: 0 on success, 1 when a contradiction or violation is found
(a report that says so, or a raised ``tilekit.Violation``; the expected
outcome for the case engine), 2 on input errors, 3 when a report differs
from its --golden copy, 70 on an internal error (a fault in tilekit
itself, reported as "internal error:" on stderr).  Input errors are raised
as InputError by the loading and parsing layer, by each command's own
checks of its arguments and by an unwritable --out; any other exception
that is not a violation is an internal error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import Violation


def _lazy(name: str):
    """Import the submodule ``name`` of tilekit without running it yet.

    The module goes into ``sys.modules`` and onto the package, as a normal
    import would put it, and its code runs on first attribute access.  So
    each subcommand runs only the modules it uses.  LazyLoader is not
    thread-safe before Python 3.12; tilekit runs in one thread.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# No handler calls _lp itself; it is registered so that, after importing
# this module, every tilekit module is in sys.modules (bench/tracer.py
# patches them all from there).
_lazy("_lp")
ratpoly = _lazy("ratpoly")
lattice = _lazy("lattice")
tiling = _lazy("tiling")
scaling = _lazy("scaling")
lifting = _lazy("lifting")
hypercomb = _lazy("hypercomb")
syssolve = _lazy("syssolve")

MAX_DIM = 5

#: Exit code of a --golden command whose report differs from the stored copy.
GOLDEN_MISMATCH = 3

#: Exit code of an internal fault (BSD EX_SOFTWARE).
INTERNAL_ERROR = 70


class InputError(Exception):
    """Unusable input: missing file, malformed JSON, bad values."""


# ---------------------------------------------------------------------------
# Plumbing.
# ---------------------------------------------------------------------------


def _file_error(path, e: OSError) -> InputError:
    return InputError(f"{path}: {e.strerror or e}")


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise _file_error(path, e) from e


def _load_json(path: str):
    text = _read(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e


def _load_gram(path: str):
    obj = _load_json(path)
    try:
        gram = lattice.gram_from_json(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"{path}: not a lattice document ({e})") from e
    if len(gram) > MAX_DIM:
        raise InputError(f"{path}: dimension {len(gram)} exceeds the "
                         f"cap of {MAX_DIM}")
    try:
        return lattice.check_gram(gram)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def _plain(obj):
    """Mirror a certificate structure into JSON-ready data.

    Raises:
        TypeError: a value of a type the report schema does not know.
    """
    if isinstance(obj, Fraction):
        return ratpoly.frac_to_json(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (frozenset, set)):
        return [_plain(x) for x in sorted(obj, key=repr)]
    # Exact types: a record is a tuple subclass, and it has no report form.
    if type(obj) in (tuple, list):
        return [_plain(x) for x in obj]
    raise TypeError(f"no JSON form for a value of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Lattice / tiling commands.
# ---------------------------------------------------------------------------


def _cmd_dv(path: str):
    gram = _load_gram(path)
    cell = lattice.dv_cell(gram)
    rep = lattice.venkov_check_cell(cell)
    doc = {
        "lattice": lattice.gram_to_json(gram),
        "cell": ratpoly.polytope_to_json(cell),
        "venkov": {
            "facet_count": rep.facet_count,
            "centrally_symmetric": rep.centrally_symmetric,
            "facets_centrally_symmetric": rep.facets_centrally_symmetric,
            "belt_lengths": list(rep.belt_lengths),
            "passed": rep.passed,
        },
    }
    return doc, 0 if rep.passed else 1


def _cmd_tiling_audit(path: str):
    c = tiling.build_complex(_load_gram(path))
    sk = tiling.skinny_audit(c)
    doc = {
        "dim": c.dim,
        "facet_count": len(c.tile.facets),
        "orbit_counts": {str(k): v for k, v in sorted(c.orbit_counts().items())},
        "skinny": {
            "checked": sk.checked,
            "failures": list(sk.failures),
            "passed": sk.passed,
        },
    }
    return doc, 0 if sk.passed else 1


def _cmd_dual_cells(path: str):
    c = tiling.build_complex(_load_gram(path))
    rows = []
    for o in c.orbits:
        dc = tiling.dual_cell(c, o.index)
        row = {
            "orbit": o.index,
            "face_dim": o.dim,
            "combdim": dc.combdim,
            "dim": dc.dim,
            "vertices": len(dc.verts),
        }
        if dc.combdim == 3:
            fan = tiling.classify_dual3(dc)
            row["fan"] = fan.tag
            row["class"] = fan.name
        elif dc.combdim == 2:
            fan = tiling.classify_d2(c, o.index)
            row["fan"] = fan.tag
            row["class"] = fan.name
        rows.append(row)
    return {"dim": c.dim, "cells": rows}, 0


def _cmd_irreducible(path: str):
    gram = _load_gram(path)
    if len(gram) < 3:
        raise InputError("3-irreducibility needs a lattice of dimension at "
                         "least 3")
    c = tiling.build_complex(gram)
    ok, witness = tiling.is_3_irreducible(c)
    doc: dict = {"three_irreducible": ok}
    if witness is not None:
        orbit, fan = witness
        doc["witness"] = {"orbit": orbit, "fan": fan.tag, "class": fan.name}
    return doc, 0 if ok else 1


# ---------------------------------------------------------------------------
# Scaling and lifting commands.
# ---------------------------------------------------------------------------


def _scaling_pieces(c: tiling.TilingComplex):
    """The normal frame of ``c`` and the scaling propagated over it."""
    frame = scaling.build_frame(c)
    gain = scaling.bridge_gain(c, scaling.gain_from_d2(c, frame))
    seed = min(o.index for o in c.orbits if o.dim == c.dim - 1)
    return frame, scaling.propagate(c, gain, seed)


def _inconsistent(out: scaling.InconsistencyWitness) -> dict:
    return {"status": "inconsistent", "circuit": list(out.circuit),
            "gain_product": ratpoly.frac_to_json(out.gain_product)}


def _cmd_scaling_build(path: str):
    _frame, out = _scaling_pieces(tiling.build_complex(_load_gram(path)))
    if isinstance(out, scaling.InconsistencyWitness):
        return _inconsistent(out), 1
    doc = {
        "status": "ok",
        "factors": {str(k): ratpoly.frac_to_json(v)
                    for k, v in sorted(out.factors.items())},
    }
    return doc, 0


def _cmd_scaling_verify(path: str):
    c = tiling.build_complex(_load_gram(path))
    frame, out = _scaling_pieces(c)
    if isinstance(out, scaling.InconsistencyWitness):
        return _inconsistent(out), 1
    ok, bad_orbit = scaling.verify_canonical(c, out, frame)
    doc = {"status": "canonical" if ok else "violation"}
    if not ok:
        doc["orbit"] = bad_orbit
    return doc, 0 if ok else 1


def _cmd_scaling_coherence(path: str):
    gram = _load_gram(path)
    if len(gram) < 4:
        raise InputError("coherence scanning needs a lattice of dimension "
                         "at least 4")
    c = tiling.build_complex(gram)
    frame = scaling.build_frame(c)
    pairs = scaling.pyramid_flanked_parallelograms(c)
    table = scaling.star_table(c, frame, (q for *_, fl in pairs for q in fl))
    rows = []
    all_ok = True
    for base_orbit, r, flanks in pairs:
        ok = scaling.test_coherence(c, r, flanks, table)
        all_ok = all_ok and ok
        rows.append({"base_orbit": base_orbit,
                     "parallelogram_orbit": r,
                     "coherent": ok})
    return {"pairs": rows, "all_coherent": all_ok}, 0 if all_ok else 1


def _cmd_lift(path: str):
    c = tiling.build_complex(_load_gram(path))
    frame, out = _scaling_pieces(c)
    if isinstance(out, scaling.InconsistencyWitness):
        return _inconsistent(out), 1
    g = lifting.build_generatrissa(c, out, frame)
    q = lifting.recover_qform(g)
    rep = lifting.verify_lifting(g, q)
    doc = {
        "qform": {
            "matrix": [ratpoly.vec_to_json(row) for row in q.matrix],
            "basis": [ratpoly.vec_to_json(b) for b in q.basis],
        },
        "tangency": rep.tangency,
        "convexity": rep.convexity,
    }
    return doc, 0 if rep.tangency and rep.convexity else 1


# ---------------------------------------------------------------------------
# Hypergraph commands.
# ---------------------------------------------------------------------------


def _cmd_hyper_enumerate_k5():
    schemes = hypercomb.enumerate_k5_schemes()
    doc = {
        "cases": [{"case": k + 1, "cycles": [list(cy) for cy in p.cycles]}
                  for k, p in enumerate(schemes)],
        "distinct_classes": len(hypercomb.k5_scheme_classes()),
    }
    return doc, 0


def _freeze(v):
    return tuple(_freeze(x) for x in v) if isinstance(v, list) else v


def _hypergraph_from_json(path: str) -> hypercomb.Hypergraph4:
    obj = _load_json(path)
    try:
        edges = [[_freeze(v) for v in e] for e in obj["edges"]]
        return hypercomb.hypergraph(edges)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: not a hypergraph document ({e})") from e


def _cmd_hyper_audit(path: str):
    h = _hypergraph_from_json(path)
    closure = hypercomb.is_closed(h)
    doc: dict = {
        "edges": len(h.edges),
        "vertices": len(h.vertices),
        "closed": closure.closed,
        "empty": closure.empty,
    }
    if closure.witness is not None:
        doc["witness"] = _plain(closure.witness)
    ok = closure.closed
    if closure.closed and not closure.empty:
        mom = hypercomb.moment_audit(h)
        doc["moments"] = {
            "identities": [{"name": name, "lhs": a, "rhs": b}
                           for name, a, b in mom.identities],
            "degree_bounds_ok": mom.degree_bounds_ok,
            "ok": mom.ok,
        }
        ok = ok and mom.ok
    return doc, 0 if ok else 1


def _cmd_hyper_find_subgraph(path: str):
    h = _hypergraph_from_json(path)
    closure = hypercomb.is_closed(h)
    if closure.empty or not closure.closed:
        raise InputError(f"{path}: the search needs a nonempty closed "
                         "hypergraph")
    try:
        found = hypercomb.find_5_10_or_6_11(h)
    except hypercomb.SearchFailure as e:
        return {"status": "not_found", "reason": str(e)}, 1
    doc = {
        "status": "found",
        "tag": found.tag,
        "edges": [_plain(e) for e in found.edges],
        "embedding": _plain(found.embedding),
    }
    return doc, 0


# ---------------------------------------------------------------------------
# Case-engine commands.
# ---------------------------------------------------------------------------


def _report_json(rep: syssolve.ContradictionReport | None):
    if rep is None:
        return None
    return {"kind": rep.kind, "description": rep.description,
            "certificate": _plain(rep.certificate)}


def _case_row_json(row: syssolve.CaseRow) -> dict:
    out: dict = {
        "family": row.family,
        "case": row.case,
        "documented": _plain(row.documented),
        "verified": row.verified,
    }
    if row.reduces_to is not None:
        out["reduces_to"] = row.reduces_to
        return out
    if row.failure is not None:
        out["no_solution"] = {
            "multipliers": ratpoly.vec_to_json(row.failure.multipliers),
            "residue": ratpoly.vec_to_json(row.failure.residue),
        }
    if row.solution is not None:
        out["labels"] = list(row.solution.system.labels)
        out["params"] = list(row.solution.params)
        out["matrix"] = [ratpoly.vec_to_json(r) for r in row.solution.matrix()]
    if row.detected is not None:
        out["detected"] = _report_json(row.detected)
    if row.resolution is not None:
        out["resolution"] = _report_json(row.resolution)
    return out


def _cmd_cases_run_all():
    table = syssolve.run_all_cases()
    doc = {
        "five_ten": [_case_row_json(r) for r in table.five_ten],
        "six_eleven": [_case_row_json(r) for r in table.six_eleven],
        "all_verified": table.all_verified,
    }
    # Every case ends in a contradiction or an inconsistency certificate;
    # finding them is the point, and is flagged on exit.
    return doc, 1


def _cmd_cases_cone_pipeline():
    rays = syssolve.cone_test_pipeline()
    doc = {
        "survivors": [ratpoly.vec_to_json(r) for r in rays],
        "canonical": ratpoly.vec_to_json(syssolve.SURVIVOR_DIRECTION),
        "orbit_closed": set(rays) == set(syssolve.survivor_orbit()),
    }
    return doc, 0


def _cmd_cases_final_case():
    return {"contradiction": _report_json(syssolve.final_case_check())}, 1


# ---------------------------------------------------------------------------
# The command table and argument parsing.
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """One subcommand.

    ``input`` is the required option naming the input file, or None; the
    handler takes that file's path (nothing when there is no input) and
    returns the report and the exit code.  ``golden`` is the report's file
    name under ``--golden DIR``, or None when the command has no such
    option.
    """

    words: tuple[str, ...]
    help: str
    input: str | None
    golden: str | None
    handler: Callable


#: Every subcommand, in the order the parser and README.md list them.
COMMANDS = (
    Command(("dv",), "Voronoi cell, symmetry and belt audit",
            "--gram", None, _cmd_dv),
    Command(("tiling", "audit"), "face-to-face build plus dual-cell "
            "sliding-segment audit", "--gram", None, _cmd_tiling_audit),
    Command(("dual-cells",), "classify every dual cell orbit",
            "--gram", None, _cmd_dual_cells),
    Command(("irreducible",), "test all dual 3-cells for the two reducible "
            "shapes", "--gram", None, _cmd_irreducible),
    Command(("scaling", "build"), "propagate a scaling through the facet "
            "gain graph", "--gram", None, _cmd_scaling_build),
    Command(("scaling", "verify"), "check the zero-sum star condition",
            "--gram", None, _cmd_scaling_verify),
    Command(("scaling", "coherence"), "compare flanking pyramid scalings on "
            "parallelograms", "--gram", None, _cmd_scaling_coherence),
    Command(("lift",), "convex lift and its inscribed quadratic form",
            "--gram", None, _cmd_lift),
    Command(("hyper", "enumerate-k5"), "list the cycle-cover classes",
            None, "enumerate-k5.json", _cmd_hyper_enumerate_k5),
    Command(("hyper", "audit"), "closure and moment identities",
            "--input", None, _cmd_hyper_audit),
    Command(("hyper", "find-subgraph"), "locate a minimal closed "
            "configuration", "--input", None, _cmd_hyper_find_subgraph),
    Command(("cases", "run-all"), "work both case tables",
            None, "cases-run-all.json", _cmd_cases_run_all),
    Command(("cases", "cone-pipeline"), "direction tests for the residual "
            "family", None, "cone-pipeline.json", _cmd_cases_cone_pipeline),
    Command(("cases", "final-case"), "prism argument for the surviving "
            "direction", None, "final-case.json", _cmd_cases_final_case),
)

#: Help text of each command group, by its first word.
_GROUPS = {
    "tiling": "tiling-level audits",
    "scaling": "canonical facet scaling",
    "hyper": "4-uniform hypergraph tools",
    "cases": "matching case engine",
}

#: Help text of each input option.
_INPUTS = {
    "--gram": "lattice document: {\"dim\": d, \"gram\": [[...]]}",
    "--input": "hypergraph document: {\"edges\": [[a,b,c,d], ...]}",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tilekit",
        description="Exact-arithmetic audits for lattice tilings and the "
                    "matching case engine.")
    top = ap.add_subparsers(dest="command", required=True)
    groups = {}
    for cmd in COMMANDS:
        *group, name = cmd.words
        sub = top
        if group:
            (g,) = group
            if g not in groups:
                groups[g] = top.add_parser(g, help=_GROUPS[g]).add_subparsers(
                    dest="sub", required=True)
            sub = groups[g]
        p = sub.add_parser(name, help=cmd.help)
        if cmd.input is not None:
            p.add_argument(cmd.input, dest="path", metavar="FILE",
                           required=True, help=_INPUTS[cmd.input])
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the JSON report here instead of stdout")
        if cmd.golden is not None:
            p.add_argument("--golden", metavar="DIR", default=None,
                           help="compare the rendered report against "
                                "DIR/<name>.json")
        p.set_defaults(cmd=cmd)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    cmd = args.cmd
    try:
        inputs = () if cmd.input is None else (args.path,)
        report, code = cmd.handler(*inputs)
        text = json.dumps(report, indent=2) + "\n"
        if cmd.golden is not None and args.golden is not None:
            stored = Path(args.golden) / cmd.golden
            if _read(stored) != text:
                print(f"golden mismatch: {stored}", file=sys.stderr)
                code = GOLDEN_MISMATCH
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                Path(args.out).write_text(text)
            except OSError as e:
                raise _file_error(args.out, e) from e
        return code
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Violation as e:
        print(f"violation: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        import traceback

        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Batch command-line frontend with JSON input and output.

Subcommands cover the Voronoi-cell audits, tiling and dual-cell reports,
canonical scaling, the planar lift, hypergraph classification, and the
matching case engine.  All pipelines are deterministic: identical inputs
produce byte-identical output.

Exit codes: 0 on success, 1 when a contradiction or violation is found
(the expected outcome for the case engine), 2 on input errors, 3 when a
report differs from its --golden copy, 70 on an internal error (a fault
in tilekit itself, reported as "internal error:" on stderr).  Input errors
are raised as InputError by the loading and parsing layer and by each
command's own checks of its arguments; any other exception that is not a
violation is an internal error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path


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

#: Exceptions reported as a found violation (exit 1), with their
#: subclasses, by (module, qualified name): naming the classes themselves
#: would run every module on import.
_VIOLATIONS = frozenset({
    ("tilekit.lattice", "FacetNotCentrallySymmetric"),
    ("tilekit.tiling", "VenkovFailure"),
    ("tilekit.tiling", "UnexpectedStarSize"),
    ("tilekit.tiling", "UnclassifiableCell"),
    ("tilekit.scaling", "NoPositiveSolution"),
    ("tilekit.scaling", "HypothesisViolated"),
    ("tilekit.lifting", "InconsistentScaling"),
    ("tilekit.lifting", "NotPositiveDefinite"),
    ("tilekit.ratpoly", "GeometryError"),
    ("tilekit.hypercomb", "SearchFailure"),
    ("tilekit.syssolve", "VerificationError"),
})


class InputError(Exception):
    """Unusable input: missing file, malformed JSON, bad values."""


# ---------------------------------------------------------------------------
# Plumbing.
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
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


def _render(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text)


def _golden_check(text: str, golden_dir: str | None, name: str) -> bool:
    """Compare rendered output to the stored golden copy; True on match."""
    if golden_dir is None:
        return True
    path = Path(golden_dir) / name
    try:
        stored = path.read_text()
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}") from e
    if stored != text:
        print(f"golden mismatch: {path}", file=sys.stderr)
        return False
    return True


def _zero_ref(c: tiling.TilingComplex, orbit: int) -> tiling.FaceRef:
    return tiling.FaceRef(orbit, (Fraction(0),) * c.dim)


# ---------------------------------------------------------------------------
# Lattice / tiling commands.
# ---------------------------------------------------------------------------


def _cmd_dv(args) -> int:
    gram = _load_gram(args.gram)
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
    _emit(_render(doc), args.out)
    return 0 if rep.passed else 1


def _cmd_tiling_audit(args) -> int:
    gram = _load_gram(args.gram)
    c = tiling.build_complex(gram)
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
    _emit(_render(doc), args.out)
    return 0 if sk.passed else 1


def _cmd_dual_cells(args) -> int:
    gram = _load_gram(args.gram)
    c = tiling.build_complex(gram)
    rows = []
    for o in c.orbits:
        ref = _zero_ref(c, o.index)
        dc = tiling.dual_cell(c, ref)
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
            fan = tiling.classify_d2(c, ref)
            row["fan"] = fan.tag
            row["class"] = fan.name
        rows.append(row)
    _emit(_render({"dim": c.dim, "cells": rows}), args.out)
    return 0


def _cmd_irreducible(args) -> int:
    gram = _load_gram(args.gram)
    if len(gram) < 3:
        raise InputError("3-irreducibility needs a lattice of dimension at "
                         "least 3")
    c = tiling.build_complex(gram)
    ok, witness = tiling.is_3_irreducible(c)
    doc: dict = {"three_irreducible": ok}
    if witness is not None:
        orbit, fan = witness
        doc["witness"] = {"orbit": orbit, "fan": fan.tag, "class": fan.name}
    _emit(_render(doc), args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Scaling and lifting commands.
# ---------------------------------------------------------------------------


def _scaling_pieces(c: tiling.TilingComplex):
    """The normal frame of ``c`` and the scaling propagated over it."""
    frame = scaling.build_frame(c)
    gain = scaling.bridge_gain(c, scaling.gain_from_d2(c, frame))
    seed = min(o.index for o in c.orbits if o.dim == c.dim - 1)
    return frame, scaling.propagate(c, gain, seed)


def _cmd_scaling_build(args) -> int:
    _frame, out = _scaling_pieces(tiling.build_complex(_load_gram(args.gram)))
    if isinstance(out, scaling.InconsistencyWitness):
        doc = {
            "status": "inconsistent",
            "circuit": list(out.circuit),
            "gain_product": ratpoly.frac_to_json(out.gain_product),
        }
        _emit(_render(doc), args.out)
        return 1
    doc = {
        "status": "ok",
        "factors": {str(k): ratpoly.frac_to_json(v)
                    for k, v in sorted(out.factors.items())},
    }
    _emit(_render(doc), args.out)
    return 0


def _cmd_scaling_verify(args) -> int:
    c = tiling.build_complex(_load_gram(args.gram))
    frame, out = _scaling_pieces(c)
    if isinstance(out, scaling.InconsistencyWitness):
        doc = {"status": "inconsistent", "circuit": list(out.circuit),
               "gain_product": ratpoly.frac_to_json(out.gain_product)}
        _emit(_render(doc), args.out)
        return 1
    ok, bad_orbit = scaling.verify_canonical(c, out, frame)
    doc = {"status": "canonical" if ok else "violation"}
    if not ok:
        doc["orbit"] = bad_orbit
    _emit(_render(doc), args.out)
    return 0 if ok else 1


def _cmd_scaling_coherence(args) -> int:
    gram = _load_gram(args.gram)
    if len(gram) < 4:
        raise InputError("coherence scanning needs a lattice of dimension "
                         "at least 4")
    c = tiling.build_complex(gram)
    frame = scaling.build_frame(c)
    rows = []
    all_ok = True
    for base_orbit, pref, d4 in scaling.pyramid_flanked_parallelograms(c):
        pi = tiling.dual_cell(c, pref)
        ok = scaling.test_coherence(c, pi, d4, frame)
        all_ok = all_ok and ok
        rows.append({"base_orbit": base_orbit,
                     "parallelogram_orbit": pref.orbit,
                     "coherent": ok})
    _emit(_render({"pairs": rows, "all_coherent": all_ok}), args.out)
    return 0 if all_ok else 1


def _cmd_lift(args) -> int:
    gram = _load_gram(args.gram)
    if len(gram) != 2:
        raise InputError("the lift is built for two-dimensional lattices")
    c = tiling.build_complex(gram)
    frame, out = _scaling_pieces(c)
    if isinstance(out, scaling.InconsistencyWitness):
        _emit(_render({"status": "inconsistent",
                       "circuit": list(out.circuit)}), args.out)
        return 1
    g = lifting.build_generatrissa(c, out, frame)
    q = lifting.recover_qform(g, c)
    rep = lifting.verify_lifting(g, q, c)
    doc = {
        "qform": {
            "matrix": [ratpoly.vec_to_json(row) for row in q.matrix],
            "basis": [ratpoly.vec_to_json(b) for b in q.basis],
        },
        "tangency": rep.tangency,
        "convexity": rep.convexity,
    }
    _emit(_render(doc), args.out)
    return 0 if rep.tangency and rep.convexity else 1


# ---------------------------------------------------------------------------
# Hypergraph commands.
# ---------------------------------------------------------------------------


def _cmd_hyper_enumerate_k5(args) -> int:
    schemes = hypercomb.enumerate_k5_schemes()
    doc = {
        "cases": [{"case": k + 1, "cycles": [list(cy) for cy in p.cycles]}
                  for k, p in enumerate(schemes)],
        "distinct_classes": len(hypercomb.k5_scheme_classes()),
    }
    text = _render(doc)
    ok = _golden_check(text, args.golden, "enumerate-k5.json")
    _emit(text, args.out)
    return 0 if ok else GOLDEN_MISMATCH


def _freeze(v):
    return tuple(_freeze(x) for x in v) if isinstance(v, list) else v


def _hypergraph_from_json(path: str) -> hypercomb.Hypergraph4:
    obj = _load_json(path)
    try:
        edges = [[_freeze(v) for v in e] for e in obj["edges"]]
        return hypercomb.hypergraph(edges)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"{path}: not a hypergraph document ({e})") from e


def _cmd_hyper_audit(args) -> int:
    h = _hypergraph_from_json(args.input)
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
    _emit(_render(doc), args.out)
    return 0 if ok else 1


def _cmd_hyper_find_subgraph(args) -> int:
    h = _hypergraph_from_json(args.input)
    closure = hypercomb.is_closed(h)
    if closure.empty or not closure.closed:
        raise InputError(f"{args.input}: the search needs a nonempty closed "
                         "hypergraph")
    try:
        found = hypercomb.find_5_10_or_6_11(h)
    except hypercomb.SearchFailure as e:
        _emit(_render({"status": "not_found", "reason": str(e)}),
              args.out)
        return 1
    doc = {
        "status": "found",
        "tag": found.tag,
        "edges": [_plain(e) for e in found.edges],
        "embedding": _plain(found.embedding),
    }
    _emit(_render(doc), args.out)
    return 0


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


def _cmd_cases_run_all(args) -> int:
    table = syssolve.run_all_cases()
    doc = {
        "five_ten": [_case_row_json(r) for r in table.five_ten],
        "six_eleven": [_case_row_json(r) for r in table.six_eleven],
        "all_verified": table.all_verified,
    }
    text = _render(doc)
    ok = _golden_check(text, args.golden, "cases-run-all.json")
    _emit(text, args.out)
    # Every case ends in a contradiction or an inconsistency certificate;
    # finding them is the point, and is flagged on exit.
    return 1 if ok else GOLDEN_MISMATCH


def _cmd_cases_cone_pipeline(args) -> int:
    rays = syssolve.cone_test_pipeline()
    doc = {
        "survivors": [ratpoly.vec_to_json(r) for r in rays],
        "canonical": ratpoly.vec_to_json(syssolve.SURVIVOR_DIRECTION),
        "orbit_closed": set(rays) == set(syssolve.survivor_orbit()),
    }
    text = _render(doc)
    ok = _golden_check(text, args.golden, "cone-pipeline.json")
    _emit(text, args.out)
    return 0 if ok else GOLDEN_MISMATCH


def _cmd_cases_final_case(args) -> int:
    rep = syssolve.final_case_check()
    text = _render({"contradiction": _report_json(rep)})
    ok = _golden_check(text, args.golden, "final-case.json")
    _emit(text, args.out)
    return 1 if ok else GOLDEN_MISMATCH


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the JSON report here instead of stdout")


def _add_gram(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gram", metavar="FILE", required=True,
                   help="lattice document: {\"dim\": d, \"gram\": [[...]]}")
    _add_out(p)


def _add_golden(p: argparse.ArgumentParser) -> None:
    p.add_argument("--golden", metavar="DIR", default=None,
                   help="compare the rendered report against DIR/<name>.json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tilekit",
        description="Exact-arithmetic audits for lattice tilings and the "
                    "matching case engine.")
    sub = ap.add_subparsers(dest="command", required=True)

    _add_gram(sub.add_parser("dv", help="Voronoi cell, symmetry and belt audit"))
    t = sub.add_parser("tiling", help="tiling-level audits").add_subparsers(
        dest="sub", required=True)
    _add_gram(t.add_parser("audit", help="face-to-face build plus dual-cell "
                                         "sliding-segment audit"))
    _add_gram(sub.add_parser("dual-cells", help="classify every dual cell orbit"))
    _add_gram(sub.add_parser("irreducible",
                             help="test all dual 3-cells for the two "
                                  "reducible shapes"))

    s = sub.add_parser("scaling", help="canonical facet scaling").add_subparsers(
        dest="sub", required=True)
    _add_gram(s.add_parser("build", help="propagate a scaling through the "
                                         "facet gain graph"))
    _add_gram(s.add_parser("verify", help="check the zero-sum star condition"))
    _add_gram(s.add_parser("coherence", help="compare flanking pyramid "
                                             "scalings on parallelograms"))

    _add_gram(sub.add_parser("lift", help="planar lift and its inscribed "
                                          "quadratic form"))

    h = sub.add_parser("hyper", help="4-uniform hypergraph tools").add_subparsers(
        dest="sub", required=True)
    ek = h.add_parser("enumerate-k5", help="list the cycle-cover classes")
    _add_out(ek)
    _add_golden(ek)
    ha = h.add_parser("audit", help="closure and moment identities")
    ha.add_argument("--input", metavar="FILE", required=True,
                    help="hypergraph document: {\"edges\": [[a,b,c,d], ...]}")
    _add_out(ha)
    hf = h.add_parser("find-subgraph", help="locate a minimal closed "
                                            "configuration")
    hf.add_argument("--input", metavar="FILE", required=True)
    _add_out(hf)

    cs = sub.add_parser("cases", help="matching case engine").add_subparsers(
        dest="sub", required=True)
    ra = cs.add_parser("run-all", help="work both case tables")
    _add_out(ra)
    _add_golden(ra)
    cp = cs.add_parser("cone-pipeline", help="direction tests for the "
                                             "residual family")
    _add_out(cp)
    _add_golden(cp)
    fc = cs.add_parser("final-case", help="prism argument for the surviving "
                                          "direction")
    _add_out(fc)
    _add_golden(fc)
    return ap


_HANDLERS = {
    ("dv", None): _cmd_dv,
    ("tiling", "audit"): _cmd_tiling_audit,
    ("dual-cells", None): _cmd_dual_cells,
    ("irreducible", None): _cmd_irreducible,
    ("scaling", "build"): _cmd_scaling_build,
    ("scaling", "verify"): _cmd_scaling_verify,
    ("scaling", "coherence"): _cmd_scaling_coherence,
    ("lift", None): _cmd_lift,
    ("hyper", "enumerate-k5"): _cmd_hyper_enumerate_k5,
    ("hyper", "audit"): _cmd_hyper_audit,
    ("hyper", "find-subgraph"): _cmd_hyper_find_subgraph,
    ("cases", "run-all"): _cmd_cases_run_all,
    ("cases", "cone-pipeline"): _cmd_cases_cone_pipeline,
    ("cases", "final-case"): _cmd_cases_final_case,
}


def _is_violation(e: Exception) -> bool:
    return any((cls.__module__, cls.__qualname__) in _VIOLATIONS
               for cls in type(e).__mro__)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    handler = _HANDLERS[(args.command, getattr(args, "sub", None))]
    try:
        return handler(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        if _is_violation(e):
            print(f"violation: {type(e).__name__}: {e}", file=sys.stderr)
            return 1
        import traceback

        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

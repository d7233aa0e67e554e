"""End-to-end checks for the command-line frontend."""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tilekit import (Violation, _lp, cli, hypercomb, lattice, ratpoly, scaling,
                     tiling)

from test_ratpoly import ROOT_GRAMS

A2 = {"dim": 2, "gram": [[2, 1], [1, 2]]}
Z2 = {"dim": 2, "gram": [[1, 0], [0, 1]]}
Z3 = {"dim": 3, "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
FCC = {"dim": 3, "gram": [[2, 0, 1], [0, 2, 1], [1, 1, 2]]}
ELONG4 = {"dim": 4, "gram": [[4, 0, 0, 2], [0, 4, 0, 2],
                             [0, 0, 4, 2], [2, 2, 2, 7]]}

#: Environment of a fresh interpreter that imports tilekit from these sources.
SRC_ENV = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def gram_file(tmp_path, doc, name="lat.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# Lattice-facing commands.
# ---------------------------------------------------------------------------


def test_dv_a2_is_a_hexagon(tmp_path, capsys):
    rc, out, _ = run(capsys, "dv", "--gram", gram_file(tmp_path, A2))
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["cell"]["vertices"]) == 6
    assert len(doc["cell"]["facets"]) == 6
    assert doc["venkov"]["passed"] is True
    assert doc["venkov"]["centrally_symmetric"] is True
    assert set(doc["venkov"]["belt_lengths"]) <= {4, 6}


def test_dv_out_file_and_silence(tmp_path, capsys):
    dest = tmp_path / "report.json"
    rc, out, _ = run(capsys, "dv", "--gram", gram_file(tmp_path, Z2),
                     "--out", str(dest))
    assert rc == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["venkov"]["facet_count"] == 4


def test_tiling_audit_z3(tmp_path, capsys):
    rc, out, _ = run(capsys, "tiling", "audit",
                     "--gram", gram_file(tmp_path, Z3))
    assert rc == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert doc["facet_count"] == 6
    assert doc["orbit_counts"] == {"0": 1, "1": 3, "2": 3, "3": 1}
    assert doc["skinny"]["passed"] is True


@pytest.mark.parametrize("gram", [ROOT_GRAMS["A4*"],
                                  [[3, -1, -1], [-1, 3, -1], [-1, -1, 3]]],
                         ids=["A4*", "BCC"])
def test_tiling_audit_of_a_primitive_tiling_builds_no_hull(
        tmp_path, capsys, monkeypatch, gram):
    """Every dual cell of a primitive tiling is a simplex, so the skinny
    audit builds no hull and makes no LP: the only hulls are the dual
    cells' own."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the audit of a simplex computes nothing")

    real_hull, real_cell = ratpoly.from_vertices, tiling._representative_dual_cell

    def cell_with_hull(c, q):
        with monkeypatch.context() as m:
            m.setattr(ratpoly, "from_vertices", real_hull)
            return real_cell(c, q)

    monkeypatch.setattr(ratpoly, "from_vertices", forbidden)
    monkeypatch.setattr(tiling, "_representative_dual_cell", cell_with_hull)
    monkeypatch.setattr(_lp, "maximize", forbidden)
    rc, out, _ = run(capsys, "tiling", "audit",
                     "--gram", gram_file(tmp_path, {"gram": gram}))
    assert rc == 0
    assert json.loads(out)["skinny"]["passed"] is True


def test_dual_cells_z3_reports_parallelepiped(tmp_path, capsys):
    rc, out, _ = run(capsys, "dual-cells", "--gram", gram_file(tmp_path, Z3))
    assert rc == 0
    doc = json.loads(out)
    classes = {row["orbit"]: row.get("class") for row in doc["cells"]}
    assert classes[0] == "parallelepiped"
    dims = {row["orbit"]: row["combdim"] for row in doc["cells"]}
    assert dims[0] == 3 and dims[7] == 0


def test_irreducible_verdicts(tmp_path, capsys):
    rc, out, _ = run(capsys, "irreducible", "--gram", gram_file(tmp_path, Z3))
    assert rc == 1
    doc = json.loads(out)
    assert doc["three_irreducible"] is False
    assert doc["witness"]["class"] == "parallelepiped"

    rc, out, _ = run(capsys, "irreducible", "--gram", gram_file(tmp_path, FCC))
    assert rc == 0
    assert json.loads(out) == {"three_irreducible": True}


# ---------------------------------------------------------------------------
# Scaling and lifting.
# ---------------------------------------------------------------------------


def test_scaling_build_z3_unit_factors(tmp_path, capsys):
    rc, out, _ = run(capsys, "scaling", "build",
                     "--gram", gram_file(tmp_path, Z3))
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert all(v == [1, 1] for v in doc["factors"].values())


def test_scaling_verify_fcc_canonical(tmp_path, capsys):
    rc, out, _ = run(capsys, "scaling", "verify",
                     "--gram", gram_file(tmp_path, FCC))
    assert rc == 0
    assert json.loads(out) == {"status": "canonical"}


def test_scaling_coherence_elongated(tmp_path, capsys):
    rc, out, _ = run(capsys, "scaling", "coherence",
                     "--gram", gram_file(tmp_path, ELONG4))
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_coherent"] is True
    pairs = {(r["base_orbit"], r["parallelogram_orbit"])
             for r in doc["pairs"]}
    assert pairs == {(0, 47), (1, 41), (2, 44), (5, 44), (6, 41), (7, 47)}


def _no_complex(monkeypatch):
    def refuse(gram):
        raise AssertionError("the complex was built before the refusal")

    monkeypatch.setattr(tiling, "build_complex", refuse)


def test_scaling_coherence_rejects_low_dimension(tmp_path, capsys,
                                                 monkeypatch):
    _no_complex(monkeypatch)
    rc, _, err = run(capsys, "scaling", "coherence",
                     "--gram", gram_file(tmp_path, Z3))
    assert rc == 2
    assert "dimension" in err


@pytest.mark.parametrize("argv", [("scaling", "build"),
                                  ("scaling", "verify"), ("lift",)])
def test_inconsistent_scaling_has_one_report(tmp_path, capsys, monkeypatch,
                                             argv):
    """Every command that propagates a scaling reports an inconsistent one
    the same way: its circuit and its gain product, exit 1."""
    witness = scaling.InconsistencyWitness(circuit=(2, 3, 4, 2),
                                           gain_product=Fraction(3, 2))
    monkeypatch.setattr(scaling, "propagate", lambda c, gain, seed: witness)
    rc, out, _ = run(capsys, *argv, "--gram", gram_file(tmp_path, A2))
    assert rc == 1
    assert json.loads(out) == {"status": "inconsistent",
                               "circuit": [2, 3, 4, 2],
                               "gain_product": [3, 2]}


def test_lift_a2(tmp_path, capsys):
    rc, out, _ = run(capsys, "lift", "--gram", gram_file(tmp_path, A2))
    assert rc == 0
    doc = json.loads(out)
    assert doc["tangency"] is True
    assert doc["convexity"] is True
    assert len(doc["qform"]["matrix"]) == 2


def test_lift_on_z3_is_tangent_and_convex(tmp_path, capsys):
    rc, out, _ = run(capsys, "lift", "--gram", gram_file(tmp_path, Z3))
    assert rc == 0
    doc = json.loads(out)
    assert doc["tangency"] is True and doc["convexity"] is True
    half, zero = [1, 2], [0, 1]
    assert doc["qform"]["matrix"] == [[half, zero, zero], [zero, half, zero],
                                      [zero, zero, half]]


def test_lift_refuses_a_gram_above_the_dimension_cap(tmp_path, capsys,
                                                     monkeypatch):
    _no_complex(monkeypatch)
    gram = [[int(i == j) for j in range(6)] for i in range(6)]
    rc, _, err = run(capsys, "lift", "--gram",
                     gram_file(tmp_path, {"gram": gram}))
    assert rc == 2
    assert "exceeds the cap of 5" in err


def test_stars_are_computed_on_demand_and_once(tmp_path, capsys, monkeypatch):
    """No star is computed by build_complex or by the commands that read
    none, and each representative star at most once per complex however
    often the scaling commands ask for it."""
    computed, asked = [], []
    real_star, real_rep = tiling.star, tiling._representative_star

    def counted_star(c, f):
        asked.append(f)
        return real_star(c, f)

    def counted_rep(c, q):
        computed.append((id(c), q))
        return real_rep(c, q)

    monkeypatch.setattr(tiling, "star", counted_star)
    monkeypatch.setattr(tiling, "_representative_star", counted_rep)
    tiling.build_complex(ROOT_GRAMS["D4"])
    d4 = gram_file(tmp_path, {"gram": ROOT_GRAMS["D4"]})
    for argv in (("tiling", "audit"), ("dual-cells",), ("irreducible",)):
        rc, _, _ = run(capsys, *argv, "--gram", d4)
        assert rc == 0, argv
    assert computed == [] and asked == []
    a4 = {"gram": ROOT_GRAMS["A4"]}
    for argv, doc in ((("scaling", "verify"), a4),
                      (("scaling", "coherence"), ELONG4)):
        computed.clear()
        asked.clear()
        rc, _, _ = run(capsys, *argv, "--gram", gram_file(tmp_path, doc))
        assert rc == 0, argv
        assert computed and len(set(computed)) == len(computed), argv
        assert len(asked) > len(computed), argv


# ---------------------------------------------------------------------------
# Hypergraph commands.
# ---------------------------------------------------------------------------


def test_enumerate_k5(capsys):
    rc, out, _ = run(capsys, "hyper", "enumerate-k5")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["cases"]) == 8
    assert [c["case"] for c in doc["cases"]] == list(range(1, 9))
    assert doc["distinct_classes"] == 7


def hyper_file(tmp_path, h):
    p = tmp_path / "hyper.json"
    p.write_text(json.dumps({"edges": [sorted(e) for e in h.edges]}))
    return str(p)


def test_hyper_audit_five_ten(tmp_path, capsys):
    rc, out, _ = run(capsys, "hyper", "audit",
                     "--input", hyper_file(tmp_path, hypercomb.five_ten()))
    assert rc == 0
    doc = json.loads(out)
    assert doc["closed"] is True
    assert doc["edges"] == 5 and doc["vertices"] == 10
    assert doc["moments"]["ok"] is True


def test_hyper_audit_flags_open_graph(tmp_path, capsys):
    p = tmp_path / "open.json"
    p.write_text(json.dumps({"edges": [[1, 2, 3, 4], [1, 2, 5, 6]]}))
    rc, out, _ = run(capsys, "hyper", "audit", "--input", str(p))
    assert rc == 1
    doc = json.loads(out)
    assert doc["closed"] is False
    assert doc["witness"][0] == "intersection"


def test_hyper_find_subgraph(tmp_path, capsys):
    rc, out, _ = run(capsys, "hyper", "find-subgraph",
                     "--input", hyper_file(tmp_path, hypercomb.six_eleven()))
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert doc["tag"] == "six_eleven"
    assert len(doc["edges"]) == 6


# ---------------------------------------------------------------------------
# Case engine.
# ---------------------------------------------------------------------------


def test_cases_run_all_report(tmp_path, capsys):
    dest = tmp_path / "report.json"
    rc, out, _ = run(capsys, "cases", "run-all", "--out", str(dest))
    assert rc == 1  # contradictions found, as documented
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["all_verified"] is True
    assert len(doc["five_ten"]) == 8
    assert len(doc["six_eleven"]) == 19
    assert doc["five_ten"][0]["documented"] == ["no_solution"]
    assert "no_solution" in doc["five_ten"][0]
    assert doc["five_ten"][3]["documented"] == ["coincidence", "v34", "v15"]
    assert doc["five_ten"][3]["detected"]["kind"] == "coincidence"
    assert doc["six_eleven"][7] == {
        "family": "6-11", "case": 8, "documented": ["reduces", 6],
        "verified": True, "reduces_to": 6}
    # The supplementary matching beyond the documented table.
    assert doc["six_eleven"][18]["case"] is None


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after importing
    tilekit.cli."""
    code = f"import sys, tilekit.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_import_leaves_dataclasses_unloaded():
    # Records are NamedTuples.  dataclasses would pull in inspect, ast and
    # dis, and exec generated methods for every record class, in each
    # process the CLI starts.
    assert not _loaded_by_cli_import("dataclasses")


def _executed_by_job(tmp_path, *argv) -> list[str]:
    """The tilekit modules whose code has run in a fresh interpreter after
    ``import tilekit.cli`` and, given ``argv``, one job.  A lazily imported
    module is in sys.modules before it runs, and it turns into a plain
    module when it does, so membership alone does not tell."""
    code = ("import sys, types, tilekit.cli\n"
            "if sys.argv[1:]:\n"
            "    tilekit.cli.main(sys.argv[1:])\n"
            "print(*sorted(n for n, m in sys.modules.items()\n"
            "              if n.split('.')[0] == 'tilekit'\n"
            "              and type(m) is types.ModuleType))")
    if argv:
        argv = (*argv, "--out", str(tmp_path / "report.json"))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=SRC_ENV,
                         check=True, capture_output=True, text=True).stdout
    return out.split()


def test_each_job_executes_only_the_modules_it_uses(tmp_path):
    assert _executed_by_job(tmp_path) == ["tilekit", "tilekit.cli"]
    gram = gram_file(tmp_path, A2)
    assert _executed_by_job(tmp_path, "dv", "--gram", gram) \
        == ["tilekit", "tilekit._lp", "tilekit.cli", "tilekit.lattice",
            "tilekit.ratpoly"]
    assert _executed_by_job(tmp_path, "hyper", "enumerate-k5") \
        == ["tilekit", "tilekit.cli", "tilekit.hypercomb"]
    # The direction tests use no matching, so they do not run hypercomb.
    for cmd in ("cone-pipeline", "final-case"):
        assert _executed_by_job(tmp_path, "cases", cmd) \
            == ["tilekit", "tilekit._lp", "tilekit.cli", "tilekit.ratpoly",
                "tilekit.syssolve"]
    assert _executed_by_job(tmp_path, "cases", "run-all") \
        == ["tilekit", "tilekit._lp", "tilekit.cli", "tilekit.hypercomb",
            "tilekit.ratpoly", "tilekit.syssolve"]


@pytest.mark.parametrize("e", [1000, 10**40])
def test_skewed_square_lattice_finishes(tmp_path, e):
    """Z^2 in the basis (1, e), (0, 1): dv finds the facet vectors +/-(0, 1)
    and +/-(1, -e), and tiling audit passes, in one process each.  Before
    the search ran in a reduced basis, e = 1000 did not finish in 300 s; the
    timeout turns a hang into a failure."""
    gram = [[e * e + 1, e], [e, 1]]
    path = gram_file(tmp_path, {"gram": gram})

    def tilekit(*argv):
        done = subprocess.run([sys.executable, "-m", "tilekit.cli", *argv,
                               "--gram", path], env=SRC_ENV,
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    facets = [([ratpoly.frac_from_json(x) for x in f["normal"]],
               ratpoly.frac_from_json(f["offset"]))
              for f in tilekit("dv")["cell"]["facets"]]
    found = set()
    for n, b in facets:
        # {x : n.x = b} is the bisector of 0 and v: n is a positive multiple
        # of G v, and v / 2 lies on it.
        (v,) = [v for v in ((0, 1), (0, -1), (1, -e), (-1, e))
                if n[0] * (gram[1][0] * v[0] + gram[1][1] * v[1])
                == n[1] * (gram[0][0] * v[0] + gram[0][1] * v[1])
                and n[0] * v[0] + n[1] * v[1] == 2 * b > 0]
        found.add(v)
    assert len(facets) == len(found) == 4
    audit = tilekit("tiling", "audit")
    assert audit["facet_count"] == 4
    assert audit["skinny"]["passed"] is True


#: The benchmark's stored sha256 of each fixed-input report, read only.
DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench"
                      / "digests.json").read_text())


@pytest.mark.parametrize("digest", ["hyper:enumerate-k5", "cases:run-all",
                                    "cases:cone-pipeline", "cases:final-case"])
def test_case_engine_reports_match_the_stored_digests(capsys, digest):
    _, out, _ = run(capsys, *digest.split(":"))
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[digest]


@pytest.mark.parametrize("jobs", ["2", "0"])
def test_cases_run_all_ignores_tilekit_jobs(jobs):
    # The case table runs in one process: the variable that once sized a
    # worker pool changes neither the report nor the exit code, and no
    # process is started.
    code = ("import sys, tilekit.cli\n"
            "rc = tilekit.cli.main(['cases', 'run-all'])\n"
            "print('multiprocessing' in sys.modules, file=sys.stderr)\n"
            "sys.exit(rc)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**SRC_ENV, "TILEKIT_JOBS": jobs},
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert (hashlib.sha256(done.stdout.encode()).hexdigest()
            == DIGESTS["cases:run-all"])
    assert done.stderr.strip() == "False"


@pytest.mark.parametrize("name, gram", [
    ("Z2", [[1, 0], [0, 1]]), ("A2", [[2, 1], [1, 2]]),
    ("SHEARED", [[4, 1], [1, 4]])])
def test_lift_reports_match_the_stored_digests(tmp_path, capsys, name, gram):
    """The lift reads its form off the first two independent neighbor
    steps, and its reports stay byte for byte the same."""
    rc, out, _ = run(capsys, "lift", "--gram", gram_file(tmp_path, {"gram": gram}))
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[f"lift:{name}"]


def _bench_module(name: str):
    """``bench/<name>.py``, loaded by path and read only."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


#: The benchmark's reduced Gram literals, read only.
BENCH_GRAMS = _bench_module("inputs").GRAMS


#: Subcommand of each Gram job in the stored digests, by digest prefix.
GRAM_COMMANDS = {
    "dv": ("dv",),
    "tiling-audit": ("tiling", "audit"),
    "dual-cells": ("dual-cells",),
    "irreducible": ("irreducible",),
    "scaling-verify": ("scaling", "verify"),
    "scaling-coherence": ("scaling", "coherence"),
}


@pytest.mark.parametrize("digest", sorted(
    k for k in DIGESTS if k.split(":")[0] in GRAM_COMMANDS))
def test_gram_reports_match_the_stored_digests(tmp_path, capsys, digest):
    """Every fixed-input Gram job of the benchmark, in-process: its report
    must be byte for byte the one whose sha256 is stored."""
    cmd, name = digest.split(":")
    path = gram_file(tmp_path, {"gram": BENCH_GRAMS[name]})
    rc, out, err = run(capsys, *GRAM_COMMANDS[cmd], "--gram", path)
    # A triangular-prism dual cell makes HEXPRISM reducible.
    assert rc == (1 if digest == "irreducible:HEXPRISM" else 0), err
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[digest]


def test_cli_import_registers_every_traced_module(tmp_path):
    """The benchmark's tracer imports tilekit.cli and then patches every
    module of its TRACED table from sys.modules; lazily imported modules
    must already be there, and a traced job must print what an untraced
    one does."""
    tracer = _bench_module("tracer")
    names = [f"tilekit.{m}" for m in tracer.TRACED]
    code = ("import sys, tilekit.cli\n"
            f"print([n for n in {names!r} if n not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

    for job, argv, code, names in (
            ("dv:A2", ("dv", "--gram", gram_file(tmp_path, A2)), 0,
             {"lattice.relevant_vectors"}),
            ("cases:cone-pipeline", ("cases", "cone-pipeline"), 0,
             {"syssolve.cone_test_pipeline", "_lp.strictly_feasible"})):
        spans = tmp_path / f"spans-{job.split(':')[0]}.jsonl"
        traced = subprocess.run([sys.executable, tracer.__file__, str(spans),
                                 job, "--", *argv], env=SRC_ENV,
                                capture_output=True)
        plain = subprocess.run([sys.executable, "-m", "tilekit.cli", *argv],
                               env=SRC_ENV, capture_output=True)
        assert traced.returncode == plain.returncode == code, traced.stderr
        assert traced.stdout == plain.stdout
        spanned = {json.loads(line)[0]
                   for line in spans.read_text().splitlines() if line}
        assert names <= spanned, job


#: Exception classes that are not found violations: a refused input (exit 2)
#: and a fault in tilekit (exit 70).
NOT_VIOLATIONS = {"tilekit.cli.InputError", "tilekit.ratpoly._Lineality"}


def _classes(body, prefix, owner):
    """(qualified name, class) of every class defined in ``body`` or in a
    class body nested in it."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            cls = getattr(owner, node.name)
            yield f"{prefix}.{node.name}", cls
            yield from _classes(node.body, f"{prefix}.{node.name}", cls)


def test_every_exception_class_is_a_violation():
    """main reports a raised tilekit.Violation as a found violation (1), by
    type; an exception class outside that hierarchy would turn a found
    violation into an internal error (70)."""
    exceptions = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        name = "tilekit" if path.stem == "__init__" else f"tilekit.{path.stem}"
        tree = ast.parse(path.read_text(), filename=str(path))
        module = importlib.import_module(name)
        exceptions.update((qual, cls) for qual, cls
                          in _classes(tree.body, name, module)
                          if issubclass(cls, BaseException))
    assert NOT_VIOLATIONS <= exceptions.keys()
    for qual, cls in exceptions.items():
        assert issubclass(cls, Violation) == (qual not in NOT_VIOLATIONS), qual


def test_subclass_of_a_violation_is_a_violation(tmp_path, capsys,
                                                monkeypatch):
    """EmptyInput subclasses GeometryError, so it exits 1 as well."""
    def empty(path):
        raise ratpoly.EmptyInput("no points")

    monkeypatch.setattr(cli, "COMMANDS", tuple(
        c._replace(handler=empty) if c.words == ("dv",) else c
        for c in cli.COMMANDS))
    rc, out, err = run(capsys, "dv", "--gram", gram_file(tmp_path, A2))
    assert rc == 1
    assert out == ""
    assert err.startswith("violation: EmptyInput")


def test_readme_usage_lists_the_command_table():
    """README.md's usage block names every command of the table with its
    options, in table order; one line may join sibling commands with |."""
    readme = Path(cli.__file__).resolve().parents[2] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    listed = []
    for line in block.split("\n"):
        if not line:
            continue
        first, *tokens = line.split()
        assert first == "tilekit", line
        n = next(i for i, t in enumerate(tokens) if t.startswith(("--", "[")))
        *group, last = tokens[:n]
        options = [t.lstrip("[") for t in tokens[n:]
                   if t.lstrip("[").startswith("--")]
        listed += [((*group, name), options) for name in last.split("|")]
    table = [(c.words, [o for o in (c.input, "--out", c.golden and "--golden")
                        if o]) for c in cli.COMMANDS]
    assert listed == table


def test_lift_on_a_skewed_square_lattice(tmp_path, capsys):
    """Z^2 in the basis (1, 1000), (0, 1).  Its basis vector (1, 0) is about
    a thousand tiles from the base tile; the lift reads its gradient map off
    neighbor steps alone, so the command exits 0 quickly with the square
    form.  Before, a tile search in the given basis gave up after 20 000
    tiles and reported a violation."""
    path = gram_file(tmp_path, {"gram": [[1000001, 1000], [1000, 1]]})
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "lift", "--gram", path)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["tangency"] is True and doc["convexity"] is True
    half, zero = [1, 2], [0, 1]
    assert doc["qform"]["matrix"] == [[half, zero], [zero, half]]


def test_plain_refuses_unknown_types():
    with pytest.raises(TypeError, match="object"):
        cli._plain(object())
    with pytest.raises(TypeError, match="complex"):
        cli._plain({"a": [1, (2, 1j)]})
    with pytest.raises(TypeError, match="FanType"):
        cli._plain([tiling.FAN_A])


def test_cone_pipeline_report(tmp_path, capsys):
    dest = tmp_path / "cone.json"
    rc, out, _ = run(capsys, "cases", "cone-pipeline", "--out", str(dest))
    assert rc == 0
    doc = json.loads(dest.read_text())
    assert len(doc["survivors"]) == 10
    assert doc["canonical"] == [[-1, 1], [-1, 1], [-1, 1], [1, 1], [1, 1]]
    assert doc["canonical"] in doc["survivors"]
    assert doc["orbit_closed"] is True


def test_final_case_report(capsys):
    rc, out, _ = run(capsys, "cases", "final-case")
    assert rc == 1
    doc = json.loads(out)
    assert doc["contradiction"]["kind"] == "vertex-count"
    assert doc["contradiction"]["certificate"][:2] == [8, 10]


# ---------------------------------------------------------------------------
# Golden files, determinism, error handling.
# ---------------------------------------------------------------------------


def test_golden_roundtrip(tmp_path, capsys):
    golden = tmp_path / "golden"
    golden.mkdir()
    rc, out, _ = run(capsys, "hyper", "enumerate-k5")
    (golden / "enumerate-k5.json").write_text(out)

    rc, _, err = run(capsys, "hyper", "enumerate-k5", "--golden", str(golden))
    assert rc == 0 and "mismatch" not in err

    (golden / "enumerate-k5.json").write_text("{}\n")
    rc, _, err = run(capsys, "hyper", "enumerate-k5", "--golden", str(golden))
    assert rc == cli.GOLDEN_MISMATCH == 3 and "mismatch" in err


@pytest.mark.parametrize("sub, name", [("run-all", "cases-run-all.json"),
                                       ("final-case", "final-case.json")])
def test_case_engine_golden_mismatch_has_own_exit_code(tmp_path, capsys,
                                                       sub, name):
    # These commands exit 1 on success, so a mismatch needs its own code.
    rc, out, _ = run(capsys, "cases", sub)
    assert rc == 1
    (tmp_path / name).write_text(out)
    rc, again, err = run(capsys, "cases", sub, "--golden", str(tmp_path))
    assert rc == 1 and again == out and "mismatch" not in err

    (tmp_path / name).write_text("{}\n")
    rc, again, err = run(capsys, "cases", sub, "--golden", str(tmp_path))
    assert rc == 3 and again == out and "mismatch" in err


def test_golden_missing_file_is_input_error(tmp_path, capsys):
    rc, _, err = run(capsys, "hyper", "enumerate-k5",
                     "--golden", str(tmp_path))
    assert rc == 2
    assert "enumerate-k5.json" in err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, where):
    """The fault is in the argument, so the command exits 2, not 70."""
    out = tmp_path / "nonexistent" / "x.json" if where == "missing-directory" \
        else tmp_path
    rc, stdout, err = run(capsys, "dv", "--gram", gram_file(tmp_path, A2),
                          "--out", str(out))
    assert rc == 2
    assert stdout == ""
    assert err.startswith(f"error: {out}: ") and "Traceback" not in err


def test_output_is_deterministic(tmp_path, capsys):
    path = gram_file(tmp_path, FCC)
    first = run(capsys, "dv", "--gram", path)
    second = run(capsys, "dv", "--gram", path)
    assert first == second


def test_malformed_json_reports_location(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"dim": 2, "gram": [[2,-1],')
    rc, _, err = run(capsys, "dv", "--gram", str(p))
    assert rc == 2
    assert "broken.json:1:28" in err


def test_missing_file_is_input_error(tmp_path, capsys):
    rc, _, err = run(capsys, "dv", "--gram", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "nope.json" in err


def test_dimension_cap(tmp_path, capsys):
    doc = {"dim": 6, "gram": [[1 if i == j else 0 for j in range(6)]
                              for i in range(6)]}
    rc, _, err = run(capsys, "dv", "--gram", gram_file(tmp_path, doc))
    assert rc == 2
    assert "cap" in err


def test_not_a_lattice_document(tmp_path, capsys):
    p = tmp_path / "odd.json"
    p.write_text('{"rows": 3}')
    rc, _, err = run(capsys, "dv", "--gram", str(p))
    assert rc == 2
    assert "not a lattice document" in err


def test_invalid_inputs_exit_two(tmp_path, capsys):
    """Every refusal comes from the loading layer or a command's own
    argument checks, as an input error: exit 2, never 70."""
    grams = {
        "not positive definite": {"gram": [[1, 2], [2, 1]]},
        "not symmetric": {"gram": [[2, 0], [1, 2]]},
        "not square": {"gram": [[1, 0], [0]]},
        "empty": {"gram": []},
        "zero denominator": {"gram": [[[1, 0]]]},
        # Refused, not truncated: 2.5 would read as A2's 2, true as 1.
        "float": {"gram": [[2.5, 1], [1, 2]]},
        "bool": {"gram": [[True, 0], [0, True]]},
        "float in a pair": {"gram": [[[5, 2.0], 0], [0, 2]]},
    }
    for why, doc in grams.items():
        rc, _, err = run(capsys, "dv", "--gram", gram_file(tmp_path, doc))
        assert rc == 2 and err.startswith("error:"), why
    rc, _, err = run(capsys, "irreducible",
                     "--gram", gram_file(tmp_path, {"gram": [[2, 1], [1, 2]]}))
    assert rc == 2 and "dimension" in err
    p = tmp_path / "open.json"
    p.write_text(json.dumps({"edges": [[1, 2, 3, 4], [1, 2, 5, 6]]}))
    rc, _, err = run(capsys, "hyper", "find-subgraph", "--input", str(p))
    assert rc == 2 and "closed" in err


def test_integer_string_and_big_gram_entries_load(tmp_path, capsys):
    """Strings, pairs and integers beyond 64 bits load as their values."""
    big = 10**30
    want = run(capsys, "dv", "--gram", gram_file(tmp_path, A2))
    assert want[0] == 0
    for doc in ({"gram": [["2", [1, 1]], [[2, 2], "2"]]},
                {"gram": [[[str(2 * big), str(big)], 1], [1, [2 * big, big]]]}):
        assert run(capsys, "dv", "--gram", gram_file(tmp_path, doc)) == want


def test_internal_fault_exits_seventy(tmp_path, capsys, monkeypatch):
    """A fault inside a kernel is not an input error (2) and not a found
    violation (1)."""
    path = gram_file(tmp_path, A2)
    for fault in (ValueError("bad pivot"), ZeroDivisionError("division by zero")):
        def broken(rows, dim, fault=fault):
            raise fault

        monkeypatch.setattr(ratpoly, "_extreme_rays", broken)
        rc, out, err = run(capsys, "dv", "--gram", path)
        assert rc == cli.INTERNAL_ERROR == 70
        assert out == ""
        assert err.startswith("internal error:") and type(fault).__name__ in err


def test_broken_voronoi_cell_is_an_internal_fault(tmp_path, capsys, monkeypatch):
    """Relevant vectors that do not cut out the Voronoi cell facet by facet
    are a fault in tilekit, not an input error or a found violation."""
    path = gram_file(tmp_path, Z2)
    real = lattice.relevant_vectors
    # Without (1, 0) the cell is unbounded; (2, 0) adds a redundant row.
    for broken in (lambda g: tuple(v for v in real(g) if v != (1, 0)),
                   lambda g: real(g) + ((2, 0),)):
        monkeypatch.setattr(lattice, "relevant_vectors", broken)
        rc, out, err = run(capsys, "dv", "--gram", path)
        assert rc == cli.INTERNAL_ERROR == 70
        assert out == ""
        assert err.startswith("internal error:")


def test_failed_venkov_audit_is_a_violation(tmp_path, capsys, monkeypatch):
    """A Voronoi cell that fails the symmetry-and-belts audit stops
    build_complex with VenkovFailure, which the CLI reports as a found
    violation (1)."""
    failed = lattice.VenkovReport(facet_count=6, centrally_symmetric=True,
                                  facets_centrally_symmetric=True,
                                  belt_lengths=(4, 4, 8), passed=False)
    monkeypatch.setattr(lattice, "venkov_check_cell", lambda cell: failed)
    with pytest.raises(tiling.VenkovFailure):
        tiling.build_complex(Z3["gram"])
    rc, out, err = run(capsys, "tiling", "audit",
                       "--gram", gram_file(tmp_path, Z3))
    assert rc == 1
    assert out == ""
    assert err.startswith("violation: VenkovFailure")


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "scaling")[0] == 2
    assert run(capsys, "dv")[0] == 2  # --gram is required


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "cases", "--help")[0] == 0

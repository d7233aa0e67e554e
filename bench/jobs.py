"""The benchmark's jobs, one `tilekit` CLI invocation each, and their checks.

A job passes when its exit code is the one README.md documents for it,
its report matches the stored sha256 (fixed inputs only), and its report
agrees with facts that do not come from tilekit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: The survivors of the cone pipeline: the cyclic shifts of (-1,-1,-1,1,1)
#: and their negatives, ten rays in all.
_BASE_RAY = (-1, -1, -1, 1, 1)
SURVIVOR_ORBIT = frozenset(
    tuple(s * _BASE_RAY[(i + k) % 5] for i in range(5))
    for k in range(5) for s in (1, -1))

Check = Callable[[dict, dict], list]


@dataclass(frozen=True)
class Job:
    """One CLI invocation with everything needed to judge its report.

    ``check`` gets the parsed report and the latest stdout of every job
    run so far (by id) and returns a list of problems.  ``digest`` names
    the stored sha256 the report must match; seeded inputs have none.
    ``same_as`` names a job whose latest stdout this one must equal byte
    for byte.
    """

    id: str
    args: tuple[str, ...]
    expect_rc: int
    why: str
    digest: str | None = None
    env: dict = field(default_factory=dict)
    check: Check | None = None
    same_as: str | None = None


def _rat(pair) -> int:
    num, den = pair
    if den != 1:
        raise ValueError(f"non-integral entry {pair}")
    return int(num)


def _cell_shape(report: dict) -> tuple:
    v = report["venkov"]
    return (v["facet_count"], len(report["cell"]["vertices"]),
            sorted(v["belt_lengths"]))


def _check_dv(name: str) -> Check:
    def check(report, _seen):
        errs = []
        v = report["venkov"]
        want = inputs.FACETS.get(name)
        if want is not None and (v["facet_count"], len(report["cell"]["facets"])) != (want, want):
            errs.append(f"facet count {v['facet_count']}, expected {want}")
        if not v["passed"]:
            errs.append("Venkov audit did not pass")
        return errs
    return check


def _check_skewed(base: str, gram) -> Check:
    def check(report, seen):
        errs = []
        if [[_rat(x) for x in row] for row in report["lattice"]["gram"]] != gram:
            errs.append("report echoes a different Gram")
        ref = seen.get(f"dv:{base}")
        if ref is None:
            return errs + [f"no dv:{base} report to compare with"]
        got, want = _cell_shape(report), _cell_shape(json.loads(ref))
        if got != want:
            errs.append(f"(facets, vertices, belts) {got} differ from the "
                        f"reduced basis {want}")
        return errs
    return check


def _check_facets(name: str) -> Check:
    def check(report, _seen):
        want = inputs.FACETS[name]
        if report["facet_count"] != want:
            return [f"facet count {report['facet_count']}, expected {want}"]
        return []
    return check


def _check_survivors(report, _seen):
    rays = [tuple(_rat(x) for x in r) for r in report["survivors"]]
    if len(rays) != len(SURVIVOR_ORBIT) or set(rays) != SURVIVOR_ORBIT:
        return [f"survivors {rays} are not the orbit of {_BASE_RAY}"]
    return []


def _check_run_all(report, _seen):
    return [] if report["all_verified"] is True else ["all_verified is not true"]


def _check_final(report, _seen):
    return [] if report["contradiction"] else ["no contradiction reported"]


def _check_k5(report, _seen):
    if (len(report["cases"]), report["distinct_classes"]) != (8, 7):
        return ["expected 8 cycle-cover cases in 7 classes"]
    return []


def _check_audit(edges, closed: bool) -> Check:
    nverts = len({repr(v) for e in edges for v in e})

    def check(report, _seen):
        errs = []
        if (report["edges"], report["vertices"]) != (len(edges), nverts):
            errs.append("edge or vertex count differs from the input")
        if report["closed"] is not closed:
            errs.append(f"closed is {report['closed']}, expected {closed}")
        if closed and not report["moments"]["ok"]:
            errs.append("moment identities do not hold")
        return errs
    return check


def _check_found(edges, tag: str) -> Check:
    want = sorted(sorted(map(repr, e)) for e in edges)

    def check(report, _seen):
        errs = []
        if report["status"] != "found" or report["tag"] != tag:
            errs.append(f"expected a {tag} configuration, got {report.get('tag')}")
        # The input is already minimal, so the whole input must come back.
        found = sorted(sorted(map(repr, e)) for e in report["edges"])
        if found != want:
            errs.append("found edges differ from the input")
        return errs
    return check


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _gram_file(workdir: Path, name: str) -> str:
    return _write(workdir, f"gram-{name}", {"gram": inputs.GRAMS[name]})


# Reduced Grams listed first, so that skewed-basis checks find the report
# of the same lattice in its reduced basis.
_VORONOI_GRAMS = ("Z2", "A2", "SHEARED", "Z3", "FCC", "BCC", "HEXPRISM",
                  "ELONG4", "A4", "D4", "A4S", "A5")

# (command, reduced Grams, exit codes other than 0 by Gram).  One pass covers
# every tiling-level kernel in 10-17 s on the reference machine, so a 30 s
# run sees most jobs twice.  The costliest jobs come first, so that they
# still fit when the run cycles through the list again.  4-D Grams appear
# where a kernel needs them; A4* is left out, as its complex alone takes
# 7-9 s per job.
_TILING_MATRIX = (
    # ELONG4 is the Gram with pyramid-flanked parallelograms to test.
    (("scaling", "coherence"), ("ELONG4",), {}),
    (("dual-cells",), ("D4", "FCC", "HEXPRISM"), {}),
    (("scaling", "verify"), ("A4", "BCC"), {}),
    (("tiling", "audit"), ("BCC", "FCC", "HEXPRISM"), {}),
    # A triangular-prism dual cell makes HEXPRISM reducible.
    (("irreducible",), ("FCC", "HEXPRISM"), {"HEXPRISM": 1}),
    (("lift",), ("Z2", "A2", "SHEARED"), {}),
)


def voronoi_jobs(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for name in _VORONOI_GRAMS:
        jobs.append(Job(f"dv:{name}", ("dv", "--gram", _gram_file(workdir, name)), 0,
                        f"reduced Gram {name}: relevant vectors, then the H-to-V "
                        f"hull of the Voronoi cell",
                        digest=f"dv:{name}", check=_check_dv(name)))
    for base in inputs.SKEW_BASES:
        gram, why = inputs.skewed_gram(base, seed)
        path = _write(workdir, f"skew-{base}", {"gram": gram})
        jobs.append(Job(f"dv:skew-{base}", ("dv", "--gram", path), 0, why,
                        check=_check_skewed(base, gram)))
    return jobs


def tiling_jobs(seed: int, workdir: Path) -> list[Job]:
    del seed  # every tiling input is fixed
    jobs = []
    for cmd, names, rcs in _TILING_MATRIX:
        for name in names:
            jid = f"{'-'.join(cmd)}:{name}"
            check = _check_facets(name) if cmd == ("tiling", "audit") else None
            jobs.append(Job(jid, (*cmd, "--gram", _gram_file(workdir, name)),
                            rcs.get(name, 0), f"{' '.join(cmd)} on reduced {name}",
                            digest=jid, check=check))
    return jobs


def cases_jobs(seed: int, workdir: Path) -> list[Job]:
    jobs = [
        Job("cases:cone-pipeline", ("cases", "cone-pipeline"), 0,
            "the exact LPs of the direction-cone pipeline (826 when first measured)",
            digest="cases:cone-pipeline", check=_check_survivors),
        Job("cases:run-all", ("cases", "run-all"), 1,
            "both case tables, serial; exit 1 is the documented outcome",
            digest="cases:run-all", check=_check_run_all),
        Job("cases:run-all-jobs2", ("cases", "run-all"), 1,
            "both case tables over two worker processes; must equal the serial bytes",
            digest="cases:run-all", env={"TILEKIT_JOBS": "2"}, check=_check_run_all,
            same_as="cases:run-all"),
        Job("cases:final-case", ("cases", "final-case"), 1,
            "the prism argument; exit 1 is the documented outcome",
            digest="cases:final-case", check=_check_final),
        Job("hyper:enumerate-k5", ("hyper", "enumerate-k5"), 0,
            "cycle-cover classes on K5", digest="hyper:enumerate-k5", check=_check_k5),
    ]
    for name, edges, why in inputs.hypergraphs(seed):
        path = _write(workdir, f"hyper-{name}", {"edges": edges})
        closed = name != "union"
        jobs.append(Job(f"hyper-audit:{name}", ("hyper", "audit", "--input", path),
                        0 if closed else 1, why, check=_check_audit(edges, closed)))
        if closed:
            jobs.append(Job(f"hyper-find:{name}", ("hyper", "find-subgraph", "--input", path),
                            0, why, check=_check_found(edges, name)))
    return jobs


WORKLOADS = {"voronoi": voronoi_jobs, "tiling": tiling_jobs, "cases": cases_jobs}


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def judge(job: Job, rc: int, stdout: bytes, seen: dict, digests: dict | None) -> list:
    """Problems with one job's result; empty when the job passed.

    ``digests`` is None only while the digests themselves are recorded.
    """
    errs = []
    if rc != job.expect_rc:
        errs.append(f"exit code {rc}, expected {job.expect_rc}")
    if job.digest is not None and digests is not None:
        want = digests.get(job.digest)
        if want is None:
            errs.append(f"no stored digest for {job.digest}")
        elif hashlib.sha256(stdout).hexdigest() != want:
            errs.append("report differs from the stored digest")
    if job.same_as is not None:
        ref = seen.get(job.same_as)
        if ref is None:
            errs.append(f"no {job.same_as} report to compare with")
        elif ref != stdout:
            errs.append(f"report differs from the {job.same_as} report")
    try:
        report = json.loads(stdout)
    except ValueError as e:
        return errs + [f"report is not JSON: {e}"]
    if job.check is not None:
        try:
            errs += job.check(report, seen)
        except (KeyError, TypeError, ValueError) as e:
            errs.append(f"report lacks an expected field: {e!r}")
    return errs

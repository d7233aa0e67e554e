"""Outside-in tracer: run one `tilekit` CLI job with spans around its kernels.

    PYTHONPATH=src python bench/tracer.py SPANS_FILE JOB_ID -- ARGS...

runs ``tilekit.cli.main(ARGS)`` after wrapping the functions in TRACED,
both in their defining module and at every module that bound them with
``from ... import``.  Nothing under src/ changes.  Spans are kept in
memory and written to SPANS_FILE as JSON lines when the job ends; worker
processes forked by the job append theirs to SPANS_FILE.<pid> each time
their outermost traced call returns, since pool workers are killed
rather than shut down.  The job's stdout and exit code are untouched.

``summarize`` turns span files into per-function calls, inclusive and
self time, and the counters the hooks below record.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Functions wrapped, by tilekit module.
TRACED = {
    "lattice": ("relevant_vectors", "venkov_check_cell"),
    "ratpoly": ("_extreme_rays", "from_halfspaces", "from_vertices",
                "face_lattice", "is_skinny"),
    "_lp": ("maximize", "strictly_feasible"),
    "tiling": ("build_complex", "dual_cell", "skinny_audit", "is_3_irreducible"),
    "scaling": ("build_frame", "propagate", "verify_canonical", "test_coherence"),
    "lifting": ("build_generatrissa", "verify_lifting"),
    "hypercomb": ("enumerate_6_11_matchings", "find_5_10_or_6_11", "moment_audit"),
    "syssolve": ("cone_test_pipeline", "run_all_cases", "final_case_check"),
    "cli": ("main",),
}

#: Span around the worker pool of `TILEKIT_JOBS`, so that waiting for the
#: workers is not counted as self time of cli.main.
POOL_SPAN = "cli.pool_map"


def _note_maximize(out, c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    # The tableau maximize builds: a row per constraint; columns for the
    # split free variables, one slack per <= row and one artificial per row.
    rows = len(a_ub) + len(a_eq)
    return {"tableau_cells": rows * (2 * len(c) + len(a_ub) + rows),
            "infeasible": int(out.status == "infeasible")}


def _note_strictly_feasible(out, *_args, **_kwargs):
    return {"found": int(out is not None)}


def _note_extreme_rays(out, rows, *_args, **_kwargs):
    return {"rows_in": len(rows), "rays_out": len(out)}


NOTES = {
    "_lp.maximize": _note_maximize,
    "_lp.strictly_feasible": _note_strictly_feasible,
    "ratpoly._extreme_rays": _note_extreme_rays,
}


class Tracer:
    """Spans of one process: [name, start_ns, end_ns, parent index, counters,
    job id]."""

    def __init__(self, path: str, job: str):
        self.path = path
        self.job = job
        self.root_pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.spans, self.stack = [], []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, self.stack[-1] if self.stack else None, None, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self.stack.pop()
            if note is not None:
                rec[4] = note(out, *args, **kwargs)
            if not self.stack and os.getpid() != self.root_pid:
                self.write(f"{self.path}.{os.getpid()}")
            return out
        return traced

    def write(self, path: str) -> None:
        with open(path, "a") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")
            f.write("\n")  # a blank line ends one batch of parent indices
        self.spans = []


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever a tilekit module binds it."""
    import multiprocessing.pool

    import tilekit.cli  # noqa: F401  (imports every tilekit module)

    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "tilekit" or n.startswith("tilekit."))]
    for mod_name, fns in TRACED.items():
        home = sys.modules[f"tilekit.{mod_name}"]
        for fn_name in fns:
            orig = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
    pool = multiprocessing.pool.Pool
    pool.map = tracer.wrap(POOL_SPAN, pool.map)


def _read_batches(path: Path) -> list[list[list]]:
    batches, cur = [], []
    for line in path.read_text().splitlines():
        if line:
            cur.append(json.loads(line))
        elif cur:
            batches.append(cur)
            cur = []
    if cur:
        batches.append(cur)
    return batches


def summarize(spans_file: Path) -> dict[str, dict[str, int]]:
    """Per span name: calls, total_ns (outermost spans only), self_ns,
    under_from_halfspaces_ns and the summed hook counters, over the span
    file of one job and those of its forked workers."""
    stats: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    files = [spans_file, *sorted(spans_file.parent.glob(spans_file.name + ".*"))]
    for f in files:
        for batch in _read_batches(f):
            child_ns = [0] * len(batch)
            ancestors: list[frozenset] = []
            for name, start, end, parent, *_ in batch:
                if parent is None:
                    ancestors.append(frozenset())
                else:
                    child_ns[parent] += end - start
                    ancestors.append(ancestors[parent] | {batch[parent][0]})
            for i, (name, start, end, _parent, counters, _job) in enumerate(batch):
                s = stats[name]
                dur = end - start
                s["calls"] += 1
                s["self_ns"] += dur - child_ns[i]
                if name not in ancestors[i]:
                    s["total_ns"] += dur
                    if "ratpoly.from_halfspaces" in ancestors[i]:
                        s["under_from_halfspaces_ns"] += dur
                for k, v in (counters or {}).items():
                    s[k] += v
    return stats


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_FILE JOB_ID -- ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0], argv[1])
    install(tracer)
    import tilekit.cli
    try:
        return tilekit.cli.main(argv[3:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

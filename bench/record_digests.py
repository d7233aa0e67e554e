"""Record bench/digests.json: the sha256 of every fixed-input report.

    python3 bench/record_digests.py

Runs each job that has a digest key once, from the root of a source
checkout.  A report is stored only if its exit code and its facts check
out (see jobs.py); if any job fails, nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

import jobs as jobs_mod
from run import WORK, Runner, _cli, _judge


def main() -> int:
    work = WORK / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    digests: dict[str, str] = {}
    bad = 0
    try:
        for name, make in jobs_mod.WORKLOADS.items():
            seen: dict[str, bytes] = {}
            runner = Runner(time.monotonic() + 600)
            for job in make(0, work):
                if job.digest is None:
                    continue
                _wall, rc, out = runner.run(_cli(job), job.env, work / "job.err")
                sha = hashlib.sha256(out).hexdigest()
                errs = _judge(job, rc, out, seen, None, work)
                if digests.setdefault(job.digest, sha) != sha:
                    errs.append(f"differs from another report stored as {job.digest}")
                bad += bool(errs)
                print(f"{name} {job.id} rc={rc} {'FAILED' if errs else 'ok'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        print(f"{bad} job(s) failed; digests not written", file=sys.stderr)
        return 1
    jobs_mod.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {jobs_mod.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pin the default-seed outcomes that ``bench.py`` compares every run against.

    python3 benchmarks/pin.py

Runs the first rounds of every workload at the default seed, untimed, and
writes each round's tuned step sizes, tail errors and audit verdicts with
their worst violations to ``reference.json``. Rerun it only when a change
to the program is meant to change those outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from bench import DEFAULT_SEED, REFERENCE, ROOT, THREAD_VARS, import_program

# More rounds than a default-length run makes on a 2-core machine, so every
# round of such a run is compared.
PINNED_ROUNDS = {"lsq_tune": 10, "rotation_p1000": 10, "audit_replay": 8}


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
    pinned = {}
    try:
        for name, workload in WORKLOADS.items():
            pinned[name] = []
            for index in range(PINNED_ROUNDS[name]):
                rnd = workload.new_round(index, DEFAULT_SEED, workdir / name)
                out_root = rnd.workdir / "out"
                workload.setup(rnd)
                workload.suite(rnd, out_root)
                outcome = workload.check(rnd, out_root, round_trip=True)
                if rnd.failures:
                    for _, message in rnd.failures:
                        print(f"{name} round {index}: {message}", file=sys.stderr)
                    return 1
                pinned[name].append(outcome)
                print(f"{name} round {index}: {json.dumps(outcome)}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

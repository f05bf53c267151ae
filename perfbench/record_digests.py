"""Record the artifact digests the benchmark checks at the default seed.

Run from the root of a relufreq checkout, at the commit whose outputs are
the reference:

    python3 perfbench/record_digests.py

It makes every invocation a default-seed run of any workload can make (the
warm-up and one full seed cycle of units) and writes perfbench/digests.json.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from check import fingerprint, key_of
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    os.environ["OPENBLAS_NUM_THREADS"] = run.BLAS_THREADS
    if run.import_relufreq(src) is None:
        return 2
    from relufreq import cli

    out = os.path.join(os.getcwd(), run.OUT_DIR, "record")
    digests = {}
    try:
        for workload in WORKLOADS.values():
            argvs = list(workload.warmup(DEFAULT_SEED))
            for index in range(workload.cycle):
                argvs.extend(workload.unit_at(DEFAULT_SEED, index))
            for argv in argvs:
                key = key_of(argv)
                if key in digests:
                    continue
                shutil.rmtree(out, ignore_errors=True)
                if cli.run(argv + ["--out", out]) != 0:
                    print(f"record_digests: {key} failed", file=sys.stderr)
                    return 1
                digests[key] = fingerprint(out)
                print(key, flush=True)
    finally:
        shutil.rmtree(os.path.join(os.getcwd(), run.OUT_DIR), ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

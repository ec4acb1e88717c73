"""Benchmark entry point.

    python3 perfbench/run.py --workload synth-d64 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``mmfnd`` from its
``src/``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (versions, config, corpus sizes, raw samples). ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    # Before numpy loads: one BLAS thread, so the process has no extra threads.
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "mmfnd" / "__init__.py").is_file():
        print(f"error: no mmfnd package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    from environment import describe
    from workloads import HELDOUT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    result, record = harness.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        workdir=out_dir / f"run-{os.getpid()}", digest_store=out_dir / "digests.json",
    )
    record["environment"] = describe(ROOT, src)
    record["heldout_seed"] = HELDOUT_SEED
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

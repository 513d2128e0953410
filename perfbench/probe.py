"""One set-up in a fresh interpreter: import, build the inputs, one warm-up op.

run.py starts this script several times and reports the median wall time
as ``setup_s``. Usage: python3 perfbench/probe.py --workload NAME --seed N
"""

from __future__ import annotations

import argparse
import os
import shutil

import common


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    common.pin_threads()
    common.use_checkout_source()
    import workloads  # needs the pinned threads and the checkout's src

    outdir = common.WORK / f"probe-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.make(args.workload, args.seed, outdir).warmup()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    main()

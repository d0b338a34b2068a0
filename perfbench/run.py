#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The arguments go to the benchmark binary unchanged (see README.md). The
build uses dune with its own build directory, .bench_build, and the last
line of standard output is the benchmark's JSON result. Exits non-zero
when the sources are missing, the build fails, an output check fails or
the run overruns its time limit.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench/perfbench.exe"
RUN_TIMEOUT_S = 170
MINOR_HEAP = "s=4M"


def main():
    for needed in ("dune-project", "lib/kv/sharded_store.ml"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    # The benchmark runs on one CPU, and every domain gets a 32 MB minor
    # heap; perfbench.ml says why and refuses to run otherwise.
    params = os.environ.get("OCAMLRUNPARAM")
    env["OCAMLRUNPARAM"] = (params + "," if params else "") + MINOR_HEAP
    cpu = max(os.sched_getaffinity(0))
    sys.stdout.flush()
    try:
        run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S, env=env,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

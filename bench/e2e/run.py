#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run it.

Configures a Release build of bench/e2e (which compiles the libraries
from src/) into .bench_build/e2e at the checkout root, builds it, then
replaces itself with the benchmark, passing every argument through:

    python3 bench/e2e/run.py --workload line8 --seed 1 --seconds 20 --trace 0

Build output goes to stderr, so the benchmark's last stdout line is its
JSON result.  Exits non-zero without running anything when the library
sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"bench_e2e: no library sources at {root / 'src'}", file=sys.stderr)
        return 2

    build = root / ".bench_build" / "e2e"
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(here), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build), "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("bench_e2e: build failed", file=sys.stderr)
            return 1

    binary = str(build / "bench_e2e")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:]])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
mobcache library and the perfbench driver (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls rebuild
only what changed. Build output goes to stderr; the last line of stdout is
the driver's JSON result. The exit code is the driver's: nonzero when an
output fails its golden check or a request fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(build_dir, "perfbench")
    return exe if os.path.exists(exe) else None


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, *sys.argv[1:], "--golden", os.path.join(HERE, "golden.txt"),
           "--work-dir", build_dir]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

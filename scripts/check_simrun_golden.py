#!/usr/bin/env python3
"""Byte-for-byte golden check of mobcache_simrun's stdout.

Runs a fixed set of simrun invocations and compares each stdout with its
checked-in golden file: the plain per-scheme sheet over two traces, a
faulted run with its resilience table, a --fault-sweep, and a cold then
warm store-backed run (the warm one with --metrics, so the store and
sweep counters are pinned too). A refactor of simrun's execution path must
leave every byte unchanged.

Usage:
  check_simrun_golden.py --simrun PATH --golden-dir DIR --workdir DIR
"""

import argparse
import pathlib
import shutil
import subprocess
import sys

# (golden file stem, simrun arguments). "{store}" is replaced with a fresh
# store directory shared by the cold/warm pair, which must run in order.
CASES = [
    ("plain", ["launcher,browser", "all", "120000", "7"]),
    (
        "faulted",
        [
            "browser", "dpstt", "150000", "7", "--fault-rate=0.002",
            "--ecc=secded", "--way-disable-threshold=4",
        ],
    ),
    ("sweep", ["browser", "spmrstt", "150000", "7",
               "--fault-sweep=0,0.001,0.01"]),
    ("cold", ["launcher", "all", "120000", "7", "--store-dir={store}"]),
    ("warm", ["launcher", "all", "120000", "7", "--store-dir={store}",
              "--metrics"]),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--simrun", required=True, type=pathlib.Path)
    ap.add_argument("--golden-dir", required=True, type=pathlib.Path)
    ap.add_argument("--workdir", required=True, type=pathlib.Path)
    args = ap.parse_args()

    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    store = args.workdir / "store"

    failures = []
    for stem, argv in CASES:
        cmd = [str(args.simrun)] + [a.replace("{store}", str(store))
                                    for a in argv]
        p = subprocess.run(cmd, capture_output=True, timeout=300)
        want = (args.golden_dir / f"{stem}.txt").read_bytes()
        if p.returncode != 0 or p.stdout != want:
            got = args.workdir / f"{stem}.txt"
            got.write_bytes(p.stdout)
            print(f"FAIL {stem}: rc={p.returncode}; stdout in {got}, "
                  f"stderr={p.stderr.decode(errors='replace').strip()!r}")
            failures.append(stem)
        else:
            print(f"ok   {stem}")

    if failures:
        print(f"{len(failures)} simrun golden(s) differ", file=sys.stderr)
        return 1
    print("all simrun goldens match")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""CLI flag-contract checks for mobcache_simrun, mobcache_daemon,
mobcache_appcheck and mobcache_tracegen.

Every `--name=value` flag given with an empty value must be a hard usage
error: exit code 2 plus a `--name needs <what>` diagnostic on stderr. A
silently ignored `--metrics=` (a truncated shell variable, usually) is how
results end up in the wrong place without anyone noticing. An unknown scheme
must be rejected the same way, with the valid names listed. Every numeric
simrun positional and flag parses strictly (whole string, in range): `abc`,
`12abc` or an out-of-range rate exits 2 naming the expected value instead
of running with a misread number; the daemon's, appcheck's and
tracegen's numbers go through the same parser. Also smokes the daemon's
usage error paths and a `--once` run on an empty service dir.

Usage:
  check_cli.py --simrun PATH --daemon PATH --appcheck PATH --tracegen PATH
               --workdir DIR
"""

import argparse
import pathlib
import shutil
import subprocess
import sys

FAILURES = []

# Every =-flag each binary accepts; kept in sync with the tools' usage text
# (tool_cli_contract fails when a new =-flag forgets the empty-value check).
SIMRUN_EQ_FLAGS = [
    "--trace-out",
    "--metrics",
    "--sample",
    "--fault-rate",
    "--ecc",
    "--fault-seed",
    "--way-disable-threshold",
    "--fault-sweep",
    "--jobs",
    "--store-dir",
    "--point-deadline-ms",
]

DAEMON_EQ_FLAGS = [
    "--store-dir",
    "--jobs",
    "--poll-ms",
    "--epoch-ms",
    "--idle-exit-ms",
]


# parse_scheme_kind's vocabulary (core/scheme), which every "unknown scheme"
# diagnostic must list.
SCHEME_NAMES = "base shrunk sharedstt drowsy victim sp spmrstt dp dpstt"


def run(cmd):
    return subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True, timeout=120
    )


def check(name, ok, detail=""):
    if ok:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name}: {detail}")
        FAILURES.append(name)


def expect_usage_error(tool_name, cmd, needle):
    p = run(cmd)
    label = f"{tool_name} {' '.join(str(c) for c in cmd[1:])!r}"
    check(
        label,
        p.returncode == 2 and needle in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r} (wanted rc=2 "
        f"containing {needle!r})",
    )


def check_empty_value_flags(tool_name, binary, flags):
    for flag in flags:
        expect_usage_error(tool_name, [binary, f"{flag}="], f"{flag} needs")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--simrun", required=True, type=pathlib.Path)
    ap.add_argument("--daemon", required=True, type=pathlib.Path)
    ap.add_argument("--appcheck", required=True, type=pathlib.Path)
    ap.add_argument("--tracegen", required=True, type=pathlib.Path)
    ap.add_argument("--workdir", required=True, type=pathlib.Path)
    args = ap.parse_args()

    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)

    # simrun: empty =-values, missing positionals, unknown flags.
    check_empty_value_flags("simrun", args.simrun, SIMRUN_EQ_FLAGS)
    p = run([args.simrun])
    check(
        "simrun usage without args",
        p.returncode == 2 and "usage:" in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )
    p = run([args.simrun, "launcher", "warp", "1000"])
    check(
        "simrun unknown scheme lists the vocabulary",
        p.returncode == 2
        and "unknown scheme 'warp'" in p.stderr
        and SCHEME_NAMES in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )
    p = run([args.simrun, "nofile.mctz", "--frobnicate"])
    check(
        "simrun unknown flag",
        p.returncode == 2 and "unknown flag" in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )

    # simrun: every numeric positional and flag parses strictly (whole
    # string, in range); garbage is a usage error naming the expected value.
    for cmd, needle in [
        (["launcher", "base", "abc"], "records must be an integer >= 1"),
        (["launcher", "base", "0"], "records must be an integer >= 1"),
        (["launcher", "base", "12abc"], "records must be an integer >= 1"),
        (["launcher", "base", "1000", "-3"], "seed must be an integer"),
        (["launcher", "base", "1000", "7", "8"], "unexpected argument '8'"),
        (["launcher", "--fault-sweep=2,abc"],
         "--fault-sweep rate must be a number in [0, 1]"),
        (["launcher", "--fault-sweep=0,,0.1"],
         "--fault-sweep rate must be a number in [0, 1]"),
        (["launcher", "--fault-rate=abc"],
         "--fault-rate must be a number in [0, 1]"),
        (["launcher", "--fault-rate=1.5"],
         "--fault-rate must be a number in [0, 1]"),
        (["launcher", "--fault-rate=nan"],
         "--fault-rate must be a number in [0, 1]"),
        (["launcher", "--fault-seed=x1"], "--fault-seed must be an integer"),
        (["launcher", "--way-disable-threshold=4x"],
         "--way-disable-threshold must be an integer"),
        (["launcher", "--sample=-1"], "--sample must be an integer"),
        (["launcher", "--jobs=two"], "--jobs must be an integer"),
        (["launcher", "--point-deadline-ms=1.5"],
         "--point-deadline-ms must be an integer"),
    ]:
        expect_usage_error("simrun", [args.simrun] + cmd, needle)

    # The other tools share simrun's strict parser: a misread number is a
    # usage error, never a run (a 0-record appcheck run would report
    # calibration drift instead).
    expect_usage_error(
        "appcheck",
        [args.appcheck, "launcher", "abc"],
        "records must be an integer >= 1, got 'abc'",
    )
    expect_usage_error(
        "tracegen",
        [args.tracegen, "launcher", "12abc", args.workdir / "out.mct"],
        "records must be an integer >= 1, got '12abc'",
    )
    expect_usage_error(
        "daemon",
        [args.daemon, args.workdir / "svc", "--poll-ms=-1"],
        "--poll-ms must be an integer >= 0, got '-1'",
    )

    # daemon: same empty-value contract, then a --once smoke.
    check_empty_value_flags("daemon", args.daemon, DAEMON_EQ_FLAGS)
    p = run([args.daemon])
    check(
        "daemon usage without args",
        p.returncode == 2 and "usage:" in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )
    p = run([args.daemon, args.workdir / "svc", "--frobnicate"])
    check(
        "daemon unknown flag",
        p.returncode == 2 and "unknown flag" in p.stderr,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )

    svc = args.workdir / "svc"
    p = run([args.daemon, svc, "--once"])
    check(
        "daemon --once on empty dir",
        p.returncode == 0,
        f"rc={p.returncode} stderr={p.stderr.strip()!r}",
    )
    check(
        "daemon creates service layout",
        all(
            (svc / d).is_dir() for d in ("inbox", "outbox", "quarantine")
        )
        and (svc / "metrics.json").is_file(),
        f"contents={sorted(q.name for q in svc.iterdir())}",
    )
    metrics = (svc / "metrics.json").read_text()
    check(
        "metrics.json carries service counters",
        '"service.served":0' in metrics,
        f"metrics={metrics.strip()!r}",
    )

    if FAILURES:
        print(f"{len(FAILURES)} CLI contract check(s) failed", file=sys.stderr)
        return 1
    print("all CLI contract checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

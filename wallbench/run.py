#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run one workload.

Usage, from the repository root:

    python3 wallbench/run.py --workload <train_products|dist_papers|serve_products> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is built with cargo (release, offline) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``). The run gets a clean
environment for the program's own knobs: telemetry off (``SPP_TRACE`` and
``SPP_SNAPSHOT`` unset) and ``SPP_POOL_WORKERS`` unset, so the benchmark
picks each workload's pool size itself (one worker per CPU for
``train_products``, one worker for the other two). Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. Exits non-zero when the build fails,
a check fails, or the arguments are wrong.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAM_KNOBS = ("SPP_TRACE", "SPP_SNAPSHOT", "SPP_POOL_WORKERS")


def run_child(cmd, env, **kw):
    """Runs `cmd` to completion; a SIGTERM to this script stops it too."""
    child = subprocess.Popen(cmd, env=env, **kw)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        signal.signal(signal.SIGTERM, previous)


def main():
    env = {k: v for k, v in os.environ.items() if k not in PROGRAM_KNOBS}
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    code = run_child(build, env, stdout=sys.stderr)
    if code != 0:
        print(f"error: building the benchmark failed (exit {code})", file=sys.stderr)
        return code if code > 0 else 1
    exe = os.path.join(target, "release", "wallbench")
    return run_child([exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())

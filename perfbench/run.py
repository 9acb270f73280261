#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload ja_scale|ja_spill|paper_mix_rw \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is built from
source with dune into .bench_build/ (dune's shared cache disabled, so
nothing is written outside the checkout), then run with the same
arguments.  Its last stdout line is the result object; reports land in
perfbench/results/.  The exit code is the program's: non-zero when the
build fails or any statement fails or returns a wrong result.
"""

import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "perfbench/main.exe"
BUILD_TIMEOUT_S = 850
# time a run may take beyond --seconds: its set-ups, the reference
# results and the first pass, which always runs whole
RUN_MARGIN_S = 150


def seconds_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                return float(value)
            except ValueError:
                break
    return 10.0


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: build took over {BUILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, BUILD_DIR, "default", TARGET)
    limit = seconds_arg(sys.argv[1:]) + RUN_MARGIN_S
    # its own process group, which the set-up children it forks share
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT,
                            start_new_session=True)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        print(f"perfbench: run took over {limit:g} s and was stopped",
              file=sys.stderr)
        return 1


def stop_group(proc):
    """Kill the program's process group and wait until it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())

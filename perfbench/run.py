#!/usr/bin/env python3
"""Build the benchmark harness from source and run one measurement.

    python3 perfbench/run.py --workload gen-large --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  It builds perfbench/harness.exe with
dune (the shared dune cache off, so nothing is written outside the
checkout), then runs the harness at DEEPBURNING_JOBS=1.  The last line of
standard output is the result object; perfbench/README.md says what each
metric measures.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
# A run must finish within 180 s of the harness starting.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run this from the root of a deepburning checkout")
    env = dict(os.environ, DUNE_CACHE="disabled", DEEPBURNING_JOBS="1")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/harness.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: the build failed")
    cmd = [
        HARNESS,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
    ]
    # Its own process group, so a timeout also stops the workers it spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while proc.poll() is None:
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            sys.exit("perfbench: the run timed out")
        time.sleep(0.05)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark: what must repeat exactly does.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

Run it from the root of a checkout.  For every workload it makes two short
untraced runs and two short traced runs through perfbench/run.py and
checks that

  * every run is correct and no op failed;
  * sim_cycles_geomean and luts_geomean read the same in both untraced runs;
  * every count metric of the traced runs reads the same in both;
  * serve.shed and serve.errors are 0.

It exits 0 when all hold and 1 otherwise, naming each mismatch.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["gen-large", "serve-mix"]
EXACT = ["sim_cycles_geomean", "luts_geomean"]
# Per-layer units that count work rather than time it.
COUNT_UNITS = {"count", "bits", "bytes", "ratio"}
MUST_BE_ZERO = ["serve.shed", "serve.errors"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=3)
    a = p.parse_args()
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            runs = [run(w, a.seed, a.seconds, trace) for _ in range(2)]
            if any(r is None for r in runs):
                problems.append(f"{w} trace {trace}: a run exited abnormally")
                continue
            for r in runs:
                if not r["correct"] or r["failed"] != 0:
                    problems.append(
                        f"{w} trace {trace}: {r['failed']} of {r['attempted']} ops failed"
                    )
            first, second = (r["metrics"] for r in runs)
            if trace == 0:
                exact = EXACT
            else:
                exact = [k for k, v in first.items() if v["unit"] in COUNT_UNITS]
                for k in MUST_BE_ZERO:
                    if first[k]["value"] != 0 or second[k]["value"] != 0:
                        problems.append(f"{w}: {k} is not 0")
            for k in exact:
                if first[k]["value"] != second[k]["value"]:
                    problems.append(
                        f"{w} trace {trace}: {k} reads {first[k]['value']} "
                        f"then {second[k]['value']}"
                    )
        print(f"{w}: checked", flush=True)
    for msg in problems:
        print("FAIL", msg)
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()

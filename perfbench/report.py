"""Every workload, end to end and traced, in one command.

    python3 perfbench/report.py [--seconds 10] [--seed 1]

Runs perfbench/run.py for each workload with --trace 0 and --trace 1 and
prints its report: provenance, output checks with the sha256 of the outputs,
and every metric with its unit.  The results go to .perfbench_out/report.json.
Compare the sha256 lines of two commits to see whether their outputs are
byte-identical.  Exits 1 if a run failed or a check did not hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    record, ok = {}, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload}, trace {trace}")
            if proc.returncode != 0 or not lines:
                print(proc.stderr.strip())
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            print(f"correct: {result['correct']}")
            ok = ok and result["correct"]
            record[f"{workload}/trace{trace}"] = result
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "report.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Write a training workload's per-step losses, for comparing two commits.

    python3 bench/losses.py --workload train_kd --seed 1 --steps 12 > losses.json

Runs a fixed number of steps (not a timed window) on the same inputs as
``run.py``, untimed and untraced, and prints one JSON object.  A change
that leaves the arithmetic alone reproduces its parent's sequence to
rounding; one that changes reduction order should stay within the spread
across seeds.
"""

import argparse
import json
import sys

import pin

pin.require_program()

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train_smf", "train_kd"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, default=12)
    args = p.parse_args(argv)
    run = workloads.WORKLOADS[args.workload](args.seed)
    steps = [run.step() for _ in range(args.steps)]
    keys = ("loss", "l_task", "l_sdk", "l_fkd", "acc")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "steps": [{k: m[k] for k in ("step",) + keys} for m in steps]},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

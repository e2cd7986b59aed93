"""Run one benchmark workload and print its result as the last line of output.

Usage, from the repository root::

    python3 perfbench/run.py --workload dblp_steady --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split of a traced run.  The line before the result is a JSON object of
diagnostics: sample counts, the program's deterministic work counters,
machine-speed calibration, open-loop lateness and the correctness check.

The run pins ``PYTHONHASHSEED`` to a value derived from ``--seed`` (the
program's work depends on set iteration order), re-executing itself once
with it set.  Exit status is 0 when a result was printed, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` of a run with ``seed``."""
    return str(seed % 4294967296)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken workload for tests")
    args = parser.parse_args(argv)

    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    result, diagnostics = run(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny
    )
    print(json.dumps({"diagnostics": diagnostics}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

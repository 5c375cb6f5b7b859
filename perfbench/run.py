"""logsmith benchmark: seeded inputs, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extract-eval --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pipeline and reports per-layer metrics instead. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Work files go
to ``.bench_work/`` in the checkout and are removed afterwards, except for the
span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import program

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="extract-eval, parse-known or parse-novel")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program.load()
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import inputs
    import session

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(inputs.WORKLOADS)}")

    work = program.ROOT / ".bench_work"
    directory = work / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result = session.run_workload(inputs.WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace), directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    attempted, failed = result["attempted"], result["failed"]
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'error_rate':36s} {failed / attempted if attempted else 0.0:14.6g} ratio"
          f"  ({failed} of {attempted} operations failed)")
    if args.trace:
        busy = sorted(((name, metric["value"]) for name, metric in result["metrics"].items()
                       if metric["unit"] == "s" and name != "trace.overhead_s"),
                      key=lambda pair: -pair[1])
        print("largest self times: " + ", ".join(f"{name} {value:.3f}s"
                                                 for name, value in busy[:4]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

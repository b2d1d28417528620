#!/usr/bin/env python3
"""Benchmark of coopdetect's seeded Monte-Carlo experiments.

Run from the root of a checkout:

    python3 bench/run.py --workload desk_sweep --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds
information that is not gated (environment, line count, span counts,
individual samples and any problems the output checks found).
"""

import os

# One BLAS thread, set before numpy is first imported here or in a set-up
# subprocess: the runs are single-process and must not depend on core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "coopdetect" / "__init__.py").is_file():
        print(f"error: no coopdetect sources in {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        out = measure.traced_run(args.workload, args.seed, args.seconds)
    else:
        out = measure.timed_run(args.workload, args.seed, args.seconds, src)
    for problem in out["info"]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": out["info"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

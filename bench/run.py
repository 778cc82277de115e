"""Benchmark for the nearfield simulator.

Run from the repository root:

    python3 bench/run.py --workload desk_serial --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics and checks the outputs;
`--trace 1` records layer spans and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the machine
facts. Both, with the spans of a traced run, are also written under
`bench/out/<workload>-seed<seed>-trace<0|1>/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "nearfield"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    package = ROOT / "src" / "nearfield"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from a nearfield checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import nearfield

    if Path(nearfield.__file__).resolve().parent != package:
        print(f"error: imported nearfield from {nearfield.__file__}, not {package}",
              file=sys.stderr)
        return 2

    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    outdir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workloads.fresh_dir(outdir)
    metrics, facts, out, problems = workloads.run(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace), outdir)
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": out.failed == 0 and not problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m["name"]: {"value": metrics.pop(m["name"]), "unit": m["unit"]}
                    for m in listed},
    }
    if metrics:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(metrics)}")
    facts = {"workload": args.workload, "seed": args.seed, **facts, **machine_facts()}
    if args.trace:
        facts["self_check"] = "fail" if problems else "pass"
    (outdir / "result.json").write_text(
        json.dumps({"facts": facts, **result}, indent=2, allow_nan=False) + "\n")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Training and ranking speed of cqarank, with output checks.

    python3 benchmarks/run.py --workload train-short --seed 1 --seconds 20 --trace 0

Runs one workload (train-short, train-long or rank) from the repository's
`src/`, checks its outputs and prints, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, read from spans recorded around calls into each layer, and
the spans are saved under benchmarks/out/. See benchmarks/README.md.
"""

import os
import time

# One BLAS thread: steadier figures, and never more threads than CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _seconds_since_process_start() -> float:
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: start time
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)
    except (OSError, ValueError, IndexError):
        return 0.0


PROCESS_START = time.perf_counter() - _seconds_since_process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
END_TO_END = [
    ("setup_s", "s"),
    ("disc_questions_per_s", "questions/s"),
    ("gen_questions_per_s", "questions/s"),
    ("eval_candidates_per_s", "candidates/s"),
    ("peak_rss_mb", "MB"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train-short", "train-long", "rank"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "cqarank" / "__init__.py").is_file():
        print(f"benchmark: no cqarank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cqarank

    if Path(cqarank.__file__).resolve().parent.parent != SRC:
        print(f"benchmark: cqarank imported from {cqarank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_START

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
        if missing:
            print(f"benchmark: not traced, not found: {', '.join(missing)}", file=sys.stderr)
    out_dir = BENCH_DIR / "out" / f"{args.workload}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics, errors, attempted, rounds, wall = workloads.run(
        args.workload, args.seed, args.seconds, out_dir, tracer, import_s)

    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for name, unit in END_TO_END:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"rounds {rounds} in {wall:.2f} s")
    if tracer is not None:
        tracer.save(out_dir / "trace.npz")
        reported = tracer.layer_metrics(rounds)
    else:
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": 0,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the knet benchmark and print its result.

    python3 perfbench/run.py --workload eval-panoptic --seed 1 --seconds 30 --trace 0

Run it from the root of a knet checkout: the package is imported from
``src/`` there, and temporary files go to ``.perfbench_work/``, which is
removed again at exit.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it give the machine, each metric by
name and unit, sample counts and any failed output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# One BLAS thread: at these matrix sizes a second OpenBLAS thread speeds
# nothing up, and on a 2-vCPU VM its spinning made run-to-run timings about
# 30% noisier (median infer 5.5-5.7 ms with one thread, 5.8-7.6 ms with two).
BLAS_THREADS = 1


def cap_blas_threads() -> int:
    """Cap BLAS threads (never above the usable CPUs); call before numpy loads."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = cap_blas_threads()
    src = ROOT / "src"
    if not (src / "knet" / "__init__.py").is_file():
        print(f"perfbench: no knet package under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True     # leave the checkout as it was
    sys.path.insert(0, str(src))

    import numpy
    import scipy

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    print("# machine: " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)), "cpus": os.cpu_count(), "blas_threads": threads,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }, sort_keys=True))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        result, notes, failures = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass                       # another run still uses it
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {result['failed'] / result['attempted']:.6f}")
    for name, m in result["metrics"].items():
        print(f"# {name:34s} {m['value']:14.6f} {m['unit']}")
    print("# notes: " + json.dumps(notes, sort_keys=True))
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

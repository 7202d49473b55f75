"""prodsurf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 30 --trace 0

Run from any directory of a checkout that has ``src/prodsurf``.  The
launcher sets one-thread BLAS/OpenMP in its children's environment only,
times set-up in several fresh processes (``setup_s`` is their median), then
runs the workload in one more fresh process, so the geometry cache starts
cold and memory is per workload.  It prints one line per metric and, as the
last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  It exits non-zero, printing no result, when the program
cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 8  # plus the workload process itself
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _worker(args, deadline: float, extra: list[str]):
    """Run worker.py to completion; return (its spawn time, its last stdout JSON).

    The worker's stderr (the program's own warnings and any failure report)
    is relayed only when the worker fails or reports a failed check.
    """
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV),
                          capture_output=True, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("failed") or not result.get("oracle_ok", True):
        sys.stderr.write(proc.stderr[-4000:])
    return spawned, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "prodsurf" / "cli.py").is_file():
        print(f"error: no prodsurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    setup = []
    try:
        for _ in range(SETUP_PROBES):
            spawned, probe = _worker(args, deadline, ["--setup-only"])
            setup.append(probe["ready"] - spawned)
        spawned, result = _worker(args, deadline, [])
    except subprocess.TimeoutExpired:
        raise SystemExit(f"workload did not finish within {TIME_LIMIT_S} s") from None
    setup.append(result["ready"] - spawned)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    print("# " + json.dumps(result["env"]))
    for name, m in metrics.items():
        count = f" (n={attempted})" if name == "op_s_p50" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{count}")
    print(f"ops_failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0 and result["oracle_ok"],
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

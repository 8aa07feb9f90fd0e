"""Run the driftgauge benchmark.

    python3 perfbench/run.py --workload monitor-d32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

One workload per process: inputs are generated for the seed in a child
process (so generation counts toward no metric, peak RSS included), then the
workload is set up, warmed up, run as a closed loop with one client for
``--seconds``, and every op's output is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from
the span recorder with ``--trace 1``).  Must be run from a checkout that
holds ``src/driftgauge``; the benchmark imports the library from there.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported anywhere in this process or its
# children: one BLAS/OpenMP thread removes a source of run-to-run noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("monitor-d32", "embed-1024", "cli-predict", "meta-fit")
GEN_TIMEOUT_S = 150


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return dict(
        nproc=os.cpu_count(),
        cpu=cpu,
        python=platform.python_version(),
        numpy=np.__version__,
        blas=f"{blas.get('name', '?')} {blas.get('version', '?')}",
        threads={v: os.environ[v] for v in THREAD_VARS},
        seed=seed,
        page_cache="warm: inputs are written just before the run; caches are not dropped",
    )


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    inputs = os.path.join(WORK_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", inputs],
            check=True, timeout=GEN_TIMEOUT_S,
        )
        with open(os.path.join(inputs, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        trace_path = None
        if trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
        result = workloads.run_workload(workload, inputs, manifest, seconds, trace, trace_path)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print("env " + json.dumps(environment(seed), sort_keys=True))
    print("\n".join(result.pop("lines")))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; the order rotates with the seed so
    that no workload always runs first on a cold machine."""
    shift = seed % len(WORKLOADS)
    combined = dict(correct=True, attempted=0, failed=0, metrics={})
    for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined, sort_keys=True), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="driftgauge benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "driftgauge", "__init__.py")):
        print(f"perfbench: no driftgauge sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import driftgauge

    if not os.path.abspath(driftgauge.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported driftgauge from {driftgauge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

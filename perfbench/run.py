"""Benchmark of the twpc CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass is a fresh child process (``child.py``) that calls
``twpc.cli.main(argv)`` in-process, one invocation after another (a closed
loop with one client, ``--threads 1``), so no cache can carry results from
one pass to the next.  BLAS/OpenMP pools are fixed at one thread.

``--trace 0`` runs passes until ``--seconds`` is used up (at least one)
between set-up-only children, eight set-up samples in all, and reports
the median of
    wall_norm_s  time from just after imports to the last output written
    setup_s      import twpc.cli and build its parser, in a cold child
    peak_rss_mb  ru_maxrss of the child
Both times are host-normalised seconds (``hostspeed.py``): each stretch
of measured time is scaled by how much slower than nominal a fixed
reference kernel, interleaved with it, ran.  The raw seconds are printed
beside them.
``--trace 1`` runs one untraced and one traced pass of the same inputs,
checks that both write byte-identical outputs (manifests compared on
``outputs``), and reports the per-layer metrics of ``tracing.py`` plus
``trace.overhead_s`` (traced minus untraced wall time).  On ``pumped_map``
it also runs a diagnostic pass with ``--threads 2`` and prints the ratio.

Every pass is gated (see ``workloads.py``); ``attempted``/``failed`` count
grid points over all passes, and their ratio is the failed fraction.  The
last stdout line is one JSON object; the lines before it print every
metric with its unit, its samples or tail percentile, and the environment.
The exit code is 1 when a gate or a pass fails and 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: BLAS/OpenMP pools fixed at one thread, so load generation stays serial
THREAD_ENV = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_SAMPLES = 8
RUN_TIMEOUT_S = 170.0

#: metric names and units, and each workload's reason for being chosen
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)


class Run:
    """Children of one benchmark run, all under one deadline."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.n = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode, **cfg) -> dict:
        self.n += 1
        cfg = dict(cfg, src=str(ROOT / "src"), mode=mode,
                   workload=self.args.workload, seed=self.args.seed,
                   work=str(self.work / f"p{self.n}"))
        timeout = max(1.0, RUN_TIMEOUT_S - self.elapsed())
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=timeout)
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} child exited {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["dir"] = cfg["work"]
        return out


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------

def timed_run(run: Run, seconds: float):
    # set-up samples are taken on both sides of the passes, so a slow
    # spell of the host does not cover all of them
    setups = [run.child("setup", sample=True)
              for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    t0 = run.elapsed()
    while True:
        passes.append(run.child("pass", sample=True))
        shutil.rmtree(passes[-1]["dir"], ignore_errors=True)
        mean = sum(p["wall_s"] for p in passes) / len(passes)
        if run.elapsed() - t0 + mean > seconds:
            break
    setups += passes
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.child("setup", sample=True))
    samples = {"wall_norm_s": [p["wall_norm_s"] for p in passes],
               "setup_s": [p["setup_norm_s"] for p in setups],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                           "unit": m["unit"], "samples": samples[m["name"]]}
               for m in SPEC["end_to_end"]}
    extra = {"raw_wall_s": [round(p["wall_s"], 4) for p in passes],
             "raw_setup_s": [round(p["setup_s"], 4) for p in setups],
             "reference_ms": [round(1e3 * p["reference_s"], 4)
                              for p in passes]}
    return passes, metrics, extra


def traced_run(run: Run):
    plain = run.child("pass")
    traced = run.child("pass", trace=True)
    passes = [plain, traced]
    if not same_outputs(Path(plain["dir"]), Path(traced["dir"])):
        traced["problems"].append(
            "traced and untraced passes wrote different outputs")
    extra = {}
    if run.args.workload == "pumped_map":
        # diagnostic only: does nld-map's thread pool beat the serial path?
        two = run.child("pass", threads=2)
        passes.append(two)
        if not same_outputs(Path(plain["dir"]), Path(two["dir"])):
            two["problems"].append(
                "--threads 2 and --threads 1 wrote different outputs")
        extra["threads2_over_threads1_wall"] = two["wall_s"] / plain["wall_s"]
    for p in passes:
        shutil.rmtree(p["dir"], ignore_errors=True)
    layers = dict(traced["layers"], **{
        "cli.output_bytes": {"value": float(plain["output_bytes"])},
        "process.cpu_s": {"value": plain["cpu_s"]},
        "trace.overhead_s": {"value": traced["wall_s"] - plain["wall_s"]}})
    metrics = {m["name"]: dict(layers[m["name"]], unit=m["unit"])
               for m in SPEC["per_layer"]}
    extra["absent"] = traced.get("absent", [])
    extra["untraced_wall_s"] = plain["wall_s"]
    extra["traced_wall_s"] = traced["wall_s"]
    return passes, metrics, extra


def same_outputs(a: Path, b: Path) -> bool:
    """Byte-identical output trees, manifests compared on ``outputs``."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False
    for rel in files_a:
        if rel.name == "manifest.json":
            ma = json.loads((a / rel).read_text())
            mb = json.loads((b / rel).read_text())
            if ma["outputs"] != mb["outputs"]:
                return False
        elif not filecmp.cmp(a / rel, b / rel, shallow=False):
            return False
    return True


# ---------------------------------------------------------------------------

def environment(args, versions) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions,
            "threads_env": THREAD_ENV, "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def report(args, passes, metrics, extra) -> int:
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes)
                for msg in p["problems"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"perfbench {args.workload} (seed {args.seed}, trace {args.trace}):"
          f" {WHY[args.workload]}")
    print("env " + json.dumps(environment(args, passes[0]["versions"])))
    for name, m in metrics.items():
        line = f"  {name:40s} {m['value']:14.6g} {m['unit']}"
        if "samples" in m:
            s = m["samples"]
            line += f"   median of {len(s)}: " + " ".join(
                f"{x:.4g}" for x in sorted(s))
        elif m.get("n"):
            line += f"   median of {m['n']}"
            if m.get("tail"):
                line += f", p{m['tail'][0]:g} {m['tail'][1]:.4g}"
        print(line)
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ratio   "
          f"{failed} of {attempted} grid points")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for msg in problems:
        print(f"  GATE FAILED {msg}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "twpc" / "cli.py").is_file():
        print(f"perfbench: no twpc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run = Run(args)
    try:
        if args.trace:
            passes, metrics, extra = traced_run(run)
        else:
            passes, metrics, extra = timed_run(run, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:         # another run is using it
            pass
    return report(args, passes, metrics, extra)


if __name__ == "__main__":
    sys.exit(main())

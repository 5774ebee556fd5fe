"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

The count-repeat tests run every workload traced twice (about two
minutes in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = ("_calls", "_factors", "_nnz", "rhs_columns", "newton_iterations",
         "probe_solves", "failed_probes", "touchstone.bytes")


def _small_chain():
    from twpc import device, network
    return network.build_chain(device.fitted_line(20))


def test_tracer_charges_lu_to_enclosing_layer_and_restores():
    from twpc import network
    import scipy.sparse.linalg as spla
    original = (network.linear_scattering, spla.splu)
    net = _small_chain()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        s = network.linear_scattering(net, 2e9 * 3.14159 * 5)
    finally:
        tracer.uninstall()
    assert (network.linear_scattering, spla.splu) == original
    assert s.shape == (4, 4)
    m = tracer.metrics(wall_s=1.0)
    assert m["network.scatter_calls"].value == 1
    assert m["network.lu_fill_nnz"].value > 0
    assert len(tracer.lu["network"]["factor"]) == 1
    assert len(tracer.lu["network"]["solve"]) == 1
    assert tracer.lu["network"]["rhs"] == 4
    total = tracer.stats("network.linear_scattering").total[0]
    assert sum(tracer.layer_self.values()) + tracer.bookkeeping == \
        pytest.approx(total, rel=1e-6)


def test_missing_names_are_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "EXTRA", tracing.EXTRA + (
        "sidebands._Gone.solve", "network.no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "sidebands._Gone.solve" in tracer.absent
    assert "network.no_such_function" in tracer.absent
    assert tracer.stats("matching.vanished").total == tracing.array("d")
    assert "matching.vanished" in tracer.absent
    m = tracer.metrics(wall_s=1.0)
    assert m["sidebands.probe_solves"].value == 0


def test_sampler_takes_its_time_out_and_scales_by_the_reference():
    sampler = hostspeed.Sampler()
    slow = 2.0 * hostspeed.NOMINAL_S        # the host at half speed
    sampler.starts = [1.0, 2.0, 3.0]
    sampler.durations = [slow] * 3
    raw, norm = sampler.measure(0.5, 3.5)
    assert raw == pytest.approx(3.0 - 3 * slow)
    assert norm == pytest.approx(raw / 2.0)
    # a region between two samples uses the samples around it
    raw, norm = sampler.measure(1.5, 1.9)
    assert (raw, norm) == pytest.approx((0.4, 0.2))


def test_sampler_samples_while_code_runs():
    import time
    sampler = hostspeed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    t1 = time.perf_counter()
    sampler.stop()
    assert len(sampler.durations) >= 5
    raw, norm = sampler.measure(t0, t1)
    assert 0 < raw < t1 - t0
    assert norm > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gap_map",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gap_map_gate_counts_missing_points(tmp_path):
    import twpc.cli
    wl = WORKLOADS["gap_map"](0, tmp_path)
    wl.pump_points = 4                  # pumps 2, 3, 4 and 5 GHz
    wl.prepare()
    wl.run(twpc.cli.main)
    assert wl.gate() == (12, 0, [])
    # a Ci point, and the only Al root, lost from both directions
    for kind, row in (("Ci", 2), ("Al", 1)):
        for direction in ("fw", "bw"):
            path = wl.out("gaps") / f"gaps_{kind}_{direction}.csv"
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines[:row] + lines[row + 1:]))
    attempted, failed, problems = wl.gate()
    assert (attempted, failed) == (12, 2)
    assert "Ci f_p=3.0: 0 fw and 0 bw rows, 1 roots" in problems
    assert "Al f_p=5.0: 0 fw and 0 bw rows, 1 roots" in problems


def _traced_counts(workload, work):
    cfg = {"src": str(ROOT / "src"), "mode": "pass", "workload": workload,
           "seed": 0, "work": str(work), "trace": True}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
        capture_output=True, text=True, timeout=170, env=run.child_env())
    assert proc.returncode == 0, proc.stderr[-2000:]
    layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
    from_parent = {"cli.output_bytes", "process.cpu_s", "trace.overhead_s"}
    assert set(layers) | from_parent == {m["name"]
                                         for m in run.SPEC["per_layer"]}
    return {k: v["value"] for k, v in layers.items()
            if k.endswith(EXACT)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload, tmp_path):
    a = _traced_counts(workload, tmp_path / "a")
    b = _traced_counts(workload, tmp_path / "b")
    assert a == b
    assert any(a.values())

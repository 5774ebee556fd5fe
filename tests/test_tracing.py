"""The benchmark tracer's view of a small pumped map, a small gap map and a
small scatter read back by tdr.

perfbench/tracing.py charges every LU metric to scipy's solve_banded, so
the solvers must keep reaching LAPACK through it: network._solve reads it
from the scipy.linalg module each time it runs, where Tracer.install
patches it, so the first banded solve, not import twpc.cli, loads
scipy.linalg.  This pins the counts and fills a one-pump nld-map reports.
The tracer wraps only plain public functions, so a layer function hidden
behind a decorator reads as absent; the gap map pins the matching and
dispersion call counts, and the scatter and tdr pair keeps the Touchstone
metrics non-zero.
"""

from pathlib import Path

import pytest

from twpc.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_nld_map_lu_metrics_flow_through_solve_banded(tracer, tmp_path):
    assert main(["nld-map", "--pump-min", "3", "--pump-max", "3",
                 "--pump-points", "1", "--probe-min", "6",
                 "--probe-max", "8", "--probe-points", "3",
                 "--pump-flux", "0.05", "--n-sidebands", "2",
                 "--out-dir", str(tmp_path)]) == 0
    m = {k: v.value for k, v in tracer.metrics(1.0).items()}
    assert m["sidebands.probe_solves"] == 3
    assert m["sidebands.rhs_columns"] == 2
    # 2005 unknowns (5 sidebands x 401 columns of the even sector) with
    # kl = ku = 9 in LAPACK's (2 kl + ku + 1)-row factor storage
    assert m["sidebands.lu_fill_nnz"] == 2005 * (3 * 9 + 1) == 56140
    # 2406 unknowns (2 x 3 harmonics x 401 columns of the odd sector),
    # kl = ku = 11
    assert m["harmonic_balance.lu_fill_nnz"] == 2406 * (3 * 11 + 1) == 81804
    assert tracer.absent == []


def test_gaps_map_calls_each_layer_function_once_per_point(tracer,
                                                          tmp_path):
    assert main(["gaps-map", "--processes", "Ci,Co,Al", "--pump-min", "2",
                 "--pump-max", "5", "--pump-points", "3", "--pump-eps",
                 "0.3", "--out-dir", str(tmp_path)]) == 0
    m = {k: v.value for k, v in tracer.metrics(1.0).items()}
    assert m["matching.solve_calls"] == 3 * 3
    assert m["dispersion.pump_wavevector_calls"] == 3 * 3
    assert m["dispersion.wavevector_calls"] > 0
    assert tracer.absent == []


def test_touchstone_metrics_flow_through_read_and_write(tracer, tmp_path):
    # the benchmark times read_touchstone and write_touchstone by name, so
    # tdr must reach the file through read_touchstone
    assert main(["scatter", "--points", "32",
                 "--out-dir", str(tmp_path / "s")]) == 0
    s4p = tmp_path / "s" / "sweep.s4p"
    assert main(["tdr", "--input", str(s4p), "--port", "2",
                 "--out-dir", str(tmp_path / "t")]) == 0
    m = {k: v.value for k, v in tracer.metrics(1.0).items()}
    assert m["touchstone.read_ms"] > 0 and m["touchstone.write_ms"] > 0
    assert m["touchstone.bytes"] == s4p.stat().st_size
    assert tracer.absent == []

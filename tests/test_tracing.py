"""The benchmark tracer's view of a small pumped map and a small gap map.

perfbench/tracing.py charges every LU metric to scipy's solve_banded, so
the solvers must keep reaching LAPACK through it; this pins the counts and
fills a one-pump nld-map reports.  The tracer wraps only plain public
functions, so a layer function hidden behind a decorator reads as absent;
the gap map pins the matching and dispersion call counts.
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

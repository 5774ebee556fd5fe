import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError

from twpc import cli, device, network, sidebands, tdr
from twpc.cli import FLUX_Q, GHZ, Runner, build_parser, main
from twpc.dispersion import amplitude_from_flux, pump_wavevector
from twpc.errors import NonConvergence
from twpc.matching import ProcessKind, solve_corrected
from twpc.touchstone import read_touchstone, write_touchstone


def _run(args, out):
    rc = main(args + ["--out-dir", str(out)])
    assert rc == 0
    return out


def _spec_file(tmp_path, name="spec.json", **overrides):
    spec = device.fitted_line(**overrides)
    p = tmp_path / name
    p.write_text(json.dumps(device.spec_to_json(spec)))
    return p


def _write_csv_per_cell(path, header, rows):
    """Reference writer: every number as %.12e, NaN blank; one format call
    per cell, one write per row."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if math.isnan(x) else f"{float(x):.12e}"
                              for x in row) + "\n")


def _float_rows(seed, n):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, (n, 3))
    rows = [tuple(r) for r in (rng.normal(size=(n, 3)) * scale).tolist()]
    big = 1.7976931348623157e308
    rows[:5] = [(-0.0, 5e-324, 1e-300), (big, -5e-324, 0.0), (big, big, 1.0),
                (math.inf, 1.0, 2.0),
                (np.float64(0.1), np.float64(-2.5e-7), 3.0)]
    rows[n // 2] = [0.5, 0.25, 0.125]
    return rows


# each is appended to a table of floats
_SPECIAL_ROWS = [
    (math.inf, -math.inf, 1.0), (math.nan, 1.0, 2.0),
    (np.float64("nan"),) * 3, (1, True, False), (2 ** 60, -7, 0),
    (np.int64(3), np.float32(0.1), np.bool_(True)),
    (np.float32(0.1), np.float32(2.0), np.float32(-1.5))]


def _float_table(seed, n):
    """n rows of 3 floats, nearly all with exponents _fmt_rows scales."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-15, 30, (n, 3))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_csv_writer_matches_per_cell_oracle(tmp_path, seed):
    header = ["a", "b", "c"]
    tables = [_float_rows(seed, 600), []] + [
        _float_rows(seed, 100) + [row] for row in _SPECIAL_ROWS]
    runner = Runner(str(tmp_path), {}, 0)
    for k, rows in enumerate(tables):
        new = runner.write_csv(f"new{k}.csv", header, iter(rows))
        _write_csv_per_cell(tmp_path / f"old{k}.csv", header, rows)
        assert new.read_bytes() == (tmp_path / f"old{k}.csv").read_bytes()
    # 2-D float64 arrays, formatted in blocks of 2048 rows
    with_nan, with_inf = _float_table(seed, 300), _float_table(seed, 300)
    with_nan[::7, 1] = math.nan
    with_inf[::5, 2], with_inf[3, 0] = math.inf, -math.inf
    arrays = [np.array(_float_rows(seed, 600)), np.empty((0, 3)), with_nan,
              with_inf] + [_float_table(seed, n) for n in (1, 2047, 2048, 2049)]
    for k, table in enumerate(arrays):
        new = runner.write_csv(f"array{k}.csv", header, table)
        _write_csv_per_cell(tmp_path / f"rows{k}.csv", header, table.tolist())
        assert new.read_bytes() == (tmp_path / f"rows{k}.csv").read_bytes()


@pytest.mark.parametrize("row", [(None, 1.0, 2.0), ("Ci", "fw", 1.5)])
def test_csv_writer_rejects_a_cell_that_is_no_number(tmp_path, row):
    runner = Runner(str(tmp_path), {}, 0)
    with pytest.raises(TypeError):
        runner.write_csv("t.csv", ["a", "b", "c"], _float_rows(0, 100) + [row])


@pytest.mark.parametrize("extra", [
    [(1.0, 2.0)], [(1.0, 2.0, 3.0, 4.0)], [()],
    [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)],     # 6 cells, as two full rows
    np.ones((2, 4)), np.ones(3)])   # arrays: too wide, and 1-D
def test_csv_writer_rejects_a_ragged_row(tmp_path, extra):
    runner = Runner(str(tmp_path), {}, 0)
    rows = extra if isinstance(extra, np.ndarray) else \
        _float_rows(0, 100) + extra
    with pytest.raises(ValueError):
        runner.write_csv("t.csv", ["a", "b", "c"], rows)


def _percent_cells(values):
    """The reference for _fmt_rows on one column: "%.12e", NaN blank."""
    return ["" if math.isnan(x) else "%.12e" % x for x in values]


def _column_cells(values):
    return cli._fmt_rows(np.array(values, float).reshape(-1, 1)).split(
        "\n")[:-1]


_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
# 14-digit decimals, whose 13-digit roundings lie at or near a tie
_NEAR_TIES = st.builds(lambda m, k: m / 10 ** k, st.integers(10 ** 13,
                       10 ** 14 - 1), st.integers(-10, 30))


@given(st.lists(st.floats() | _BIT_PATTERNS | _NEAR_TIES, min_size=1,
                max_size=64))
@settings(deadline=None)
def test_fmt_rows_matches_percent_format(values):
    assert _column_cells(values) == _percent_cells(values)


_EDGE_VALUES = [
    2.0 ** -20, 3 * 2.0 ** -20, 12345678901235.0, 12345678901245.0,  # ties
    9.9999999999995, 9.99999999999995, 9.99999999999996e-3,     # carries
    0.99999999999996, 9.99999999999995e99, 9.9999999999999e22,
    *(np.nextafter(float(f"1e{k}"), to) for k in range(-30, 31)
      for to in (0.0, math.inf)),
    1.5e100, -2.5e-150, 1e-100, -1e100, 1e-300, 1e308,       # 3 digits
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e22, 1e23,
    math.inf, -math.inf, math.nan]


def test_fmt_rows_edge_values():
    values = _EDGE_VALUES + [-x for x in _EDGE_VALUES]
    assert _column_cells(values) == _percent_cells(values)
    # as rows of three: the separators and the end of each row
    table = np.array(values[:len(values) // 3 * 3]).reshape(-1, 3)
    lines = cli._fmt_rows(table).split("\n")[:-1]
    assert [line.split(",") for line in lines] == [
        _percent_cells(row) for row in table.tolist()]


@pytest.mark.parametrize("bias", [-0.01, 0.01])
def test_fmt_rows_corrects_its_exponent(monkeypatch, bias):
    # a log10 biased by 0.01 puts floor(log10|x|) one off within 2.3 % of
    # each power of ten; the kernel must still find the exponent
    values = [float(f"{m}e{k}") for k in range(-9, 30)
              for m in (0.98, 0.99999, 1.0, 1.00001, 1.02, 3.0)]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + bias)
    assert _column_cells(values) == _percent_cells(values)


def test_impulse_magnitudes_match_abs_of_complex(tmp_path):
    # |h| from np.hypot equals abs(complex) bit for bit; np.abs does not,
    # and would change printed digits
    spec = _spec_file(tmp_path, n_cells=400, disorder_halfwidth=0.02,
                      defects=((198, "open_junction"),))
    s_out = _run(["scatter", "--spec", str(spec)], tmp_path / "sw")
    t_out = _run(["tdr", "--input", str(s_out / "sweep.s4p")], tmp_path / "t")
    f, trace, _ = read_touchstone(s_out / "sweep.s4p", entry=(0, 0))
    imp = tdr.impulse_response(tdr.FrequencySweep(f, trace))
    h = imp.h
    assert (np.abs(h) != np.hypot(h.real, h.imag)).any()
    old = Runner(str(tmp_path / "rows"), {}, 0).write_csv(
        "impulse.csv", ["t_ns", "magnitude", "phase_rad"],
        zip(imp.t_ns.tolist(), map(abs, h.tolist()), np.angle(h).tolist()))
    assert (t_out / "impulse.csv").read_bytes() == old.read_bytes()


def test_dispersion_outputs_and_manifest(tmp_path):
    out = _run(["dispersion", "--f-min", "1", "--f-max", "20",
                "--points", "20"], tmp_path / "d")
    rows = np.genfromtxt(out / "dispersion.csv", delimiter=",", names=True)
    assert len(rows) == 20
    assert np.all(np.isfinite(rows["k_sigma_rad_per_cell"]))
    # Delta column goes blank above its cutoff
    assert np.any(np.isnan(rows["k_delta_rad_per_cell"]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "twpc"
    assert manifest["warnings"] == []
    for name, digest in manifest["outputs"].items():
        body = (out / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest


def test_phase_match_point(tmp_path):
    out = _run(["phase-match", "--process", "Ci", "--f-pump", "3",
                "--pump-flux", "0.06"], tmp_path / "m")
    rows = np.genfromtxt(out / "match_points.csv", delimiter=",", names=True,
                         ndmin=1)
    assert len(rows) == 1
    assert 5.0 < rows["f_s_GHz"][0] < 9.0
    assert rows["f_i_GHz"][0] == pytest.approx(rows["f_s_GHz"][0] + 6.0,
                                               abs=1e-9)


def test_gaps_map_files(tmp_path):
    out = _run(["gaps-map", "--processes", "Ci,Co", "--pump-min", "2.5",
                "--pump-max", "3.5", "--pump-points", "3",
                "--pump-eps", "0.05"], tmp_path / "g")
    for kind in ("Ci", "Co"):
        for direction in ("fw", "bw"):
            rows = np.genfromtxt(out / f"gaps_{kind}_{direction}.csv",
                                 delimiter=",", names=True, ndmin=1)
            assert len(rows) == 3


def test_gaps_map_all_points_failed_exit_code(tmp_path, capsys):
    # 0.3 flux quanta puts every pump point beyond the Bessel validity range
    rc, err = _error_report(capsys, ["gaps-map", "--pump-flux", "0.3"],
                            tmp_path)
    assert rc == 3 and err["error"] == "AmplitudeOutOfRange"
    assert not (tmp_path / "o" / "gaps_Ci_fw.csv").exists()


def test_gaps_map_lists_failed_points(tmp_path):
    # only the 5 GHz pump is out of range at this amplitude
    out = _run(["gaps-map", "--processes", "Ci", "--pump-min", "2",
                "--pump-max", "5", "--pump-points", "4",
                "--pump-eps", "0.7"], tmp_path / "g")
    for direction in ("fw", "bw"):
        rows = np.genfromtxt(out / f"gaps_Ci_{direction}.csv",
                             delimiter=",", names=True, ndmin=1)
        assert len(rows) == 3 and rows["f_pump_GHz"][-1] == 4.0
    manifest = json.loads((out / "manifest.json").read_text())
    (failure,) = manifest["failures"]
    assert failure["process"] == "Ci"
    assert failure["f_pump_GHz"] == pytest.approx(5.0)
    assert "validity bound" in failure["reason"]


def test_gaps_map_lists_points_above_pump_cutoff(tmp_path):
    # the Delta-mode pump cutoff of the fitted line is 9.21 GHz
    out = _run(["gaps-map", "--processes", "Co", "--pump-min", "8",
                "--pump-max", "10", "--pump-points", "3",
                "--pump-eps", "0.05"], tmp_path / "g")
    rows = np.genfromtxt(out / "gaps_Co_fw.csv", delimiter=",", names=True,
                         ndmin=1)
    assert list(rows["f_pump_GHz"]) == [8.0, 9.0]
    manifest = json.loads((out / "manifest.json").read_text())
    (failure,) = manifest["failures"]
    assert failure["process"] == "Co"
    assert failure["f_pump_GHz"] == pytest.approx(10.0)
    assert "cutoff" in failure["reason"]


def test_scatter_writes_touchstone(tmp_path):
    out = _run(["scatter", "--f-min", "4", "--f-max", "8", "--points", "11"],
               tmp_path / "s")
    f, s, z = read_touchstone(out / "sweep.s4p")
    assert len(f) == 11 and s.shape == (11, 4, 4)
    assert z[0] > z[1]  # Sigma ports sit at the higher impedance


def test_isolate_with_defect_spec(tmp_path):
    spec = _spec_file(tmp_path, defects=((165, "open_junction"),))
    out = _run(["isolate", "--spec", str(spec), "--f-pump", "4.63",
                "--eps-min", "0.05", "--eps-max", "0.3", "--eps-points", "4"],
               tmp_path / "i")
    rows = np.genfromtxt(out / "isolation.csv", delimiter=",", names=True)
    assert len(rows) == 4
    # the defect scatters part of the pump into the forward direction, so
    # both curves deepen with amplitude, the backward one less steeply
    assert rows["forward_dB"][-1] < rows["forward_dB"][0] < 0
    assert rows["backward_dB"][-1] < rows["backward_dB"][0] < 0
    assert rows["forward_dB"][-1] < rows["backward_dB"][-1]


def test_envelope_floors_an_underflowed_attenuation(tmp_path):
    """On 1e5 cells the closed-form total underflows to 0; its dB reads
    the -6000 dB floor instead of a math domain error."""
    spec = _spec_file(tmp_path, n_cells=100000)
    out = _run(["envelope", "--spec", str(spec), "--process", "Ci",
                "--f-pump", "4.63", "--pump-eps", "0.3"], tmp_path / "e")
    summary = json.loads((out / "envelope_summary.json").read_text())
    assert summary["total_attenuation_dB"] == -6000.0
    assert json.loads((out / "manifest.json").read_text())["warnings"] == []


def test_isolate_floors_an_overflowed_defect_product(tmp_path):
    """On 1e5 cells the section product of the defect model overflows at
    high pump; the transmission, below 1e-300, reads -6000 dB, not blank."""
    spec = _spec_file(tmp_path, n_cells=100000,
                      defects=((50000, "open_junction"),))
    out = _run(["isolate", "--spec", str(spec), "--f-pump", "4.63"],
               tmp_path / "i")
    lines = (out / "isolation.csv").read_text().splitlines()
    assert not any(cell == "" for line in lines for cell in line.split(","))
    rows = np.genfromtxt(out / "isolation.csv", delimiter=",", names=True)
    assert rows["forward_dB"][-9:].tolist() == [-6000.0] * 9
    assert rows["backward_dB"][-5:].tolist() == [-6000.0] * 5
    assert (rows["forward_dB"][:-9] > -6000).all()
    assert (rows["backward_dB"][:-5] > -6000).all()
    assert json.loads((out / "manifest.json").read_text())["warnings"] == []


def test_nld_sim_summary(tmp_path):
    out = _run(["nld-sim", "--f-pump", "3", "--f-probe", "7.1",
                "--pump-flux", "0.05", "--harmonics", "2",
                "--n-sidebands", "1"], tmp_path / "n")
    pump = json.loads((out / "pump_solution.json").read_text())
    assert pump["residual"] < 1e-8
    assert pump["peak_junction_flux_quanta"] == pytest.approx(0.05, rel=0.1)
    summary = json.loads((out / "scattering_summary.json").read_text())
    assert summary["S_fw_dB"] < 0.1
    rows = np.genfromtxt(out / "sidebands.csv", delimiter=",", names=True)
    assert len(rows) == 4 * 3  # sidebands -1..1 at four ports


def test_nld_sim_and_nld_map_agree_on_a_shared_cell(tmp_path):
    """nld-sim and a one-cell nld-map solve the same pump orbit and probe
    and write the same dB values, bit for bit."""
    flux = ["--pump-flux", "0.05"]
    sim = _run(["nld-sim", "--f-pump", "3", "--f-probe", "7.1", *flux],
               tmp_path / "sim")
    out = _run(["nld-map", "--pump-min", "3", "--pump-max", "3",
                "--pump-points", "1", "--probe-min", "7.1", "--probe-max",
                "7.1", "--probe-points", "1", *flux], tmp_path / "map")
    summary = json.loads((sim / "scattering_summary.json").read_text())
    cell = "%.12e,%.12e" % (summary["S_fw_dB"], summary["S_bw_dB"])
    assert cell == "-5.998445063306e-03,-9.140549664441e-04"
    row = (out / "transmission_map.csv").read_text().splitlines()[1]
    assert row == "3.000000000000e+00,7.100000000000e+00," + cell


@pytest.mark.parametrize("amp", [["--pump-flux", "0"], ["--pump-eps", "0"]])
def test_zero_pump_sees_the_unpumped_line(tmp_path, fitted_net, amp):
    """A zero pump converges at once on its exact orbit phi = 0, and the
    probe sees the unpumped line: nld-sim gives the linear S, nld-map
    fails no cell and warns of nothing."""
    out = _run(["nld-sim", "--f-pump", "3", "--f-probe", "7", *amp],
               tmp_path / "sim")
    pump = json.loads((out / "pump_solution.json").read_text())
    assert pump["iterations"] == 0 and pump["residual"] == 0
    s = network.linear_scattering(fitted_net, 7 * GHZ)
    summary = json.loads((out / "scattering_summary.json").read_text())
    for key, (q, p) in (("S_fw_dB", (2, 0)), ("S_bw_dB", (0, 2))):
        assert summary[key] == pytest.approx(
            20 * math.log10(abs(s[q, p])), abs=1e-9)
    out = _run(["nld-map", "--pump-points", "2", "--probe-points", "3",
                *amp], tmp_path / "map")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [] and manifest["warnings"] == []
    assert ",," not in (out / "transmission_map.csv").read_text()


def test_overflowing_pump_reports_strict_json(tmp_path, capsys):
    """A pump whose residual overflows to NaN exits 3 with a JSON report
    that writes the residual as null."""
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    assert main(["nld-sim", "--f-pump", "3", "--f-probe", "7",
                 "--pump-eps", "1e300", "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err, parse_constant=no_constant)
    assert err["error"] == "NonConvergence" and err["residual"] is None


@pytest.mark.parametrize("spec", [{}, {"defects": ((165, "open_junction"),)}])
def test_nld_sim_solves_only_the_columns_it_writes(tmp_path, monkeypatch,
                                                   spec):
    """nld-sim's two-column sideband solve writes the same bytes as the
    solve of every column, on a line with electrode symmetry and on one
    without."""
    argv = ["nld-sim", "--f-pump", "3", "--f-probe", "7.1",
            "--pump-flux", "0.05", "--spec", str(_spec_file(tmp_path, **spec))]
    two = _run(argv, tmp_path / "two")
    every = sidebands.signal_sidebands
    monkeypatch.setattr(sidebands, "signal_sidebands",
                        lambda *args: every(*args[:4]))
    full = _run(argv, tmp_path / "all")
    for name in ("pump_solution.json", "sidebands.csv",
                 "scattering_summary.json"):
        assert (two / name).read_bytes() == (full / name).read_bytes()


@pytest.mark.parametrize("f_pump", ["0", "-3", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["phase-match", "--pump-eps", "0.05"], ["envelope", "--pump-eps", "0.05"],
    ["isolate"], ["nld-sim", "--f-probe", "7.1", "--pump-eps", "0.05"]])
def test_bad_pump_frequency_exit_code(tmp_path, capsys, command, f_pump):
    rc, err = _error_report(capsys, command + ["--f-pump", f_pump], tmp_path)
    assert rc == 2 and err["violations"] == [
        ["f_pump", "need a finite positive frequency"]]


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
@pytest.mark.parametrize("command, flag", [
    (["phase-match", "--f-pump", "3"], "--pump-eps"),
    (["envelope", "--f-pump", "3"], "--pump-flux"),
    (["isolate", "--f-pump", "4.63"], "--eps-min"),
    (["isolate", "--f-pump", "4.63"], "--eps-max"),
    (["nld-sim", "--f-pump", "3", "--f-probe", "7.1"], "--pump-eps"),
    (["nld-sim", "--f-pump", "3", "--pump-flux", "0.05"], "--f-probe"),
    (["nld-map", "--pump-points", "1", "--probe-points", "2"],
     "--pump-flux")])
def test_bad_pump_input_exit_code(tmp_path, capsys, command, flag, value):
    """A NaN, infinite or negative pump amplitude or probe frequency is a
    configuration error naming its flag, raised before any solve writes a
    file."""
    rc, err = _error_report(capsys, command + [flag, value], tmp_path)
    assert rc == 2 and err["error"] == "ConfigError"
    assert [v[0] for v in err["violations"]] == [flag[2:].replace("-", "_")]
    assert list((tmp_path / "o").iterdir()) == []


_HEAP_LOOP = """
import resource
import numpy as np
from twpc import cli, network
cli._keep_freed_heap()
def newton_band():     # the harmonic-balance band, built at every step
    ab = np.ones((35, 4812))
    ab[17] = 40.0
    return ab
network._solve(newton_band(), np.ones(4812))
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    network._solve(newton_band(), np.ones(4812))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


def test_repeated_banded_solves_reuse_the_heap():
    """With the malloc thresholds main fixes, ten Newton-sized banded LUs,
    each on a band allocated anew, in a fresh process fault in fewer pages
    than one LU's two 2 MB band copies hold (about 1000); with glibc's
    dynamic thresholds they refault both copies at every call (about 9400
    pages)."""
    src = str(Path(network.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _HEAP_LOOP],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 1000


def test_truncation_warning_recorded_in_manifest(tmp_path):
    # one sideband pair is too few at the Ci gap probe; the two identical
    # pump rows raise the same warning
    cell = device.fitted_cell()
    w = 3 * GHZ
    eps = amplitude_from_flux(0.05 * FLUX_Q, pump_wavevector(cell, w, 0.0))
    f_s = repr(solve_corrected(ProcessKind.Circulation, w, eps,
                               cell)[0].omega_s / GHZ)
    out = _run(["nld-map", "--pump-min", "3", "--pump-max", "3",
                "--pump-points", "2", "--probe-min", f_s, "--probe-max", f_s,
                "--probe-points", "1", "--pump-flux", "0.05",
                "--harmonics", "2", "--n-sidebands", "1", "--threads", "2"],
               tmp_path / "n")
    manifest = json.loads((out / "manifest.json").read_text())
    (entry,) = manifest["warnings"]
    assert entry["category"] == "TruncationWarning"
    assert entry["count"] == 2
    assert entry["message"].startswith("outermost sidebands carry")


def test_truncation_warnings_name_their_cells(tmp_path):
    # the Ci gap probe of the 3 GHz pump needs more than one sideband pair
    # at both pumps; each warning says which (pump, probe) cell it is from
    cell = device.fitted_cell()
    w = 3 * GHZ
    eps = amplitude_from_flux(0.05 * FLUX_Q, pump_wavevector(cell, w, 0.0))
    f_s = solve_corrected(ProcessKind.Circulation, w, eps, cell)[0].omega_s
    out = _run(["nld-map", "--pump-min", "3", "--pump-max", "3.1",
                "--pump-points", "2", "--probe-min", repr(f_s / GHZ),
                "--probe-max", repr(f_s / GHZ), "--probe-points", "1",
                "--pump-flux", "0.05", "--harmonics", "2",
                "--n-sidebands", "1"], tmp_path / "n")
    manifest = json.loads((out / "manifest.json").read_text())
    entries = manifest["warnings"]
    assert [(e["category"], e["count"]) for e in entries] == [
        ("TruncationWarning", 1)] * 2
    messages = [e["message"] for e in entries]
    for f_p in ("3.0000", "3.1000"):
        (message,) = [m for m in messages if f"f_P = {f_p} GHz" in m]
        assert f"f_probe = {f_s / GHZ:.4f} GHz" in message


def test_nld_map_blank_cells_at_pump_harmonics(tmp_path):
    out = _run(["nld-map", "--pump-min", "3", "--pump-max", "3",
                "--pump-points", "1", "--probe-min", "5", "--probe-max", "7",
                "--probe-points", "3", "--pump-flux", "0.04",
                "--harmonics", "2", "--n-sidebands", "1"], tmp_path / "nm")
    lines = (out / "transmission_map.csv").read_text().splitlines()
    assert len(lines) == 4
    # the 6 GHz probe coincides with twice the pump: cells left blank
    blank = [ln for ln in lines[1:] if ln.endswith(",,")]
    assert len(blank) == 1 and blank[0].split(",")[1].startswith("6.0")
    # ... and the manifest says why
    manifest = json.loads((out / "manifest.json").read_text())
    (failure,) = manifest["failures"]
    assert failure["f_pump_GHz"] == pytest.approx(3.0)
    assert failure["f_probe_GHz"] == pytest.approx(6.0)
    assert "zero frequency" in failure["reason"]


def test_tdr_pipeline_roundtrip(tmp_path):
    spec = _spec_file(tmp_path, defects=((165, "open_junction"),))
    s_out = _run(["scatter", "--spec", str(spec), "--f-min", "4",
                  "--f-max", "8", "--points", "401"], tmp_path / "sw")
    t_out = _run(["tdr", "--input", str(s_out / "sweep.s4p"), "--port", "0"],
                 tmp_path / "t")
    peaks = json.loads((t_out / "peaks.json").read_text())
    assert abs(peaks["cell"] - 165) < 28 + peaks["uncertainty_cells"]


def test_tdr_reads_upper_case_s4p_and_caps_csv_errors(tmp_path, capsys):
    """VNA exports often name a Touchstone file .S4P: tdr reads it as it
    reads .s4p.  A malformed CSV is reported by the first two lines of
    numpy's message, not by one line per bad row."""
    s4p = _run(["scatter", "--points", "64"], tmp_path / "sw") / "sweep.s4p"
    for name in ("SWEEP.S4P", "sweep.csv"):
        (tmp_path / name).write_bytes(s4p.read_bytes())
    lower, upper = ((_run(["tdr", "--input", str(path)], tmp_path / out)
                     / "peaks.json").read_bytes()
                    for path, out in ((s4p, "lo"), (tmp_path / "SWEEP.S4P",
                                                    "up")))
    assert upper == lower
    rc, err = _error_report(capsys, ["tdr", "--input",
                                     str(tmp_path / "sweep.csv")], tmp_path)
    assert rc == 2 and err["error"] == "ConfigError"
    ((field, message),) = err["violations"]
    assert field == "input" and len(message) < 300


def test_outputs_byte_identical_between_runs(tmp_path):
    args = ["nld-sim", "--f-pump", "3", "--f-probe", "7.1",
            "--pump-flux", "0.05", "--harmonics", "2", "--n-sidebands", "1"]
    a = _run(args, tmp_path / "a")
    b = _run(args, tmp_path / "b")
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "manifest.json":  # timestamps differ, checksums must not
            ma = json.loads((a / name).read_text())
            mb = json.loads((b / name).read_text())
            assert ma["outputs"] == mb["outputs"]
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    good = {"l_j_nH": 1, "c_g_pF": 0.1, "c_i_pF": 0.5, "plasma_ghz": 30,
            "n_cells": 10}
    for field, doc in [
            ("cell.l_j", dict(good, l_j_nH=-1)),
            ("l_j_nH", dict(good, l_j_nH="x")),
            ("defects[0].cell",
             dict(good, defects=[{"kind": "open_junction"}])),
            ("n_cels", dict(good, n_cels=10)),
            ("n_cells", dict(good, n_cells=10.5)),
            ("n_cells", dict(good, n_cells=1e300)),
            ("seed", dict(good, seed=-1, disorder_halfwidth=0.05)),
            ("defects[0].celll", dict(good, defects=[
                {"cell": 3, "kind": "open_junction", "celll": 5}])),
            # not truncated: 5.7 and true would name cells 5 and 1
            ("defects[0].cell", dict(good, defects=[{"cell": 5.7}])),
            ("defects[0].cell", dict(good, defects=[{"cell": True}])),
            ("defects[0].cell", dict(good, defects=[{"cell": "5"}]))]:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["dispersion", "--spec", str(bad),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"][0][0] == field


@pytest.mark.parametrize("argv", [
    ["phase-match", "--f-pump", "3"], ["envelope", "--f-pump", "3"],
    ["gaps-map", "--pump-points", "2"],
    ["nld-sim", "--f-pump", "3", "--f-probe", "7.1"],
    ["nld-map", "--pump-points", "1", "--probe-points", "1"]])
def test_both_pump_amplitudes_exit_code(tmp_path, capsys, argv):
    rc, err = _error_report(
        capsys, argv + ["--pump-eps", "0.05", "--pump-flux", "0.3"], tmp_path)
    assert rc == 2 and err["error"] == "ConfigError"
    ((field, message),) = err["violations"]
    assert field == "pump_eps"
    assert "--pump-eps" in message and "--pump-flux" in message
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("n_rows", [1, 2])
def test_tdr_short_csv_sweep_exit_code(tmp_path, capsys, n_rows):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("f_Hz,s_re,s_im\n" + "".join(
        f"{4e9 + 1e6 * i},0.1,0.2\n" for i in range(n_rows)))
    rc, err = _error_report(capsys, ["tdr", "--input", str(sweep)], tmp_path)
    assert rc == 3 and err["error"] == "NonUniformGrid"


def _tdr_csv(tmp_path):
    """A 64-point reflection sweep in tdr's CSV form."""
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("f_Hz,s_re,s_im\n" + "".join(
        f"{4e9 + 1e7 * i},{0.1 * math.cos(0.3 * i)},0.2\n"
        for i in range(64)))
    return sweep


@pytest.mark.parametrize("flag, value, field", [
    ("--velocity", "nan", "velocity"), ("--velocity", "-5", "velocity"),
    ("--velocity", "0", "velocity"), ("--velocity", "inf", "velocity"),
    ("--offset-ns", "inf", "offset_ns"), ("--offset-ns", "nan", "offset_ns"),
    ("--beta", "nan", "beta"), ("--beta", "-1", "beta"),
    ("--beta", "inf", "beta"), ("--beta", "800", "beta")])
def test_tdr_bad_flag_exit_code(tmp_path, capsys, flag, value, field):
    """A TDR flag that would write NaN, infinite or negative cells exits 2
    and names the flag, before any output is written."""
    sweep = _tdr_csv(tmp_path)
    argv = ["tdr", "--input", str(sweep), "--offset-ns", "-1.5", "--beta",
            "0"]
    _run(argv, tmp_path / "ok")       # finite offsets and beta 0 are fine
    rc, err = _error_report(capsys, argv + [flag, value], tmp_path)
    assert rc == 2 and err["error"] == "ConfigError"
    assert [f for f, _ in err["violations"]] == [field]
    assert not any((tmp_path / "o").iterdir())


def test_tdr_largest_finite_kaiser_beta_is_accepted(tmp_path):
    """Kaiser windows up to beta 709.78, where I0(beta) is still finite,
    write a finite impulse response."""
    sweep = _tdr_csv(tmp_path)
    for beta in ("700", "709.78"):
        out = _run(["tdr", "--input", str(sweep), "--beta", beta],
                   tmp_path / beta)
        rows = (out / "impulse.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(c)) for row in rows
                            for c in row.split(","))


def test_missing_input_exit_code(tmp_path):
    rc = main(["tdr", "--input", str(tmp_path / "nope.s4p"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 4


def _error_report(capsys, argv, tmp_path):
    rc = main(argv + ["--out-dir", str(tmp_path / "o")])
    return rc, json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("ports", ["1,2,3", "50,0,50,50", "50,nan,50,50",
                                   "50,inf,50,50", "a,b,c,d"])
def test_bad_port_impedances_exit_code(tmp_path, capsys, ports):
    rc, err = _error_report(capsys, ["scatter", "--points", "3",
                                     "--ports", ports], tmp_path)
    assert rc == 2 and err["violations"][0][0] == "ports"


@pytest.mark.parametrize("argv", [
    ["dispersion", "--f-min", "nan"], ["scatter", "--f-min", "nan"],
    ["scatter", "--f-max", "inf"], ["scatter", "--f-min", "0"],
    ["nld-map", "--probe-max", "nan", "--pump-flux", "0.04"]])
def test_bad_grid_exit_code(tmp_path, capsys, argv):
    rc, err = _error_report(capsys, argv, tmp_path)
    assert rc == 2 and err["violations"][0][0] == "grid"


@pytest.mark.parametrize("argv", [
    ["dispersion", "--points", "100000000000000000"],
    ["nld-map", "--probe-points", "100000000000000000", "--pump-flux",
     "0.05"]], ids=["dispersion", "nld-map"])
def test_unallocatable_count_exit_code(tmp_path, capsys, argv):
    # numpy refuses the 711 PiB grid, beyond any address space, before it
    # allocates any of it (numpy names its error MemoryError)
    rc, err = _error_report(capsys, argv, tmp_path)
    assert rc == 3 and err["error"] == "MemoryError" and err["message"]


def test_singular_network_exit_code(tmp_path, capsys, monkeypatch):
    # the single-frequency banded LU still serves figure S6's drive
    # profiles, the one unpumped command that factors a band
    def singular(*args, **kwargs):
        raise LinAlgError("singular matrix")
    monkeypatch.setattr("scipy.linalg.solve_banded", singular)
    rc, err = _error_report(capsys, ["reproduce-fig", "S6"], tmp_path)
    assert rc == 3 and err["error"] == "SingularNetwork"


@pytest.mark.parametrize("z", [0.0, math.nan], ids=["zero", "nan"])
def test_singular_sweep_exit_code(tmp_path, capsys, monkeypatch, z):
    # infinite or NaN port loads leave the swept S non-finite: scatter's
    # grid, and the defect neighbourhood whose S isolate sweeps
    monkeypatch.setattr(network, "port_impedances",
                        lambda net, omega: np.full(np.shape(omega) + (4,),
                                                   z))
    spec = _spec_file(tmp_path, defects=((165, "open_junction"),))
    for argv in (["scatter", "--points", "3"],
                 ["isolate", "--spec", str(spec), "--f-pump", "4.63",
                  "--eps-points", "1"]):
        rc, err = _error_report(capsys, argv, tmp_path)
        assert rc == 3 and err["error"] == "SingularNetwork", argv


def test_scatter_solves_in_one_sweep(tmp_path, monkeypatch):
    # the whole grid goes through one scattering_sweep, with no banded LU,
    # which takes its port impedances in one call (the Touchstone
    # reference takes one more, at the middle frequency)
    lu_calls, sweeps, impedances = [], [], []
    sweep, port_impedances = network.scattering_sweep, network.port_impedances

    def recorder(net, omegas):
        sweeps.append(len(omegas))
        return sweep(net, omegas)

    def z_recorder(net, omega):
        impedances.append(np.shape(omega))
        return port_impedances(net, omega)

    monkeypatch.setattr("scipy.linalg.solve_banded",
                        lambda *args, **kwargs: lu_calls.append(args))
    monkeypatch.setattr(network, "scattering_sweep", recorder)
    monkeypatch.setattr(network, "port_impedances", z_recorder)
    _run(["scatter", "--points", "5"], tmp_path / "s")
    assert lu_calls == [] and sweeps == [5]
    assert impedances == [(5,), ()]


@pytest.mark.parametrize("argv", [
    ["scatter", "--f-min", "32.9", "--f-max", "32.9", "--points", "1"],
    ["nld-sim", "--f-pump", "3", "--f-probe", "32.9", "--pump-flux", "0.05",
     "--harmonics", "2", "--n-sidebands", "1"],
], ids=["scatter", "nld-sim"])
def test_plasma_frequency_exits_cleanly(tmp_path, capsys, argv):
    # the series junction branch is open there: the Bloch impedance has
    # the limit 1 / y_sh, not real, so the ports fall back to low frequency
    assert GHZ * 32.9 == device.fitted_cell().plasma_omega
    rc = main(argv + ["--out-dir", str(tmp_path / "o")])
    if rc == 3:
        assert json.loads(capsys.readouterr().err)["error"]
        return
    assert rc == 0
    for path in (tmp_path / "o").iterdir():
        text = path.read_text().lower()     # blank CSV fields stand for NaN
        blank = path.suffix == ".csv" and (",," in text or ",\n" in text)
        assert "nan" not in text and "inf" not in text and not blank


def test_dispersion_at_plasma_frequency_warns_nothing(tmp_path):
    # the dispersion denominator is exactly zero there: both modes are
    # above cutoff, written as blank cells, and no numpy warning leaks
    out = _run(["dispersion", "--f-min", "32.9", "--f-max", "32.9",
                "--points", "1"], tmp_path / "o")
    assert (out / "dispersion.csv").read_text().splitlines()[1] == \
        "3.290000000000e+01,,,,"
    assert json.loads((out / "manifest.json").read_text())["warnings"] == []


@pytest.mark.parametrize("argv, field", [
    (["gaps-map", "--processes", "Ci,Xx"], "processes"),
    # a repeated process would solve and report each of its points twice
    (["gaps-map", "--processes", "Ci,Ci"], "processes"),
    (["nld-sim", "--f-pump", "3", "--f-probe", "7.1", "--pump-flux", "0.05",
      "--harmonics", "0"], "arguments"),
    (["nld-sim", "--f-pump", "3", "--f-probe", "7.1", "--pump-flux", "0.05",
      "--n-sidebands", "-1"], "arguments"),
    (["nld-map", "--pump-flux", "0.05", "--pump-ports", "9"], "arguments"),
    (["nld-map", "--pump-flux", "0.05", "--threads", "0"], "arguments"),
    (["isolate", "--f-pump", "4.63", "--eps-points", "0"], "arguments"),
    # the envelope model splits the line at one defect only
    (["isolate", "--f-pump", "4.63", "--spec", "TWO_DEFECTS"], "defects"),
    (["scatter", "--points", "abc"], "arguments"),
    (["scatter", "--no-such-flag"], "arguments"),
    (["tdr", "--input", "PROSE"], "input"),
    (["tdr", "--input", "COLUMNS"], "input"),
    (["tdr", "--input", "sweep.s4p", "--port", "4"], "arguments"),
    # reference comments that name no port or give no value, and an R
    # with no value
    (["tdr", "--input", "Z0_5"], "input"),
    (["tdr", "--input", "Z0_0"], "input"),
    (["tdr", "--input", "Z0_NO_VALUE"], "input"),
    (["tdr", "--input", "BARE_R"], "input"),
    # reference impedances that are not finite and positive
    *((["tdr", "--input", f"Z0_{key}"], "input")
      for key in ("NAN", "NEGATIVE", "ZERO", "INF", "R_ZERO", "R_NAN")),
    # the envelope model holds neither disorder nor (envelope) a defect
    (["isolate", "--f-pump", "4.63", "--spec", "DISORDERED"],
     "disorder_halfwidth"),
    (["envelope", "--f-pump", "3", "--pump-eps", "0.2", "--spec",
      "DISORDERED"], "disorder_halfwidth"),
    (["envelope", "--f-pump", "3", "--pump-eps", "0.2", "--spec",
      "ONE_DEFECT"], "defects"),
    (["nld-sim", "--f-pump", "3", "--f-probe", "7.1", "--pump-flux", "0.05",
      "--pump-ports", "3", "3"], "pump_ports"),
    (["nld-map", "--pump-flux", "0.05", "--pump-ports", "1", "3", "1"],
     "pump_ports"),
    # tdr and reproduce-fig build no line from --spec/--seed
    (["tdr", "--input", "sweep.s4p", "--spec", "x.json"], "arguments"),
    (["reproduce-fig", "S6", "--seed", "3"], "arguments"),
    # a NaN frequency, a NaN S and an infinite S, from a CSV and a .s4p
    *((["tdr", "--input", f"{key}_{kind}"], "input")
      for key in ("NAN_F", "NAN_S", "INF_S") for kind in ("CSV", "S4P")),
], ids=["unknown-process", "process-twice", "harmonics-0",
        "sidebands-negative", "port-9", "threads-0", "eps-points-0",
        "isolate-two-defects", "points-abc",
        "unknown-flag", "tdr-prose", "tdr-columns", "tdr-port-4",
        "tdr-z0-5", "tdr-z0-0", "tdr-z0-no-value", "tdr-bare-r",
        *(f"tdr-z0-{key}" for key in ("nan", "negative", "zero", "inf",
                                      "r-zero", "r-nan")),
        "isolate-disorder",
        "envelope-disorder", "envelope-defect",
        "nld-sim-port-twice", "nld-map-port-twice", "tdr-spec", "fig-seed",
        *(f"tdr-{key}-{kind}" for key in ("nan-f", "nan-s", "inf-s")
          for kind in ("csv", "s4p"))])
def test_bad_arguments_exit_code(tmp_path, capsys, argv, field):
    prose = tmp_path / "notes.md"      # text, not a sweep
    prose.write_text("# twpc\n\nA design toolkit, for two-mode lines.\n")
    columns = tmp_path / "sweep.csv"   # a CSV without the sweep columns
    columns.write_text("f,s\n1,2\n3,4\n")
    two = _spec_file(tmp_path, defects=((165, "open_junction"),
                                        (300, "open_junction")))
    files = {"PROSE": str(prose), "COLUMNS": str(columns),
             "TWO_DEFECTS": str(two),
             "DISORDERED": str(_spec_file(tmp_path, "disorder.json",
                                          disorder_halfwidth=0.05, seed=7)),
             "ONE_DEFECT": str(_spec_file(tmp_path, "defect.json", defects=(
                 (165, "open_junction"),)))}
    s4p = tmp_path / "good.s4p"         # a valid 32-point sweep, then edits
    write_touchstone(s4p, np.linspace(4e9, 8e9, 32),
                     np.full((32, 4, 4), 0.1 + 0.2j), [88.0, 36.0, 88.0, 36.0])
    good = s4p.read_text()
    for key, old, new in [("Z0_5", "! Z0[4]=", "! Z0[5]="),
                          ("Z0_0", "! Z0[1]=", "! Z0[0]="),
                          ("BARE_R", "R 88\n", "R\n"),
                          ("Z0_NO_VALUE", "! Z0[2]=36\n", "! Z0[2]\n"),
                          *((f"Z0_{key}", "! Z0[2]=36\n", f"! Z0[2]={z}\n")
                            for key, z in (("NAN", "nan"), ("NEGATIVE", "-5"),
                                           ("ZERO", "0"), ("INF", "inf"))),
                          ("Z0_R_ZERO", "R 88\n", "R 0\n"),
                          ("Z0_R_NAN", "R 88\n", "R nan\n")]:
        files[key] = str(tmp_path / f"{key}.s4p")
        Path(files[key]).write_text(good.replace(old, new))
    f = np.linspace(4e9, 8e9, 64)       # 64-point sweeps, one bad value
    for key, col, value in [("NAN_F", 0, math.nan), ("NAN_S", 1, math.nan),
                            ("INF_S", 1, math.inf)]:
        rows = np.column_stack([f, np.full(64, 0.1), np.full(64, 0.2)])
        rows[20, col] = value
        files[f"{key}_CSV"] = str(tmp_path / f"{key}.csv")
        Path(files[f"{key}_CSV"]).write_text("f_Hz,s_re,s_im\n" + "".join(
            f"{a!r},{b!r},{c!r}\n" for a, b, c in rows.tolist()))
        s = np.full((64, 4, 4), 0.1 + 0.2j)
        s[:, 0, 0] = rows[:, 1] + 0.2j
        files[f"{key}_S4P"] = str(tmp_path / f"{key}.s4p")
        write_touchstone(files[f"{key}_S4P"], rows[:, 0], s,
                         [88.0, 36.0, 88.0, 36.0])
    rc, err = _error_report(capsys, [files.get(a, a) for a in argv],
                            tmp_path)
    assert rc == 2 and err["error"] == "ConfigError"
    assert err["violations"][0][0] == field
    assert not (tmp_path / "o" / "manifest.json").exists()
    assert not (tmp_path / "o" / "impulse.csv").exists()


@pytest.mark.parametrize("figure, files", [
    ("2", [f"gaps_{kind}_{direction}.csv" for kind in ("Al", "Ci", "Co")
           for direction in ("bw", "fw")]),
    ("3b", ["isolation_defect.csv"]),
    ("S6", ["wave_profile.csv"]),
    ("S4", ["tdr_left.csv", "tdr_peaks.json", "tdr_right.csv"]),
])
def test_reproduce_fig_outputs(tmp_path, figure, files):
    out = _run(["reproduce-fig", figure], tmp_path / figure)
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(files + ["manifest.json"])
    if figure == "S4":
        # the open junction sits at cell 165 of 400, seen from both ends
        peaks = json.loads((out / "tdr_peaks.json").read_text())
        assert abs(peaks["left"]["cell"] - 165) < 28
        assert abs(peaks["right"]["cell"] - (400 - 165)) < 28
    if figure == "3b":
        rows = np.genfromtxt(out / "isolation_defect.csv", delimiter=",",
                             names=True)
        assert rows["forward_dB"][-1] < rows["backward_dB"][-1]


_REQUIRED = {"dispersion": [], "phase-match": ["--f-pump", "3"],
             "gaps-map": [], "envelope": ["--f-pump", "3"],
             "isolate": ["--f-pump", "4.63"], "scatter": [],
             "nld-sim": ["--f-pump", "3", "--f-probe", "7.1"],
             "nld-map": [], "tdr": ["--input", "sweep.s4p"],
             "reproduce-fig": ["2"]}


def test_every_subcommand_parses_threads_1():
    # the benchmark passes --threads 1 to every call it makes
    ap = build_parser()
    (commands,) = [a.choices for a in ap._actions if a.dest == "command"]
    assert set(commands) == set(_REQUIRED)
    for command, required in _REQUIRED.items():
        args = ap.parse_args([command, *required, "--threads", "1"])
        assert args.threads == 1


@pytest.mark.parametrize("threads", [1, 2], ids=["threads-1", "threads-2"])
def test_nld_map_solves_on_main_thread(tmp_path, monkeypatch, threads):
    # the benchmark's host-speed sampler runs in the main thread and reads
    # low if the solves move to a worker; --threads changes no output
    on_main = []
    solve = sidebands.transmission_map

    def recorder(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return solve(*args, **kwargs)

    argv = ["nld-map", "--pump-min", "3", "--pump-max", "3.5",
            "--pump-points", "2", "--probe-min", "5", "--probe-max", "5",
            "--probe-points", "1", "--pump-flux", "0.04", "--harmonics", "2",
            "--n-sidebands", "1", "--threads"]
    ref = _run(argv + ["1"], tmp_path / "ref") / "transmission_map.csv"
    monkeypatch.setattr(sidebands, "transmission_map", recorder)
    out = _run(argv + [str(threads)], tmp_path / "n")
    assert on_main == [True, True]
    assert (out / "transmission_map.csv").read_bytes() == ref.read_bytes()


def test_nld_map_blanks_a_pump_row_without_an_amplitude(tmp_path):
    """The 9.5 GHz pump lies above the 9.21 GHz Delta cutoff, so no
    amplitude gives it a junction flux: its row is blank and listed as a
    failed pump, and the other rows are still solved."""
    spec = _spec_file(tmp_path, n_cells=20)
    out = _run(["nld-map", "--spec", str(spec), "--pump-min", "8.5",
                "--pump-max", "9.5", "--pump-points", "3", "--probe-min",
                "4", "--probe-max", "6", "--probe-points", "3",
                "--pump-flux", "0.05", "--harmonics", "2",
                "--n-sidebands", "1"], tmp_path / "n")
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    above = [f for f in failures if f["f_pump_GHz"] == 9.5]
    assert len(above) == 1 and above[0]["f_probe_GHz"] is None
    assert "cutoff" in above[0]["reason"]
    rows = (out / "transmission_map.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    assert all(row.endswith(",,") for row in rows[6:])
    assert not any(row.endswith(",,") for row in rows[:3])


def test_nld_map_blanks_a_pump_row_without_an_orbit(tmp_path, monkeypatch):
    """A pump whose harmonic balance does not converge leaves its row
    blank and is listed as a failed pump; the other rows are solved."""
    solve = cli.pump_harmonic_balance

    def stall_at_4_ghz(net, omega_p, *args):
        if omega_p == 4 * GHZ:
            raise NonConvergence(12, 3.5e-4)
        return solve(net, omega_p, *args)

    monkeypatch.setattr(cli, "pump_harmonic_balance", stall_at_4_ghz)
    spec = _spec_file(tmp_path, n_cells=20)
    out = _run(["nld-map", "--spec", str(spec), "--pump-min", "3",
                "--pump-max", "4", "--pump-points", "2", "--probe-min", "5",
                "--probe-max", "5.5", "--probe-points", "2", "--pump-eps",
                "0.05", "--harmonics", "2", "--n-sidebands", "1"],
               tmp_path / "n")
    failures = json.loads((out / "manifest.json").read_text())["failures"]
    assert failures == [{"f_pump_GHz": 4.0, "f_probe_GHz": None,
                         "reason": str(NonConvergence(12, 3.5e-4))}]
    rows = (out / "transmission_map.csv").read_text().splitlines()[1:]
    assert [row.endswith(",,") for row in rows] == [False] * 2 + [True] * 2


@pytest.mark.parametrize("residual, shown", [(7.5e-7, "7.5e-07"),
                                             (math.inf, "null")])
def test_error_report_bytes_on_every_exit_path(tmp_path, capsys, monkeypatch,
                                               residual, shown):
    """stderr is one JSON line: "error", then "violations" (exit 2) or
    "message", then a NonConvergence's "iterations" and "residual" (a
    non-finite residual as null)."""
    def run(*argv):
        rc = main([*argv, "--out-dir", str(tmp_path / "o")])
        return rc, capsys.readouterr().err

    assert run("gaps-map", "--processes", "Ci,Xx") == (2, (
        '{"error": "ConfigError", "violations": [["processes", '
        '"give a comma list of Ci, Co, Al, each once"]]}\n'))
    def stall(*args):
        raise NonConvergence(96, residual)

    monkeypatch.setattr(cli, "pump_harmonic_balance", stall)
    assert run("nld-sim", "--f-pump", "3", "--f-probe", "7.1",
               "--pump-flux", "0.05") == (3, (
        '{"error": "NonConvergence", "message": "harmonic balance did not '
        f'converge after 96 iterations (residual {residual:.3e})", '
        f'"iterations": 96, "residual": {shown}}}\n'))
    assert run("phase-match", "--f-pump", "11", "--pump-eps", "0.1") == (3, (
        '{"error": "PumpAboveCutoff", "message": "Delta mode: omega = '
        '6.9115e+10 rad/s is at or above cutoff 5.78874e+10 rad/s"}\n'))
    missing = tmp_path / "missing.s4p"
    assert run("tdr", "--input", str(missing)) == (4, (
        '{"error": "IOError", "message": "[Errno 2] No such file or '
        f"directory: '{missing}'\"}}\n"))


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch):
    """main parses every call with one parser; a call after one that sets
    --pump-ports parses and records what a fresh parser gives."""
    base = ["nld-sim", "--f-pump", "3", "--f-probe", "7.1",
            "--pump-flux", "0.04", "--harmonics", "2", "--n-sidebands", "1"]
    fresh = build_parser.__wrapped__().parse_args(
        base + ["--out-dir", str(tmp_path / "1")])
    seen = []
    parse = cli._Parser.parse_args

    def recorder(self, *args, **kwargs):
        seen.append(parse(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli._Parser, "parse_args", recorder)
    assert build_parser() is build_parser()
    for i, extra in enumerate((["--pump-ports", "1", "3"], [])):
        _run(base + extra, tmp_path / str(i))
    assert len(seen) == 2 and seen[0].pump_ports == [1, 3]
    assert vars(seen[1]) == vars(fresh)
    config = {k: v for k, v in vars(fresh).items() if k != "func"}
    manifest = json.loads((tmp_path / "1" / "manifest.json").read_text())
    assert manifest["config"] == json.loads(json.dumps(config))

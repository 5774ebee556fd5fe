"""Property tests of the CLI error contract.

Any spec JSON document and any grid arguments given to ``dispersion``,
``phase-match`` or ``gaps-map`` (at most 3 pump points), and any pump and
probe given to ``nld-sim`` or a small ``nld-map`` on a 20-cell line, end
in exit code 0, 2 (bad config), 3 (solver failure) or 4 (I/O error), with
a strict JSON report on stderr whenever the code is not 0, and never in
an exception escaping ``main``.  Every blank cell of a map is a listed
failure.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twpc import device
from twpc.cli import main

#: a value of the spec's fitted preset, rescaled over many decades
NOMINAL = {"l_j_nH": 0.908, "c_g_pF": 0.126, "c_i_pF": 0.49,
           "plasma_ghz": 32.9, "c_j_fF": 27.0}

finite = st.floats(allow_nan=False, allow_infinity=False)
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.floats(), st.lists(st.integers(), max_size=2))


def _scaled(nominal):
    return st.builds(lambda e: nominal * 10.0 ** e, st.integers(-300, 300))


def _value(key):
    return st.one_of(_scaled(NOMINAL[key]), finite, junk)


defect = st.one_of(
    st.fixed_dictionaries({"cell": st.one_of(st.integers(-3, 500), junk)},
                          optional={"kind": st.one_of(
                              st.just("open_junction"), junk)}),
    st.integers(-3, 500), junk)

spec_docs = st.fixed_dictionaries(
    {},
    optional={**{k: _value(k) for k in NOMINAL},
              "n_cells": st.one_of(st.integers(-2, 10 ** 6), finite, junk),
              "disorder_halfwidth": st.one_of(st.floats(-0.1, 0.6), junk),
              "seed": st.one_of(st.integers(-2, 2 ** 70), junk),
              "defects": st.one_of(st.lists(defect, max_size=2), junk),
              "extra": junk})

spec_texts = st.one_of(
    spec_docs.map(json.dumps),
    st.builds(json.dumps, junk),
    st.text(max_size=20),
    st.binary(max_size=20).map(lambda b: b.decode("latin-1")))

# a grid bound as the shell would pass it: a number, an odd float or text
bound = st.one_of(st.floats(-1.0, 40.0).map(repr),
                  st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1e400",
                                   "5e-324", "x", ""]))
amplitude = st.one_of(
    st.tuples(st.sampled_from(["--pump-eps", "--pump-flux"]),
              st.one_of(st.floats(-1.0, 2.0).map(repr),
                        st.sampled_from(["nan", "inf", "0", "1e-300"]))),
    st.just(()))


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _contract(argv, spec_text, workdir):
    """Run main on argv with the spec file spec_text (None: no --spec);
    assert the error contract and return the exit code."""
    if spec_text is not None:
        spec = workdir / "spec.json"
        spec.write_bytes(spec_text.encode("latin-1", "replace"))
        argv = argv + ["--spec", str(spec)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv + ["--out-dir", str(workdir / "out")])
    assert rc in (0, 2, 3, 4)
    if rc:
        report = json.loads(err.getvalue(), parse_constant=_no_constant)
        assert isinstance(report, dict) and "error" in report
    else:
        assert err.getvalue() == ""
    return rc


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
_PUMPED = settings(_FUZZ, max_examples=25)


@_FUZZ
@given(spec_text=st.one_of(st.none(), spec_texts))
def test_spec_documents_keep_the_error_contract(tmp_path_factory, spec_text):
    workdir = tmp_path_factory.mktemp("spec")
    for argv in (["dispersion", "--points", "5"],
                 ["phase-match", "--f-pump", "3", "--pump-eps", "0.05"],
                 ["gaps-map", "--pump-points", "2", "--pump-eps", "0.05"]):
        _contract(argv, spec_text, workdir)


@_FUZZ
@given(lo=bound, hi=bound, points=st.integers(-2, 40),
       spec_text=st.one_of(st.none(), spec_docs.map(json.dumps)))
def test_dispersion_grids_keep_the_error_contract(tmp_path_factory, lo, hi,
                                                  points, spec_text):
    _contract(["dispersion", "--f-min", lo, "--f-max", hi,
               "--points", str(points)], spec_text,
              tmp_path_factory.mktemp("disp"))


@_FUZZ
@given(f_pump=bound, process=st.sampled_from(["Ci", "Co", "Al"]),
       amp=amplitude)
def test_phase_match_arguments_keep_the_error_contract(tmp_path_factory,
                                                       f_pump, process, amp):
    _contract(["phase-match", "--process", process, "--f-pump", f_pump,
               *amp], None, tmp_path_factory.mktemp("pm"))


@_FUZZ
@given(lo=bound, hi=bound, points=st.integers(-1, 3),
       processes=st.sampled_from(["Ci", "Co,Al", "Ci,Co,Al", "Xx", ""]),
       amp=amplitude)
def test_gaps_map_grids_keep_the_error_contract(tmp_path_factory, lo, hi,
                                                points, processes, amp):
    _contract(["gaps-map", "--pump-min", lo, "--pump-max", hi,
               "--pump-points", str(points), "--processes", processes,
               *amp], None, tmp_path_factory.mktemp("gaps"))


def test_undecodable_spec_is_a_config_error(tmp_path):
    for text in ("{", "\xff\xfe", "[1, 2]"):
        assert _contract(["dispersion", "--points", "3"], text,
                         tmp_path) == 2


@pytest.fixture(scope="module")
def short_line(tmp_path_factory):
    """Spec file of the fitted line cut to 20 cells."""
    p = tmp_path_factory.mktemp("line") / "spec.json"
    p.write_text(json.dumps(device.spec_to_json(device.fitted_line(20))))
    return p


# zero, tiny, moderate, strong and overflowing pump amplitudes
pump_amplitude = st.tuples(
    st.sampled_from(["--pump-eps", "--pump-flux"]),
    st.one_of(st.sampled_from(["0", "5e-324", "1e-300", "1e300"]),
              st.floats(0.0, 0.5).map(repr)))
# near 0, in band, above the Delta cutoff (9.2 GHz) and above both
pump_ghz = st.one_of(st.sampled_from([1e-9, 0.01, 3.0, 9.5, 40.0]),
                     st.floats(0.01, 12.0))
pumped_line = st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=3),   # may repeat
    st.integers(1, 3), st.integers(0, 2))


def _pumped_argv(spec, amp, ports, harmonics, n_sidebands):
    return ["--spec", str(spec), *amp, "--pump-ports", *map(str, ports),
            "--harmonics", str(harmonics), "--n-sidebands", str(n_sidebands)]


@_PUMPED
@given(f_pump=pump_ghz, probe=st.one_of(st.just("2 f_pump"),
                                        st.floats(0.01, 40.0)),
       amp=pump_amplitude, line=pumped_line)
def test_nld_sim_keeps_the_error_contract(tmp_path_factory, short_line,
                                          f_pump, probe, amp, line):
    f_probe = 2 * f_pump if probe == "2 f_pump" else probe
    _contract(["nld-sim", "--f-pump", repr(f_pump), "--f-probe",
               repr(f_probe), *_pumped_argv(short_line, amp, *line)], None,
              tmp_path_factory.mktemp("sim"))


@_PUMPED
@given(f_pump=pump_ghz, pump_points=st.integers(1, 2),
       probe_points=st.integers(1, 3), amp=pump_amplitude, line=pumped_line)
def test_nld_map_keeps_the_error_contract(tmp_path_factory, short_line,
                                          f_pump, pump_points, probe_points,
                                          amp, line):
    """The probe grid runs up from 2 f_pump, a sideband at zero frequency
    in the first pump row."""
    workdir = tmp_path_factory.mktemp("map")
    argv = ["nld-map", "--pump-min", repr(f_pump), "--pump-max",
            repr(1.5 * f_pump), "--pump-points", str(pump_points),
            "--probe-min", repr(2 * f_pump), "--probe-max",
            repr(2 * f_pump + 3), "--probe-points", str(probe_points),
            *_pumped_argv(short_line, amp, *line)]
    if _contract(argv, None, workdir):
        return
    failures = json.loads((workdir / "out" / "manifest.json").read_text())[
        "failures"]
    failed = {(f"{f['f_pump_GHz']:.12e}", None if f["f_probe_GHz"] is None
               else f"{f['f_probe_GHz']:.12e}") for f in failures}
    with open(workdir / "out" / "transmission_map.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == pump_points * probe_points
    for f_p, f_pr, s_fw, s_bw in rows:
        if "" in (s_fw, s_bw):
            assert {(f_p, f_pr), (f_p, None)} & failed

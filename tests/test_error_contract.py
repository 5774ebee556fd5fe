"""Property tests of the CLI error contract on the cheap subcommands.

Any spec JSON document and any grid arguments given to ``dispersion``,
``phase-match`` or ``gaps-map`` (at most 3 pump points) end in exit code
0, 2 (bad config), 3 (solver failure) or 4 (I/O error), with a JSON
report on stderr whenever the code is not 0, and never in an exception
escaping ``main``.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        report = json.loads(err.getvalue())
        assert isinstance(report, dict) and "error" in report
    else:
        assert err.getvalue() == ""
    return rc


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


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

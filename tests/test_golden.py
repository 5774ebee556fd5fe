"""Output identity: the commands of the four figures and of the four
benchmark workloads write the files recorded in golden.json.

The table holds, per run, its argv, exit code and either its manifest's
``outputs`` digests and ``failures`` plus a sample of each file's numbers,
or, for a run that fails, its stderr.  Digests depend on the numpy, scipy,
libc and BLAS/LAPACK builds and on the CPU features they dispatch on, so
the table records that fingerprint.  On the recorded host every digest and
byte of stderr must match; on any other, the sampled numbers must agree to
1e-9 relative (1e-12 of their column's largest value, at least).

Rewrite the table, and list each moved file with its largest relative
change and the reason in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

Before it writes, the rewrite prints the runs it adds or removes and, per
kept run, what moved: its exit code, stderr, failures or an output's digest.
"""

import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import platform
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from twpc import device
from twpc.cli import build_parser, main

TABLE_PATH = Path(__file__).with_name("golden.json")
SAMPLE = 120        # numbers sampled per output file
RTOL = 1e-9


def _runs(work: Path):
    """(key, argv) of every golden run in order; an argv may read what an
    earlier run wrote into work / key."""
    for fig in ("2", "3b", "S4", "S6"):
        yield f"fig{fig}", ["reproduce-fig", fig]
    yield "nld-map", ["nld-map", "--pump-flux", "0.05"]
    yield "scatter", ["scatter"]
    yield "tdr", ["tdr", "--input", str(work / "scatter" / "sweep.s4p")]
    # constant port references, which a renormalised Bloch file must not move
    for key, ports in (("lowfreq", "lowfreq"), ("z0", "50,30,50,30")):
        yield f"scatter-{key}", ["scatter", "--ports", ports, "--points",
                                 "201"]
    sim = ["nld-sim", "--f-probe", "7.1", "--pump-flux", "0.05", "--f-pump"]
    yield "nld-sim", sim + ["3"]
    # harmonic balance stalls near a third-harmonic resonance: exit 3
    yield "nld-sim-stall", sim + ["3.025064555251"]
    # pumps on two ports: the coupler (both Delta ports), as a point and a
    # small map, and a mixed Sigma + Delta pump off the parity sectors
    coupler = ["--pump-flux", "0.03", "--pump-ports", "1", "3"]
    yield "nld-sim-coupler", ["nld-sim", "--f-pump", "3.5", "--f-probe",
                              "6.54", *coupler]
    yield "nld-map-coupler", ["nld-map", "--pump-points", "2",
                              "--probe-points", "9", *coupler]
    yield "nld-sim-mixed", ["nld-sim", "--f-pump", "2.5", "--f-probe", "7.1",
                            "--pump-flux", "0.05", "--pump-ports", "0", "3"]
    yield "gaps-map", ["gaps-map", "--pump-flux", "0.12"]
    yield "dispersion", ["dispersion"]
    yield "envelope", ["envelope", "--process", "Ci", "--f-pump", "3",
                       "--pump-eps", "0.2"]
    yield "isolate", ["isolate", "--f-pump", "4.63"]
    # a 20-cell map whose 9.0 GHz pump does not converge and whose
    # 9.5 GHz pump is above the Delta cutoff: two blank rows
    short = work / "short.json"
    short.write_text(json.dumps(device.spec_to_json(device.fitted_line(20))))
    yield "nld-map-short", ["nld-map", "--spec", str(short), "--pump-min",
                            "8.5", "--pump-max", "9.5", "--pump-points", "3",
                            "--probe-min", "4", "--probe-max", "6",
                            "--probe-points", "3", "--pump-flux", "0.05",
                            "--harmonics", "2", "--n-sidebands", "1"]
    # pumped lines without electrode symmetry, solved on the nodes: an open
    # junction, and a disordered map whose three probes at f_probe =
    # 2 n f_pump fail
    opened = work / "open.json"
    opened.write_text(json.dumps(device.spec_to_json(device.fitted_line(
        defects=((165, "open_junction"),)))))
    yield "nld-sim-defect", ["nld-sim", "--spec", str(opened), "--f-pump",
                             "3", "--f-probe", "7.1", "--pump-flux", "0.05"]
    disorder = work / "disorder.json"
    disorder.write_text(json.dumps(device.spec_to_json(device.fitted_line(
        disorder_halfwidth=0.02, seed=3))))
    yield "nld-map-disorder", ["nld-map", "--spec", str(disorder),
                               "--pump-points", "2", "--probe-points", "9",
                               "--pump-flux", "0.05"]
    # the seed-0 inputs of the benchmark workloads (perfbench/workloads.py);
    # pumped_map's is the default map above (test_pumped_map_is_the_default)
    line = work / "line.json"
    defect = random.Random(0).randint(100, 300)
    line.write_text(json.dumps(device.spec_to_json(device.fitted_line(
        400, ((defect, "open_junction"),), 0.02, 0))))
    yield "linear_sweep/scatter", ["scatter", "--spec", str(line), "--f-min",
                                   "4", "--f-max", "8", "--points", "1601"]
    s4p = str(work / "linear_sweep" / "scatter" / "sweep.s4p")
    for port in ("0", "2"):
        yield f"linear_sweep/tdr{port}", ["tdr", "--input", s4p, "--port",
                                          port]
    yield "gap_map", ["gaps-map", "--processes", "Ci,Co,Al", "--pump-min",
                      "2.0", "--pump-max", "5.0", "--pump-points", "61",
                      "--pump-flux", "0.12"]
    for i, (f_p, flux) in enumerate((f_p, flux) for f_p in (2.0, 3.0, 4.0)
                                    for flux in (0.04, 0.06, 0.08)):
        drive = ["--f-pump", repr(f_p), "--pump-flux", repr(flux)]
        yield f"pump_sweep/match{i}", ["phase-match", "--process", "Ci",
                                       *drive]
        yield f"pump_sweep/env{i}", ["envelope", "--process", "Ci", *drive]
        with open(work / "pump_sweep" / f"match{i}" / "match_points.csv") as fh:
            f_s = next(csv.DictReader(fh))["f_s_GHz"]
        yield f"pump_sweep/sim{i}", ["nld-sim", "--f-probe", f_s, *drive]


def _columns(path: Path) -> dict:
    """A file's numbers by column: a CSV's by header (a blank cell is NaN),
    a Touchstone file's port impedances and 33 fields per frequency, a JSON
    document's by key path (None is NaN)."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = (line.split(",") for line in text.splitlines())
        return {h: [float(c) if c else math.nan for c in col]
                for h, col in zip(header, zip(*rows))}
    if path.suffix == ".s4p":
        lines = text.splitlines()
        fields = [float(t) for line in lines if line[0] not in "!#"
                  for t in line.split()]
        cols = {f"field{i}": fields[i::33] for i in range(33)}
        cols["Z0"] = [float(line.partition("=")[2]) for line in lines
                      if line.startswith("! Z0[")]
        return cols
    cols = {}

    def walk(doc, key):
        if isinstance(doc, dict):
            for k, v in doc.items():
                walk(v, f"{key}.{k}")
        elif isinstance(doc, list):
            for v in doc:
                walk(v, key)
        elif doc is None or isinstance(doc, (int, float)):
            cols.setdefault(key, []).append(
                math.nan if doc is None else float(doc))

    walk(json.loads(text), "")
    return cols


def _sample(path: Path) -> dict:
    """Evenly spaced numbers of each column, its blanks among them, with
    the column's length and largest finite magnitude."""
    cols = _columns(path)
    per = max(2, SAMPLE // max(len(cols), 1))
    out = {}
    for name, v in cols.items():
        v = np.array(v)
        at = np.union1d(np.linspace(0, len(v) - 1, min(per, len(v))).astype(int),
                        np.flatnonzero(np.isnan(v))[:per])
        finite = np.abs(v[np.isfinite(v)])
        out[name] = {"n": len(v),
                     "scale": float(finite.max()) if finite.size else 0.0,
                     "at": at.tolist(),
                     "v": [None if math.isnan(x) else x for x in v[at].tolist()]}
    return out


def _blas_cores() -> list:
    """The kernel family each OpenBLAS copy loaded by numpy and scipy
    picked for this CPU, where it can tell."""
    cores = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            for name in ("scipy_openblas_get_corename64_",
                         "scipy_openblas_get_corename",
                         "openblas_get_corename64_", "openblas_get_corename"):
                fn = getattr(ctypes.CDLL(lib), name, None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    cores.append(f"{pkg.__name__}: {fn().decode()}")
                    break
    return cores


def _fingerprint() -> dict:
    from numpy._core._multiarray_umath import __cpu_features__
    lapack = [f"{pkg.__name__}: {d['name']} {d['version']}"
              for pkg in (np, scipy) for d in
              [pkg.show_config(mode="dicts")["Build Dependencies"]["lapack"]]]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "libc": list(platform.libc_ver()),
            "lapack": lapack, "blas_core": _blas_cores(),
            "simd": sorted(k for k, on in __cpu_features__.items() if on)}


def _run_all(work: Path) -> dict:
    table = {}
    for key, argv in _runs(work):
        out = work / key
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out-dir", str(out)])
        entry = {"argv": [a.replace(str(work), "<work>") for a in argv],
                 "exit": code}
        if code:
            entry["stderr"] = err.getvalue()
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            entry["outputs"] = manifest["outputs"]
            if "failures" in manifest:
                entry["failures"] = manifest["failures"]
            entry["sample"] = {name: _sample(out / name)
                               for name in manifest["outputs"]}
        table[key] = entry
    return table


# a missing table has no runs, so test_table_covers_every_run fails
TABLE = json.loads(TABLE_PATH.read_text()) if TABLE_PATH.exists() else \
    {"fingerprint": None, "runs": {}}
SAME_HOST = _fingerprint() == TABLE["fingerprint"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    return work, _run_all(work)


def test_table_covers_every_run(runs):
    _, got = runs
    assert [(k, e["argv"]) for k, e in got.items()] == \
        [(k, e["argv"]) for k, e in TABLE["runs"].items()]


def test_pumped_map_is_the_default_map():
    """perfbench's pumped_map seed 0 spells out the default nld-map."""
    parse = build_parser().parse_args
    workload = parse(["nld-map", "--pump-min", "2.5", "--pump-max", "4.5",
                      "--pump-points", "5", "--probe-min", "4.0",
                      "--probe-max", "12.0", "--probe-points", "81",
                      "--pump-flux", "0.05", "--harmonics", "3",
                      "--n-sidebands", "2"])
    assert vars(workload) == vars(parse(TABLE["runs"]["nld-map"]["argv"]))


@pytest.mark.parametrize("key", list(TABLE["runs"]))
def test_outputs_match_the_golden_table(runs, key):
    want, got = TABLE["runs"][key], runs[1][key]
    assert got["exit"] == want["exit"]
    if SAME_HOST:
        assert got == want
        return
    if want["exit"]:
        assert json.loads(got["stderr"])["error"] == \
            json.loads(want["stderr"])["error"]
        return
    assert got["outputs"].keys() == want["outputs"].keys()
    assert [(f["f_pump_GHz"], f["f_probe_GHz"])
            for f in got.get("failures", ())] == \
        [(f["f_pump_GHz"], f["f_probe_GHz"])
         for f in want.get("failures", ())]
    for name, columns in want["sample"].items():
        numbers = _columns(runs[0] / key / name)
        for column, ref in columns.items():
            v = np.array(numbers[column])
            assert len(v) == ref["n"], (name, column)
            have, want_v = v[ref["at"]], np.array(ref["v"], float)
            assert np.array_equal(np.isnan(have), np.isnan(want_v))
            floor = 1e-3 * ref["scale"]
            tol = RTOL * np.maximum(np.maximum(abs(have), abs(want_v)), floor)
            ok = np.isnan(want_v) | (abs(have - want_v) <= tol)
            assert ok.all(), (name, column)


def test_known_failures_are_pinned(runs):
    """The stalled pump exits 3, and the default map keeps its 7 blank
    probes commensurate with the pump (f_probe = 2 n f_pump)."""
    work, got = runs
    assert got["nld-sim-stall"]["exit"] == 3
    assert json.loads(got["nld-sim-stall"]["stderr"])["error"] == \
        "NonConvergence"
    with open(work / "nld-map" / "transmission_map.csv") as fh:
        blank = [r for r in csv.DictReader(fh) if r["S_fw_dB"] == ""]
    assert len(blank) == 7
    for r in blank:
        ratio = float(r["f_probe_GHz"]) / float(r["f_pump_GHz"])
        assert ratio == pytest.approx(round(ratio / 2) * 2, abs=1e-9)


def _moved(old: dict, new: dict) -> list:
    """Lines naming the runs new adds to or removes from old and, for each
    run both hold, its exit code, stderr, failures and outputs that moved."""
    lines = [f"added run {k}" for k in new if k not in old]
    lines += [f"removed run {k}" for k in old if k not in new]
    for key in (k for k in new if k in old):
        was, now = old[key], new[key]
        moved = [f for f in ("exit", "stderr", "failures")
                 if was.get(f) != now.get(f)]
        outs = was.get("outputs", {}), now.get("outputs", {})
        moved += [name for name in {**outs[0], **outs[1]}
                  if outs[0].get(name) != outs[1].get(name)]
        lines += [f"{key}: {what} moved" for what in moved]
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"fingerprint": _fingerprint(), "runs": _run_all(Path(tmp))}
    if doc["fingerprint"] != TABLE["fingerprint"]:
        print("the host fingerprint moved", file=sys.stderr)
    for line in _moved(TABLE["runs"], doc["runs"]) or ["nothing moved"]:
        print(line, file=sys.stderr)
    with open(TABLE_PATH, "w") as fh:    # one line per run
        fh.write(f'{{"fingerprint": {json.dumps(doc["fingerprint"])},\n'
                 ' "runs": {\n' + ",\n".join(
                     f"  {json.dumps(k)}: {json.dumps(e)}"
                     for k, e in doc["runs"].items()) + "}}\n")
    print(f"wrote {TABLE_PATH}: {len(doc['runs'])} runs", file=sys.stderr)

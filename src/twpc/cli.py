"""Command-line interface: experiment orchestration and file emission.

Every subcommand writes its documented outputs into --out-dir together
with a run manifest (tool version, config hash, seed, timestamps,
per-output checksums and the warnings the run raised).  All numeric output
is deterministic for identical config + seed; only manifest timestamps
differ between runs.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import ctypes
import datetime
import functools
import hashlib
import itertools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, coupled_mode, device, dispersion, matching, \
    network, sidebands, tdr, touchstone
from .device import PHI0_BAR
from .dispersion import Mode
from .errors import ConfigError, NonConvergence, TwpcError
from .harmonic_balance import Drive, HarmonicBasis, incident_amplitude, \
    pump_harmonic_balance, pump_harmonics_at_ports
from .matching import ProcessKind

GHZ = 2e9 * math.pi
FLUX_Q = 2 * math.pi * PHI0_BAR

#: CSV cell types that the "%.12e" row template writes as _fmt would
_FLOATS = {float, np.float64}

#: requirement and test of an amplitude flag (see _check)
_AMPLITUDE = ("amplitude >= 0", lambda x: 0 <= x < math.inf)

_KIND = {"Ci": ProcessKind.Circulation, "Co": ProcessKind.TunableCoupling,
         "Al": ProcessKind.CirculationAliased}


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(x) -> str:
    """One CSV cell: numbers as %.12e, None and NaN blank, others as str."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.12e}" if isinstance(x, (int, float)) else str(x)


class Runner:
    """Collects outputs of one subcommand and writes the manifest."""

    def __init__(self, out_dir: str, config: dict, seed: int):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.seed = seed
        self.started = datetime.datetime.now(datetime.timezone.utc)
        self.files = []
        self.failures = None    # grid points a subcommand could not solve

    def path(self, name: str) -> Path:
        p = self.out / name
        self.files.append(p)
        return p

    def write_csv(self, name: str, header: list, rows) -> Path:
        p = self.path(name)
        floats = ",".join(["%.12e"] * len(header)) + "\n"
        rows = map(tuple, rows)
        with open(p, "w") as fh:
            fh.write(",".join(header) + "\n")
            # blocks of 256 rows stream; a block of full rows of floats,
            # none NaN, takes one template per row, others go cell by cell
            while block := list(itertools.islice(rows, 256)):
                cells = list(itertools.chain.from_iterable(block))
                if (set(map(len, block)) == {len(header)}
                        and _FLOATS.issuperset(map(type, cells))
                        and not any(map(math.isnan, cells))):
                    fh.writelines(map(floats.__mod__, block))
                else:
                    fh.writelines(",".join(map(_fmt, row)) + "\n"
                                  for row in block)
        return p

    def write_json(self, name: str, doc) -> Path:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return p

    def finish(self, caught) -> Path:
        """Write manifest.json; caught are the warnings the run raised."""
        counts = collections.Counter(
            (str(w.message), w.category.__name__) for w in caught)
        cfg_bytes = json.dumps(self.config, sort_keys=True).encode()
        manifest = {
            "tool": "twpc",
            "version": __version__,
            "config": self.config,
            "config_sha256": hashlib.sha256(cfg_bytes).hexdigest(),
            "seed": self.seed,
            "started": self.started.isoformat(),
            "finished": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
            "outputs": {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in self.files
            },
            "warnings": [{"category": category, "message": message,
                          "count": n}
                         for (message, category), n in sorted(counts.items())],
        }
        if self.failures is not None:
            manifest["failures"] = self.failures
        p = self.out / "manifest.json"
        with open(p, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return p


# ---------------------------------------------------------------------------
# shared option handling

def _load_spec(args) -> device.LineSpec:
    if args.spec:
        spec = device.load_spec(args.spec)
    else:
        spec = device.fitted_line()
    if args.seed is not None:
        spec = device.LineSpec(spec.cell, spec.n_cells, spec.defects,
                               spec.disorder_halfwidth, args.seed)
    return device.validate(spec)


def _pump_amplitude(args, cell, default=None):
    """Reduced pump amplitude eps(omega_p): the constant --pump-eps, or the
    amplitude giving the junction flux --pump-flux at omega_p.  At most one
    flag may be given; default, if not None, stands in for both missing."""
    _check(args, ("pump_eps", *_AMPLITUDE), ("pump_flux", *_AMPLITUDE))
    eps, flux = args.pump_eps, args.pump_flux
    if eps is not None and flux is not None:
        raise ConfigError([("pump_eps", "give --pump-eps or --pump-flux, "
                                        "not both")])
    if flux is not None:
        return lambda wp: dispersion.amplitude_from_flux(
            flux * FLUX_Q, dispersion.pump_wavevector(cell, wp, 0.0))
    eps = default if eps is None else eps
    if eps is None:
        raise ConfigError([("pump_eps", "give --pump-eps or --pump-flux")])
    return lambda wp: eps


def _check(args, *rules):
    """Reject each set flag in rules (name, requirement, test) failing test."""
    bad = [(name, f"need a finite {need}") for name, need, test in rules
           if (v := getattr(args, name)) is not None and not test(v)]
    if bad:
        raise ConfigError(bad)


def _omega(args, name="f_pump") -> float:
    """The frequency flag name (GHz) in rad/s, finite and positive."""
    f = getattr(args, name)
    if not 0 < f < math.inf:                            # also rejects NaN
        raise ConfigError([(name, "need a finite positive frequency")])
    return f * GHZ


def _pump_ports(args) -> tuple:
    """--pump-ports, each once: a repeated port would add its pump twice."""
    if len(set(args.pump_ports)) < len(args.pump_ports):
        raise ConfigError([("pump_ports", "give each pump port once")])
    return tuple(args.pump_ports)


def _grid(lo_ghz, hi_ghz, n) -> np.ndarray:
    if n < 1 or not 0 < lo_ghz <= hi_ghz < math.inf:   # also rejects NaN
        raise ConfigError([("grid", "need 1 or more finite positive "
                                    "frequencies in ascending order")])
    return np.linspace(lo_ghz, hi_ghz, n) * GHZ


# ---------------------------------------------------------------------------
# subcommands

def cmd_dispersion(args, runner):
    spec = _load_spec(args)
    cell = spec.cell
    rows = []
    for w in _grid(args.f_min, args.f_max, args.points):
        row = [w / GHZ]
        for mode in (Mode.Sigma, Mode.Delta):
            try:
                k = dispersion.wavevector(mode, w, cell)
                row += [k, w / k]
            except TwpcError:
                row += [None, None]
        rows.append((row[0], row[1], row[3], row[2], row[4]))
    runner.write_csv("dispersion.csv",
                     ["f_GHz", "k_sigma_rad_per_cell", "k_delta_rad_per_cell",
                      "v_sigma_cell_per_s", "v_delta_cell_per_s"], rows)


def cmd_phase_match(args, runner):
    spec = _load_spec(args)
    omega_p = _omega(args)
    eps = _pump_amplitude(args, spec.cell)(omega_p)
    pts = matching.solve_corrected(_KIND[args.process], omega_p, eps,
                                   spec.cell)
    runner.write_csv(
        "match_points.csv",
        ["f_s_GHz", "f_i_GHz", "f_p_GHz", "k_s_rad_per_cell",
         "k_i_rad_per_cell", "k_p_rad_per_cell", "kappa_rad_per_cell",
         "delta_rad_per_s"],
        [(p.omega_s / GHZ, p.omega_i / GHZ, p.omega_p / GHZ,
          p.k_s, p.k_i, p.k_p, p.kappa, p.delta) for p in pts])


def cmd_gaps_map(args, runner):
    spec = _load_spec(args)
    if not set(args.processes.split(",")) <= _KIND.keys():
        raise ConfigError([("processes", "give a comma list of Ci, Co, Al")])
    kinds = [_KIND[k] for k in args.processes.split(",")]
    pump = _grid(args.pump_min, args.pump_max, args.pump_points)
    eps = _pump_amplitude(args, spec.cell, default=0.0)
    curves, failures = matching.gap_map(kinds, pump, spec.cell, eps)
    runner.failures = [{"process": kind.value, "f_pump_GHz": wp / GHZ,
                        "reason": str(exc)} for kind, wp, exc in failures]
    if failures and not any(len(arr) for arr in curves.values()):
        raise failures[0][2]
    for (kind, direction), arr in sorted(
            curves.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)):
        runner.write_csv(
            f"gaps_{kind.value}_{direction.value}.csv",
            ["f_pump_GHz", "f_probe_GHz"],
            [(a / GHZ, b / GHZ) for a, b in arr])


def cmd_envelope(args, runner):
    spec = _load_spec(args)
    omega_p = _omega(args)
    eps = _pump_amplitude(args, spec.cell)(omega_p)
    kind = _KIND[args.process]
    pt = matching.solve_corrected(kind, omega_p, eps, spec.cell)[0]
    fw = eps if kind is ProcessKind.TunableCoupling else 0.0
    cfg = coupled_mode.ProcessConfig(pt, spec.n_cells, pump_fw=fw,
                                     pump_bw=eps)
    sol = coupled_mode.solve_uniform(cfg, 1.0)
    runner.write_csv(
        "envelope.csv",
        ["x_cell", "abs_eps_s", "abs_eps_i", "phase_s_rad", "phase_i_rad"],
        zip(sol.x.tolist(), map(abs, sol.eps_s.tolist()),
            map(abs, sol.eps_i.tolist()), np.angle(sol.eps_s).tolist(),
            np.angle(sol.eps_i).tolist()))
    runner.write_json("envelope_summary.json", {
        "f_s_GHz": pt.omega_s / GHZ, "f_i_GHz": pt.omega_i / GHZ,
        "alpha_per_cell": sol.alpha,
        "total_attenuation_dB":
            20 * math.log10(abs(sol.total_attenuation)),
    })


def _local_defect_smatrix(spec):
    """Scattering of the defect neighbourhood alone, cached per omega: a
    41-cell sub-chain with the defect at its center and image-matched
    ports."""
    sub = device.LineSpec(spec.cell, 41, ((20, "open_junction"),), 0.0,
                          spec.seed)
    return functools.cache(functools.partial(network.linear_scattering,
                                             network.build_chain(sub)))


def _isolation_curves(spec, omega_p, amplitudes, defect_cell):
    """Forward/backward attenuation (dB) of the circulation process vs
    pump amplitude, with optional defect and pump scattering."""
    if defect_cell is not None:
        sm = _local_defect_smatrix(spec)
    rows = []
    for eps in amplitudes:
        pt = matching.solve_corrected(ProcessKind.Circulation, omega_p,
                                      eps, spec.cell)[0]
        cfg = coupled_mode.ProcessConfig(pt, spec.n_cells, pump_bw=eps)
        if defect_cell is None:
            fw = coupled_mode.solve_uniform(cfg, 1.0).total_attenuation
            bw = 1.0
        else:
            fw, bw = coupled_mode.solve_with_defect(cfg, float(defect_cell),
                                                    sm, 1.0)
        rows.append((eps, 20 * math.log10(max(abs(fw), 1e-300)),
                     20 * math.log10(max(abs(bw), 1e-300))))
    return rows


def cmd_isolate(args, runner):
    spec = _load_spec(args)
    omega_p = _omega(args)
    _check(args, ("eps_min", *_AMPLITUDE), ("eps_max", *_AMPLITUDE))
    amplitudes = np.linspace(args.eps_min, args.eps_max, args.eps_points)
    if len(spec.defects) > 1:
        raise ConfigError([("defects", "isolate models one defect at most, "
                            f"not {len(spec.defects)}")])
    defect = spec.defects[0][0] if spec.defects else None
    rows = _isolation_curves(spec, omega_p, amplitudes, defect)
    runner.write_csv("isolation.csv",
                     ["pump_amplitude", "forward_dB", "backward_dB"], rows)


def cmd_scatter(args, runner):
    spec = _load_spec(args)
    ports = args.ports
    if ports not in ("bloch", "lowfreq"):
        ports = ports.split(",")
    net = network.build_chain(spec, ports)
    freqs = _grid(args.f_min, args.f_max, args.points)
    s = network.scattering_sweep(net, freqs)
    z = network.port_impedances(net, freqs[len(freqs) // 2])
    touchstone.write_touchstone(runner.path("sweep.s4p"),
                                freqs / (2 * math.pi), s, z)


def cmd_nld_sim(args, runner):
    spec = _load_spec(args)
    ports = _pump_ports(args)
    net = network.build_chain(spec)
    omega_p, omega_s = _omega(args), _omega(args, "f_probe")
    eps = _pump_amplitude(args, spec.cell)(omega_p)
    basis = HarmonicBasis(args.harmonics)
    drives = [Drive(p, omega_p, incident_amplitude(net, omega_p, p, eps))
              for p in ports]
    pump = pump_harmonic_balance(net, drives, basis)
    powers = pump_harmonics_at_ports(pump)
    runner.write_json("pump_solution.json", {
        "f_pump_GHz": args.f_pump,
        "pump_epsilon": eps,
        "harmonics": list(basis.orders),
        "iterations": pump.iterations,
        "residual": pump.residual,
        "peak_junction_flux_quanta": pump.peak_junction_flux() / FLUX_Q,
        "port_powers_W": powers.tolist(),
    })
    c = args.n_sidebands      # only the Sigma-L and Sigma-R probe columns
    sc = sidebands.signal_sidebands(net, pump, omega_s, c,
                                    [(c, 0), (c, 2)])
    s0 = sc.s0()
    rows = [(i - c, w / GHZ, q, abs(sc.s[i, q, c, 0]),
             bool(sc.propagating[i, q]))
            for i, w in enumerate(sc.freqs) for q in range(4)]
    runner.write_csv("sidebands.csv",
                     ["n", "f_GHz", "port", "abs_S_from_sigma_L",
                      "propagating"], rows)
    runner.write_json("scattering_summary.json", {
        "f_probe_GHz": args.f_probe,
        "S_fw_dB": 20 * math.log10(max(abs(s0[2, 0]), 1e-300)),
        "S_bw_dB": 20 * math.log10(max(abs(s0[0, 2]), 1e-300)),
    })


def cmd_nld_map(args, runner):
    spec = _load_spec(args)
    net = network.build_chain(spec)
    pump = _grid(args.pump_min, args.pump_max, args.pump_points)
    probe = _grid(args.probe_min, args.probe_max, args.probe_points)
    basis = HarmonicBasis(args.harmonics)
    eps = _pump_amplitude(args, spec.cell)
    ports = _pump_ports(args)

    def one_row(wp):
        return sidebands.transmission_map(
            net, wp, probe, eps(wp), ports, basis, args.n_sidebands)

    if args.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(args.threads) as pool:
            results = list(pool.map(one_row, pump))
    else:
        results = [one_row(wp) for wp in pump]

    rows = []
    runner.failures = []
    for wp, (fw, bw, failures) in zip(pump, results):
        rows += [(wp / GHZ, wpr / GHZ, a, b)
                 for wpr, a, b in zip(probe, fw, bw)]
        runner.failures += [
            {"f_pump_GHz": wp / GHZ,
             "f_probe_GHz": None if j is None else probe[j] / GHZ,
             "reason": reason} for j, reason in failures]
    runner.write_csv("transmission_map.csv",
                     ["f_pump_GHz", "f_probe_GHz", "S_fw_dB", "S_bw_dB"],
                     rows)


def cmd_tdr(args, runner):
    _check(args, ("velocity", "velocity > 0", lambda v: 0 < v < math.inf),
           ("offset_ns", "offset (ns)", math.isfinite),
           ("beta", "Kaiser beta >= 0", lambda b: 0 <= b < math.inf))
    try:
        if args.input.endswith(".s4p"):
            f, s, _ = touchstone.read_touchstone(args.input)
            trace = s[:, args.port, args.port]
        else:
            data = np.genfromtxt(args.input, delimiter=",", names=True,
                                 ndmin=1)
            f = data["f_Hz"]
            trace = data["s_re"] + 1j * data["s_im"]
    except ValueError as exc:     # unparsable numbers or missing columns
        raise ConfigError([("input", f"unreadable sweep: {exc}")])
    sweep = tdr.FrequencySweep(f, trace)
    imp = tdr.impulse_response(sweep, args.window, args.beta)
    runner.write_csv("impulse.csv", ["t_ns", "magnitude", "phase_rad"],
                     zip(imp.t_ns.tolist(), map(abs, imp.h.tolist()),
                         np.angle(imp.h).tolist()))
    report = {"resolution_ns": imp.resolution_ns, "window": imp.window}
    try:
        est = tdr.locate_defect(imp, args.velocity, args.offset_ns)
        report.update(cell=est.cell, uncertainty_cells=est.uncertainty_cells,
                      t_peak_ns=est.t_peak_ns, magnitude=est.magnitude)
    except TwpcError as exc:
        report["error"] = str(exc)
    runner.write_json("peaks.json", report)


# ---------------------------------------------------------------------------
# figure-reproduction pipelines (bundled fitted-parameter presets)

def _fig_gaps(args, runner):
    args.processes = "Ci,Co,Al"
    args.pump_min, args.pump_max, args.pump_points = 2.0, 5.0, 61
    args.pump_flux, args.pump_eps = 0.12, None
    cmd_gaps_map(args, runner)


def _fig_isolation(args, runner):
    spec = device.fitted_line(defects=((165, "open_junction"),))
    omega_p = 4.63 * GHZ
    amplitudes = np.linspace(0.01, 0.42, 22)
    rows = _isolation_curves(spec, omega_p, amplitudes, 165)
    runner.write_csv("isolation_defect.csv",
                     ["pump_amplitude", "forward_dB", "backward_dB"], rows)


def _fig_profile(args, runner):
    spec = device.fitted_line(defects=((165, "open_junction"),))
    net = network.build_chain(spec)
    cols = [range(spec.n_cells)]
    for port in (0, 3):                         # Sigma-L and Delta-R drives
        prof = network.wave_amplitude_profile(net, port, 5.0 * GHZ)
        cols += [map(abs, a.tolist()) for mode in (Mode.Sigma, Mode.Delta)
                 for a in prof[mode]]
    runner.write_csv("wave_profile.csv", ["cell"] + [
        f"drive_{drive}_{way}_{mode}" for drive in ("sigmaL", "deltaR")
        for mode in ("sigma", "delta") for way in ("fwd", "bwd")],
        zip(*cols))


def _fig_tdr(args, runner):
    spec = device.fitted_line(defects=((165, "open_junction"),))
    net = network.build_chain(spec)
    freqs = np.linspace(4e9, 8e9, 801)
    v = device.derive_constants(spec.cell).v_sigma0 / 1e9  # cell/ns
    s = network.scattering_sweep(net, 2 * math.pi * freqs)
    report = {}
    for port, label in ((0, "left"), (2, "right")):
        sweep = tdr.FrequencySweep(freqs, s[:, port, port])
        imp = tdr.impulse_response(sweep)
        est = tdr.locate_defect(imp, v)
        report[label] = {"cell": est.cell, "t_peak_ns": est.t_peak_ns,
                         "uncertainty_cells": est.uncertainty_cells}
        runner.write_csv(f"tdr_{label}.csv", ["t_ns", "magnitude"],
                         zip(imp.t_ns.tolist(), map(abs, imp.h.tolist())))
    report["resolution_ns"] = imp.resolution_ns     # the same for both ends
    runner.write_json("tdr_peaks.json", report)


def cmd_reproduce_fig(args, runner):
    {"2": _fig_gaps, "3b": _fig_isolation,
     "S6": _fig_profile, "S4": _fig_tdr}[args.figure](args, runner)


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a ConfigError instead of usage text."""

    def error(self, message):
        raise ConfigError([("arguments", message)])


def _count(lo: int):
    """argparse type: an integer no smaller than lo."""
    def count(text):
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"need an integer >= {lo}")
        return int(text)
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept: every call
    parses into a fresh namespace, and the defaults are immutable."""
    ap = _Parser(
        prog="twpc",
        description="two-mode Josephson transmission-line design toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, line=True):
        # --spec/--seed only where the subcommand builds its line from them
        if line:
            p.add_argument("--spec", help="LineSpec JSON file (default: "
                                          "bundled fitted parameters)")
            p.add_argument("--seed", type=int, default=None)
        else:
            p.set_defaults(spec=None, seed=None)
        p.add_argument("--threads", type=_count(1), default=1)
        p.add_argument("--out-dir", default=".")

    def pump_amplitude(p):
        p.add_argument("--pump-eps", type=float, default=None)
        p.add_argument("--pump-flux", type=float, default=None,
                       help="junction flux in flux quanta")

    def pumped_line(p):
        p.add_argument("--pump-ports", type=int, nargs="+", default=(3,),
                       choices=range(4))
        p.add_argument("--harmonics", type=_count(1), default=3)
        p.add_argument("--n-sidebands", type=_count(0), default=2)

    p = sub.add_parser("dispersion", help="mode dispersion curves")
    common(p)
    p.add_argument("--f-min", type=float, default=0.1)
    p.add_argument("--f-max", type=float, default=22.0)
    p.add_argument("--points", type=int, default=220)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("phase-match", help="solve the conservation system")
    common(p)
    p.add_argument("--process", choices=list(_KIND), default="Ci")
    p.add_argument("--f-pump", type=float, required=True, help="GHz")
    pump_amplitude(p)
    p.set_defaults(func=cmd_phase_match)

    p = sub.add_parser("gaps-map", help="gap-locus curves vs pump frequency")
    common(p)
    p.add_argument("--processes", default="Ci,Co,Al")
    p.add_argument("--pump-min", type=float, default=2.0)
    p.add_argument("--pump-max", type=float, default=5.0)
    p.add_argument("--pump-points", type=int, default=31)
    pump_amplitude(p)
    p.set_defaults(func=cmd_gaps_map)

    p = sub.add_parser("envelope", help="signal/idler envelope profiles")
    common(p)
    p.add_argument("--process", choices=list(_KIND), default="Ci")
    p.add_argument("--f-pump", type=float, required=True)
    pump_amplitude(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("isolate", help="attenuation vs pump amplitude")
    common(p)
    p.add_argument("--f-pump", type=float, required=True)
    p.add_argument("--eps-min", type=float, default=0.01)
    p.add_argument("--eps-max", type=float, default=0.4)
    p.add_argument("--eps-points", type=_count(1), default=20)
    p.set_defaults(func=cmd_isolate)

    p = sub.add_parser("scatter", help="linear 4-port sweep to Touchstone")
    common(p)
    p.add_argument("--f-min", type=float, default=4.0)
    p.add_argument("--f-max", type=float, default=8.0)
    p.add_argument("--points", type=int, default=1601)
    p.add_argument("--ports", default="bloch",
                   help="bloch | lowfreq | comma-separated 4 ohm values")
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("nld-sim", help="single pumped-line operating point")
    common(p)
    p.add_argument("--f-pump", type=float, required=True)
    p.add_argument("--f-probe", type=float, required=True)
    pump_amplitude(p)
    pumped_line(p)
    p.set_defaults(func=cmd_nld_sim)

    p = sub.add_parser("nld-map", help="pump x probe transmission map")
    common(p)
    p.add_argument("--pump-min", type=float, default=2.5)
    p.add_argument("--pump-max", type=float, default=4.5)
    p.add_argument("--pump-points", type=int, default=5)
    p.add_argument("--probe-min", type=float, default=4.0)
    p.add_argument("--probe-max", type=float, default=12.0)
    p.add_argument("--probe-points", type=int, default=81)
    pump_amplitude(p)
    pumped_line(p)
    p.set_defaults(func=cmd_nld_map)

    p = sub.add_parser("tdr", help="impulse response of a reflection sweep")
    common(p, line=False)
    p.add_argument("--input", required=True, help=".s4p or CSV sweep")
    p.add_argument("--port", type=int, default=0, choices=range(4))
    p.add_argument("--window", default="kaiser",
                   choices=["none", "kaiser", "hann"])
    p.add_argument("--beta", type=float, default=6.0)
    p.add_argument("--velocity", type=float, default=93.6, help="cell/ns")
    p.add_argument("--offset-ns", type=float, default=0.0)
    p.set_defaults(func=cmd_tdr)

    p = sub.add_parser("reproduce-fig", help="bundled figure pipelines")
    common(p, line=False)
    p.add_argument("figure", choices=["2", "3b", "S6", "S4"])
    p.set_defaults(func=cmd_reproduce_fig)
    return ap


@functools.cache
def _keep_freed_heap():
    """Fix glibc's malloc thresholds at the ceilings of their dynamic rule:
    blocks up to 32 MiB come from the heap, which is trimmed only above
    64 MiB of free top.  Left dynamic, both follow the largest block freed
    so far, and a Newton loop whose banded LU (scipy allocates two copies
    of the band per call) frees more than twice that at every step returns
    the memory to the system and faults it in again at the next step.  A
    no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)     # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = build_parser().parse_args(argv)
        config = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func",) and not callable(v)}
        runner = Runner(args.out_dir, config,
                        args.seed if args.seed is not None else 0)
        # also records warnings raised in --threads workers
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.func(args, runner)
        runner.finish(caught)
    except ConfigError as exc:
        json.dump({"error": "ConfigError",
                   "violations": exc.violations}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NonConvergence as exc:
        json.dump({"error": "NonConvergence", "message": str(exc),
                   "iterations": exc.iterations,
                   # a non-finite residual is no JSON number
                   "residual": exc.residual if math.isfinite(exc.residual)
                   else None}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except OSError as exc:
        json.dump({"error": "IOError", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 4
    except TwpcError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
from .device import FLUX_Q
from .dispersion import Mode
from .errors import ConfigError, NonConvergence, TwpcError
from .harmonic_balance import HarmonicBasis, pump_harmonic_balance, \
    pump_harmonics_at_ports
from .matching import ProcessKind

GHZ = 2e9 * math.pi

#: requirement and test of an amplitude flag (see _check)
_AMPLITUDE = ("amplitude >= 0", lambda x: 0 <= x < math.inf)

_KIND = {"Ci": ProcessKind.Circulation, "Co": ProcessKind.TunableCoupling,
         "Al": ProcessKind.CirculationAliased}


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(x: float) -> str:
    """One CSV cell: %.12e, NaN blank."""
    return "" if math.isnan(x) else f"{x:.12e}"


def _db(x) -> float:
    """20 log10 |x|, floored at -6000 dB (|x| = 1e-300)."""
    return 20 * math.log10(max(abs(x), 1e-300))


def _magnitude(z: np.ndarray) -> np.ndarray:
    """|z| as abs(complex) gives it, bit for bit, which np.abs does not."""
    return np.hypot(z.real, z.imag)


def _fmt_rows(block: np.ndarray) -> str:
    """The CSV rows of a 2-D float64 array, each cell as _fmt writes it.

    "%.12e" rounds the exact value to 13 digits, half to even.  Here |x| is
    scaled by an exact 10**(12 - e), e = floor(log10|x|), then by 10 where
    it left [1e12, 1e13) and e was off by one: two correctly rounded steps
    at most, so the result is within 2.3e-3 of its exact value, and its
    nearest integer (10**13 carrying into e) is exact unless it lies within
    0.005 of a half.  Those cells, non-finite ones and those with
    |12 - e| > 22 are formatted by _fmt."""
    digits, heads, exps, tens = touchstone._cell_words()
    v = block.ravel()
    a, finite = np.abs(v), np.isfinite(v)
    with np.errstate(all="ignore"):     # non-finite cells go to _fmt
        e = np.floor(np.log10(np.where(finite & (a > 0), a, 1.0))).astype(int)
        p = tens.take(np.minimum(abs(12 - e), 22))
        x = np.where(e <= 12, a * p, a / p)
        up, down = x >= 1e13, (x < 1e12) & (a > 0)
        x = np.where(up, x / 10, np.where(down, x * 10, x))
        e = e + up - down
        slow = ~finite | (abs(12 - e) > 22) | (abs(x % 1 - 0.5) < 0.005)
        n = np.rint(np.where(slow, 0.0, x)).astype(np.int64)
    carry = n == 10 ** 13
    n = np.where(carry, 10 ** 12, n)
    cells = np.zeros((*block.shape, 24), np.uint8)  # zero bytes are dropped
    words = cells.reshape(-1, 24).view(np.uint32)
    words[:, 0] = heads[n // 10 ** 12 + 10 * np.signbit(v)]
    words[:, 1:4] = digits[n[:, None] // [10 ** 8, 10 ** 4, 1] % 10 ** 4]
    words[:, 4] = exps[np.clip(e + carry, -99, 99) + 99]
    words.view("S24")[slow, 0] = [_fmt(x) for x in v[slow].tolist()]
    cells[..., 23] = ord(",")                   # after _fmt's zero padding
    cells[:, -1, 23] = ord("\n")
    return cells[cells != 0].tobytes().decode()


def _write_json(path: Path, doc) -> Path:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


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
        """Write header and rows, each cell as _fmt writes it.  rows is a
        2-D float64 array, formatted by _fmt_rows 2048 rows at a time to
        bound its memory, or an iterable of rows, formatted by one "%.12e"
        template per 256 rows; both write the same bytes.  A row not of
        len(header) numbers raises ValueError or TypeError."""
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(",".join(header) + "\n")
            if isinstance(rows, np.ndarray):
                if rows.ndim != 2 or rows.shape[1] != len(header):
                    raise ValueError(f"{name}: not {len(header)} columns")
                for i in range(0, len(rows), 2048):
                    fh.write(_fmt_rows(rows[i:i + 2048]))
                return p
            template = ",".join(["%.12e"] * len(header)) + "\n"
            rows = iter(rows)
            while block := list(itertools.islice(rows, 256)):
                if any(len(row) != len(header) for row in block):
                    raise ValueError(f"{name}: a row is not "
                                     f"{len(header)} cells long")
                # "%.12e" writes every NaN as "nan", and no number else
                cells = tuple(itertools.chain.from_iterable(block))
                fh.write(((template * len(block)) % cells).replace("nan", ""))
        return p

    def write_json(self, name: str, doc) -> Path:
        return _write_json(self.path(name), doc)

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
        return _write_json(self.out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# shared option handling

def _load_spec(args, *unmodelled) -> device.LineSpec:
    """The --spec line, re-seeded by --seed; each field in unmodelled, which
    the command's model would silently drop, must be unset."""
    spec = device.load_spec(args.spec) if args.spec else device.fitted_line()
    if args.seed is not None:
        spec = device.LineSpec(spec.cell, spec.n_cells, spec.defects,
                               spec.disorder_halfwidth, args.seed)
    bad = [(field, f"{args.command} cannot model {field}")
           for field in unmodelled if getattr(spec, field)]
    if bad:
        raise ConfigError(bad)
    return spec


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
                row += [math.nan, math.nan]
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
    names = args.processes.split(",")
    if not set(names) <= _KIND.keys() or len(set(names)) < len(names):
        raise ConfigError([("processes",
                            "give a comma list of Ci, Co, Al, each once")])
    kinds = [_KIND[k] for k in names]
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
    spec = _load_spec(args, "defects", "disorder_halfwidth")
    omega_p = _omega(args)
    eps = _pump_amplitude(args, spec.cell)(omega_p)
    kind = _KIND[args.process]
    pt = matching.solve_corrected(kind, omega_p, eps, spec.cell)[0]
    fw = eps if kind is ProcessKind.TunableCoupling else 0.0
    cfg = coupled_mode.ProcessConfig(pt, spec.n_cells, pump_fw=fw,
                                     pump_bw=eps)
    sol = coupled_mode.solve_uniform(cfg)
    runner.write_csv(
        "envelope.csv",
        ["x_cell", "abs_eps_s", "abs_eps_i", "phase_s_rad", "phase_i_rad"],
        np.column_stack([sol.x, _magnitude(sol.eps_s), _magnitude(sol.eps_i),
                         np.angle(sol.eps_s), np.angle(sol.eps_i)]))
    runner.write_json("envelope_summary.json", {
        "f_s_GHz": pt.omega_s / GHZ, "f_i_GHz": pt.omega_i / GHZ,
        "alpha_per_cell": sol.alpha,
        "total_attenuation_dB": _db(sol.total_attenuation),
    })


def _isolation_curves(spec, omega_p, amplitudes, defect_cell):
    """Forward/backward attenuation (dB) of the circulation process vs
    pump amplitude, with optional defect and pump scattering.  The defect
    scatters as a 41-cell sub-chain centred on it, with image-matched ports."""
    if defect_cell is not None:
        sub = network.build_chain(device.LineSpec(
            spec.cell, 41, ((20, "open_junction"),), 0.0, spec.seed))
    rows = []
    for eps in amplitudes:
        pt = matching.solve_corrected(ProcessKind.Circulation, omega_p,
                                      eps, spec.cell)[0]
        cfg = coupled_mode.ProcessConfig(pt, spec.n_cells, pump_bw=eps)
        if defect_cell is None:
            fw = coupled_mode.solve_uniform(cfg).total_attenuation
            bw = 1.0
        else:
            s = network.scattering_sweep(
                sub, [omega_p, pt.omega_s, pt.omega_i])
            fw, bw = coupled_mode.solve_with_defect(cfg, float(defect_cell), s)
        rows.append((eps, _db(fw), _db(bw)))
    return rows


def cmd_isolate(args, runner):
    spec = _load_spec(args, "disorder_halfwidth")
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
    pump = pump_harmonic_balance(net, omega_p, eps, ports, basis)
    powers = pump_harmonics_at_ports(pump)
    runner.write_json("pump_solution.json", {
        "f_pump_GHz": args.f_pump,
        "pump_epsilon": eps,
        "harmonics": list(basis.orders),
        "iterations": pump.iterations,
        "residual": pump.residual,
        "peak_junction_flux_quanta": pump.peak_junction_flux / FLUX_Q,
        "port_powers_W": powers.tolist(),
    })
    c = args.n_sidebands      # only the Sigma-L and Sigma-R probe columns
    sc = sidebands.signal_sidebands(pump, omega_s, c, [(c, 0), (c, 2)])
    s0 = sc.s0()
    rows = [(i - c, w / GHZ, q, abs(sc.s[i, q, c, 0]),
             bool(sc.propagating[i, q]))
            for i, w in enumerate(sc.freqs) for q in range(4)]
    runner.write_csv("sidebands.csv",
                     ["n", "f_GHz", "port", "abs_S_from_sigma_L",
                      "propagating"], rows)
    runner.write_json("scattering_summary.json", {
        "f_probe_GHz": args.f_probe,
        "S_fw_dB": _db(s0[2, 0]),
        "S_bw_dB": _db(s0[0, 2]),
    })


def cmd_nld_map(args, runner):
    spec = _load_spec(args)
    net = network.build_chain(spec)
    pump = _grid(args.pump_min, args.pump_max, args.pump_points)
    probe = _grid(args.probe_min, args.probe_max, args.probe_points)
    basis = HarmonicBasis(args.harmonics)
    eps = _pump_amplitude(args, spec.cell)
    ports = _pump_ports(args)
    rows = []
    runner.failures = []
    for wp in pump:     # --threads is accepted, the rows run serially
        try:
            fw, bw, failures = sidebands.transmission_map(
                pump_harmonic_balance(net, wp, eps(wp), ports, basis), probe,
                args.n_sidebands)
        except TwpcError as exc:    # no pump amplitude, orbit or band
            fw = bw = np.full(len(probe), np.nan)
            failures = [(None, str(exc))]
        rows += [(wp / GHZ, wpr / GHZ, _db(a), _db(b))
                 for wpr, a, b in zip(probe, fw, bw)]
        runner.failures += [
            {"f_pump_GHz": wp / GHZ,
             "f_probe_GHz": None if j is None else probe[j] / GHZ,
             "reason": reason} for j, reason in failures]
    runner.write_csv("transmission_map.csv",
                     ["f_pump_GHz", "f_probe_GHz", "S_fw_dB", "S_bw_dB"],
                     rows)


def cmd_tdr(args, runner):
    with np.errstate(over="ignore"):    # I0(beta) is inf past beta 709.78
        _check(args, ("velocity", "velocity > 0", lambda v: 0 < v < math.inf),
               ("offset_ns", "offset (ns)", math.isfinite),
               ("beta", "Kaiser window, beta >= 0",
                lambda b: 0 <= b < math.inf and np.isfinite(np.i0(b))))
    try:
        if args.input.lower().endswith(".s4p"):
            f, trace, _ = touchstone.read_touchstone(
                args.input, entry=(args.port, args.port))
        else:
            data = np.genfromtxt(args.input, delimiter=",", names=True,
                                 ndmin=1)
            f = data["f_Hz"]
            trace = data["s_re"] + 1j * data["s_im"]
    except (ValueError, ConfigError) as exc:    # also a malformed .s4p
        head = "\n".join(str(exc).splitlines()[:2])  # numpy lists all bad rows
        raise ConfigError([("input", f"unreadable sweep: {head}")])
    if not (np.isfinite(f).all() and np.isfinite(trace).all()):
        raise ConfigError([("input", "non-finite frequency or S value")])
    sweep = tdr.FrequencySweep(f, trace)
    imp = tdr.impulse_response(sweep, args.window, args.beta)
    runner.write_csv("impulse.csv", ["t_ns", "magnitude", "phase_rad"],
                     np.column_stack([imp.t_ns, _magnitude(imp.h),
                                      np.angle(imp.h)]))
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
    cols = [np.arange(spec.n_cells, dtype=float)]
    for port in (0, 3):                         # Sigma-L and Delta-R drives
        prof = network.wave_amplitude_profile(net, port, 5.0 * GHZ)
        cols += [_magnitude(a) for mode in (Mode.Sigma, Mode.Delta)
                 for a in prof[mode]]
    runner.write_csv("wave_profile.csv", ["cell"] + [
        f"drive_{drive}_{way}_{mode}" for drive in ("sigmaL", "deltaR")
        for mode in ("sigma", "delta") for way in ("fwd", "bwd")],
        np.column_stack(cols))


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
                         np.column_stack([imp.t_ns, _magnitude(imp.h)]))
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
    so far, and a Newton loop that builds its band anew (see
    harmonic_balance._newton_step) and whose banded LU (scipy allocates two
    copies of the band per call) frees more than twice that at every step
    returns the memory to the system and faults it in again at the next
    step.  A no-op where the C library has no mallopt."""
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
        config = {k: v for k, v in vars(args).items() if not callable(v)}
        runner = Runner(args.out_dir, config,
                        args.seed if args.seed is not None else 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.func(args, runner)
        runner.finish(caught)
    except (TwpcError, OSError, MemoryError) as exc:
        code = 2 if isinstance(exc, ConfigError) else \
            4 if isinstance(exc, OSError) else 3
        report = {"error": "IOError" if code == 4 else type(exc).__name__}
        if code == 2:
            report["violations"] = exc.violations
        else:
            report["message"] = str(exc)
        if isinstance(exc, NonConvergence):
            # a non-finite residual is no JSON number
            report.update(iterations=exc.iterations, residual=exc.residual
                          if math.isfinite(exc.residual) else None)
        json.dump(report, sys.stderr)
        sys.stderr.write("\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

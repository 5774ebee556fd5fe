"""The four benchmark workloads: seeded inputs, CLI invocations and gates.

Each workload is a closed loop with one client: ``run`` issues
``twpc.cli.main(argv)`` calls one after another in the current process.
``prepare`` writes the seeded input files before the timed region and
``gate`` checks the written outputs after it.  Seed 0 reproduces the
nominal inputs exactly; other seeds perturb them as each docstring says.

A gate returns (attempted, failed, problems): attempted and failed count
grid points, and a point fails when its CSV cell is blank, its CLI call
exited non-zero, or its correctness check fails.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.special import j0, j1

GHZ = 2e9 * math.pi


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str) -> float:
    return float(cell) if cell != "" else math.nan


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, threads: int = 1):
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = Path(work)
        self.threads = threads
        self.exit_codes = {}

    def prepare(self) -> None:
        """Write seeded input files; not timed."""

    def invocations(self):
        """Yield (key, argv) pairs; argv may depend on earlier outputs."""
        raise NotImplementedError

    def out(self, key: str) -> Path:
        return self.work / key

    def run(self, main) -> None:
        for key, argv in self.invocations():
            argv = list(argv) + ["--threads", str(self.threads),
                                 "--out-dir", str(self.out(key))]
            self.exit_codes[key] = main(argv)

    def gate(self):
        raise NotImplementedError

    def ok(self, key: str) -> bool:
        return self.exit_codes.get(key) == 0


# ---------------------------------------------------------------------------

class LinearSweep(Workload):
    """scatter of a seeded 400-cell line, then TDR from both ends.

    The line is the fitted preset with one open junction at a seeded cell
    in [100, 300] and uniform disorder of half-width 2% seeded by --seed.
    """

    name = "linear_sweep"
    points = 1601
    tdr_ports = (0, 2)
    tolerance_cells = 28.0      # 2 x the 14-cell TDR resolution

    def prepare(self):
        self.defect = self.rng.randint(100, 300)
        self.work.mkdir(parents=True, exist_ok=True)
        self.spec = self.work / "line.json"
        from twpc import device
        spec = device.fitted_line(400, ((self.defect, "open_junction"),),
                                  0.02, self.seed % 2 ** 32)
        self.spec.write_text(json.dumps(device.spec_to_json(spec)))

    def invocations(self):
        yield "scatter", ["scatter", "--spec", str(self.spec),
                          "--f-min", "4", "--f-max", "8",
                          "--points", str(self.points)]
        s4p = str(self.out("scatter") / "sweep.s4p")
        for port in self.tdr_ports:
            yield f"tdr{port}", ["tdr", "--input", s4p, "--port", str(port)]

    def gate(self):
        attempted = self.points + len(self.tdr_ports)
        problems = []
        failed = 0
        if self.ok("scatter"):
            s = read_s4p(self.out("scatter") / "sweep.s4p")
            if len(s) != self.points:
                problems.append(f"sweep has {len(s)} points")
            eye = np.eye(4)
            unitary = np.abs(np.conj(np.swapaxes(s, 1, 2)) @ s - eye)
            recip = np.abs(s - np.swapaxes(s, 1, 2))
            bad = ((unitary.max(axis=(1, 2)) >= 1e-8)
                   | (recip.max(axis=(1, 2)) >= 1e-8)
                   | ~np.isfinite(s).all(axis=(1, 2)))
            failed += int(bad.sum()) + self.points - len(s)
            if bad.any():
                problems.append(f"{int(bad.sum())} points not unitary "
                                "or not reciprocal")
        else:
            failed += self.points
            problems.append(f"scatter exit {self.exit_codes.get('scatter')}")
        for port in self.tdr_ports:
            key = f"tdr{port}"
            cell = None
            if self.ok(key):
                cell = json.loads(
                    (self.out(key) / "peaks.json").read_text()).get("cell")
            if cell is not None and port == 2:
                cell = 400 - cell
            if cell is None or abs(cell - self.defect) > self.tolerance_cells:
                failed += 1
                problems.append(f"port {port}: defect at {cell}, "
                                f"expected {self.defect}")
        return attempted, failed, problems


def read_s4p(path: Path) -> np.ndarray:
    """S (nf, 4, 4) from the RI Touchstone file written by ``scatter``."""
    numbers = []
    with open(path) as fh:
        for line in fh:
            if line.startswith(("!", "#")):
                continue
            numbers.extend(float(x) for x in line.split())
    data = np.asarray(numbers).reshape(-1, 33)[:, 1:].reshape(-1, 4, 4, 2)
    return data[..., 0] + 1j * data[..., 1]


# ---------------------------------------------------------------------------

class _Line:
    """Independent re-derivation of the fitted cell's dispersion, used only
    by the gates (the same closed forms as the paper, coded apart from the
    package so a broken fast path cannot vouch for itself)."""

    def __init__(self):
        self.l_j = 85.0 / 93.6e9
        self.c_g = 1.0 / (85.0 * 93.6e9)
        c_delta = 1.0 / (self.l_j * 30.15e9 ** 2)
        self.c = {"sigma": self.c_g, "delta": c_delta}
        self.c_j = 1.0 / (self.l_j * (2e9 * math.pi * 32.9) ** 2)

    def k(self, mode, omega, l_eff=None):
        """Wavevector at scalar or array omega; NaN outside the band."""
        l_eff = self.l_j if l_eff is None else l_eff
        w2 = omega * omega
        arg = 1.0 + self.c[mode] * l_eff * w2 / (-2.0 + 2.0 * self.c_j
                                                  * l_eff * w2)
        return np.arccos(np.where(abs(arg) <= 1.0, arg, np.nan))

    def pump(self, omega_p, flux_quanta):
        """(epsilon, k_p) of a Delta pump of the given junction flux."""
        k_lin = self.k("delta", omega_p)
        eps = 2.0 * math.pi * flux_quanta / (4.0 * math.sin(0.5 * k_lin))
        k = k_lin
        for _ in range(200):
            x = 4.0 * eps * math.sin(0.5 * k)
            l_spm = self.l_j * x / (2.0 * j1(x)) if x else self.l_j
            k_new = self.k("delta", omega_p, l_spm)
            if abs(k_new - k) < 1e-13:
                break
            k = k_new
        return eps, k_new

    def residual(self, kind, omega_p, omega_s, flux_quanta):
        eps, k_p = self.pump(omega_p, flux_quanta)
        l_xpm = self.l_j / j0(4.0 * eps * math.sin(0.5 * k_p))
        k_s = self.k("sigma", omega_s, l_xpm)
        if kind == "Co":
            return k_s - k_p
        k_i = self.k("sigma", omega_s + 2.0 * omega_p, l_xpm)
        if kind == "Ci":
            return k_s + k_i - 2.0 * k_p
        return k_s + k_i + 2.0 * k_p - 2.0 * math.pi

    def root_count(self, kind, omega_p, flux_quanta):
        """Matched signal frequencies at one pump: sign changes of the
        residual on a 1 MHz grid over the open signal band, whose top is
        scanned exactly because roots can sit within kHz of it (the
        solver scans a 10 MHz grid up to the same edge)."""
        eps, k_p = self.pump(omega_p, flux_quanta)
        l_xpm = self.l_j / j0(4.0 * eps * math.sin(0.5 * k_p))
        # sigma cutoff, where acos's argument reaches -1
        top = (1.0 - 1e-9) * math.sqrt(
            4.0 / (l_xpm * (self.c["sigma"] + 4.0 * self.c_j)))
        if kind != "Co":
            top -= 2.0 * omega_p
        omega_s = np.append(np.arange(1e-3 * GHZ, top, 1e-3 * GHZ), top)
        res = self.residual(kind, omega_p, omega_s, flux_quanta)
        res = res[np.isfinite(res)]
        return int(np.count_nonzero(np.diff(np.signbit(res))))


class GapMap(Workload):
    """gaps-map of Ci, Co and Al at fixed junction flux (the Fig. 2 grid).

    Seeds other than 0 shift the pump grid up by a seeded fraction of one
    step.
    """

    name = "gap_map"
    kinds = ("Ci", "Co", "Al")
    pump_points = 61
    flux = 0.12
    residual_tol = 1e-10        # solve_corrected's acceptance tolerance

    def prepare(self):
        step = 3.0 / (self.pump_points - 1)
        self.shift = 0.0 if self.seed == 0 else self.rng.random() * step

    def invocations(self):
        yield "gaps", ["gaps-map", "--processes", ",".join(self.kinds),
                       "--pump-min", repr(2.0 + self.shift),
                       "--pump-max", repr(5.0 + self.shift),
                       "--pump-points", str(self.pump_points),
                       "--pump-flux", repr(self.flux)]

    def gate(self):
        """Each (kind, pump) grid point must have as many fw and bw rows as
        the independent residual has roots there (one for Ci and Co; for
        Al none below 4.97684 GHz and one above, where the two root
        counts differ only within 1 kHz of the threshold), and each row
        must be matched."""
        attempted = len(self.kinds) * self.pump_points
        if not self.ok("gaps"):
            return attempted, attempted, [
                f"gaps-map exit {self.exit_codes.get('gaps')}"]
        line = _Line()
        # the requested pump grid (GHz), as gaps-map builds it
        pumps = np.linspace(2.0 + self.shift, 5.0 + self.shift,
                            self.pump_points)
        bad_points = set()
        problems = []
        for kind in self.kinds:
            fw = self._by_point(kind, "fw", pumps, bad_points, problems)
            bw = self._by_point(kind, "bw", pumps, bad_points, problems)
            for i, f_p in enumerate(pumps):
                want = line.root_count(kind, f_p * GHZ, self.flux)
                if not len(fw[i]) == len(bw[i]) == want:
                    bad_points.add((kind, i))
                    problems.append(f"{kind} f_p={f_p}: {len(fw[i])} fw and "
                                    f"{len(bw[i])} bw rows, {want} roots")
                    continue
                for rf, rb in zip(fw[i], bw[i]):
                    if not self._matched(line, kind, rf, rb, problems):
                        bad_points.add((kind, i))
        return attempted, len(bad_points), problems

    def _by_point(self, kind, direction, pumps, bad_points, problems):
        """Rows of one CSV grouped by pump grid index; a row off the grid
        fails the nearest point."""
        groups = [[] for _ in pumps]
        for r in _rows(self.out("gaps") / f"gaps_{kind}_{direction}.csv"):
            f_p = float(r["f_pump_GHz"])
            i = int(np.argmin(abs(pumps - f_p)))
            groups[i].append(r)
            if abs(pumps[i] - f_p) > 1e-11 * f_p:
                bad_points.add((kind, i))
                problems.append(f"{kind} {direction}: row at f_p={f_p} is "
                                "off the pump grid")
        return groups

    def _matched(self, line, kind, rf, rb, problems) -> bool:
        f_p, f_s, f_b = (float(rf["f_pump_GHz"]), float(rf["f_probe_GHz"]),
                         float(rb["f_probe_GHz"]))
        res = line.residual(kind, f_p * GHZ, f_s * GHZ, self.flux)
        # 13 significant digits in the CSV: allow the residual that a
        # relative 1e-12 error in f_s and f_p can produce (backward
        # difference: roots may sit just below the idler's cutoff).  Above
        # cutoff the residual is NaN and the row fails.
        h = 1e-6 * f_s
        dk = abs(res - line.residual(kind, f_p * GHZ, (f_s - h) * GHZ,
                                     self.flux)) / h
        slack = dk * 1e-12 * (abs(f_s) + 2 * abs(f_p))
        want_b = f_s if kind == "Co" else f_s + 2.0 * f_p
        if (abs(res) <= self.residual_tol + slack
                and abs(f_b - want_b) <= 1e-11 * abs(want_b)):
            return True
        problems.append(f"{kind} f_p={f_p}: residual {res:.3g}, "
                        f"bw {f_b} vs {want_b}")
        return False


# ---------------------------------------------------------------------------

class PumpedMap(Workload):
    """The default nld-map at 0.05 flux quanta: 5 pumps x 81 probes.

    Seeds other than 0 shift the pump grid up by a seeded fraction of one
    pump step.
    """

    name = "pumped_map"
    pump = (2.5, 4.5, 5)
    probe = (4.0, 12.0, 81)
    n_sidebands = 2
    flux = 0.05

    def prepare(self):
        lo, hi, n = self.pump
        step = (hi - lo) / (n - 1)
        self.shift = 0.0 if self.seed == 0 else self.rng.random() * step

    def invocations(self):
        lo, hi, n = self.pump
        yield "map", ["nld-map", "--pump-min", repr(lo + self.shift),
                      "--pump-max", repr(hi + self.shift),
                      "--pump-points", str(n),
                      "--probe-min", repr(self.probe[0]),
                      "--probe-max", repr(self.probe[1]),
                      "--probe-points", str(self.probe[2]),
                      "--pump-flux", repr(self.flux), "--harmonics", "3",
                      "--n-sidebands", str(self.n_sidebands)]

    def gap_centres(self, pumps_ghz):
        """Ci signal frequency (GHz) per pump, from the package solver."""
        from twpc import device, dispersion, matching
        cell = device.fitted_cell()
        out = []
        for f_p in pumps_ghz:
            k_lin = dispersion.pump_wavevector(cell, f_p * GHZ, 0.0)
            eps = dispersion.amplitude_from_flux(
                self.flux * 2 * math.pi * device.PHI0_BAR, k_lin)
            pts = matching.solve_corrected(matching.ProcessKind.Circulation,
                                           f_p * GHZ, eps, cell)
            out.append([p.omega_s / GHZ for p in pts])
        return out

    def gate(self):
        attempted = self.pump[2] * self.probe[2]
        if not self.ok("map"):
            return attempted, attempted, [
                f"nld-map exit {self.exit_codes.get('map')}"]
        rows = _rows(self.out("map") / "transmission_map.csv")
        if len(rows) != attempted:
            return attempted, attempted, [f"{len(rows)} map rows"]
        problems = []
        failed = 0
        step = (self.probe[1] - self.probe[0]) / (self.probe[2] - 1)
        pumps = sorted({r["f_pump_GHz"] for r in rows}, key=float)
        centres = self.gap_centres([float(p) for p in pumps])
        for f_p_str, centre in zip(pumps, centres):
            f_p = float(f_p_str)
            row = [r for r in rows if r["f_pump_GHz"] == f_p_str]
            best = None
            for r in row:
                f_s = float(r["f_probe_GHz"])
                fw, bw = _num(r["S_fw_dB"]), _num(r["S_bw_dB"])
                blank = math.isnan(fw) or math.isnan(bw)
                commensurate = any(
                    abs(f_s - 2 * n * f_p) <= 1e-9 * f_s
                    for n in range(1, self.n_sidebands + 1))
                if blank:
                    failed += 1
                    if not commensurate:
                        problems.append(f"blank cell at f_p={f_p}, "
                                        f"f_s={f_s}")
                    continue
                if commensurate:
                    problems.append(f"commensurate probe f_p={f_p}, "
                                    f"f_s={f_s} not blank")
                if fw > 1e-3 or bw > 1e-3:
                    failed += 1
                    problems.append(f"gain at f_p={f_p}, f_s={f_s}: "
                                    f"{fw}, {bw} dB")
                    continue
                if best is None or fw < best[1]:
                    best = (f_s, fw)
            if (best is None or best[1] >= -3.0 or not centre
                    or min(abs(best[0] - c) for c in centre) > step):
                failed += 1
                problems.append(f"f_p={f_p}: forward minimum {best}, "
                                f"Ci gap at {centre}")
        return attempted, failed, problems


# ---------------------------------------------------------------------------

class PumpSweep(Workload):
    """phase-match, envelope and nld-sim on a 3 x 3 grid of pump frequency
    and junction flux; nld-sim probes at the matched signal frequency read
    back from phase-match's output.

    The grid is the same for every seed: at 0.08 flux quanta the gate is
    not robust to moving f_p (harmonic balance does not converge at 2.97
    and 2.98 GHz, 2.99 GHz misses the 3 dB tolerance, and near 4 GHz the
    circuit's dip depth alternates between 7 and 17 dB below the envelope
    model's every 10 MHz).
    """

    name = "pump_sweep"
    pumps = (2.0, 3.0, 4.0)
    fluxes = (0.04, 0.06, 0.08)

    def prepare(self):
        self.grid = [(f_p, flux) for f_p in self.pumps for flux in self.fluxes]

    def invocations(self):
        for i, (f_p, flux) in enumerate(self.grid):
            drive = ["--f-pump", repr(f_p), "--pump-flux", repr(flux)]
            yield f"match{i}", ["phase-match", "--process", "Ci"] + drive
            yield f"env{i}", ["envelope", "--process", "Ci"] + drive
            if not self.ok(f"match{i}"):
                continue
            f_s = _rows(self.out(f"match{i}") / "match_points.csv")[0][
                "f_s_GHz"]
            yield f"sim{i}", ["nld-sim", "--f-probe", f_s] + drive

    def gate(self):
        problems = []
        failed = 0
        for i, (f_p, flux) in enumerate(self.grid):
            keys = (f"match{i}", f"env{i}", f"sim{i}")
            if not all(self.ok(k) for k in keys):
                failed += 1
                problems.append(f"f_p={f_p} flux={flux}: exit codes "
                                f"{[self.exit_codes.get(k) for k in keys]}")
                continue
            pump = json.loads(
                (self.out(keys[2]) / "pump_solution.json").read_text())
            summ = json.loads(
                (self.out(keys[2]) / "scattering_summary.json").read_text())
            env = json.loads(
                (self.out(keys[1]) / "envelope_summary.json").read_text())
            tol = 3.0 if f_p <= 3.0 else 8.0
            d_fw = abs(summ["S_fw_dB"] - env["total_attenuation_dB"])
            if (not pump["residual"] < 1e-10 or not d_fw < tol
                    or not abs(summ["S_bw_dB"]) < 0.5):
                failed += 1
                problems.append(
                    f"f_p={f_p} flux={flux}: residual {pump['residual']:.3g}"
                    f", |S_fw - envelope| {d_fw:.3g} dB (< {tol}), "
                    f"S_bw {summ['S_bw_dB']:.3g} dB")
        return len(self.grid), failed, problems


WORKLOADS = {w.name: w for w in (LinearSweep, GapMap, PumpedMap, PumpSweep)}

"""End-to-end acceptance checks.

Each test exercises a documented headline capability of the package at
its published tolerance, using only public interfaces.  They are
intentionally slower and more integrated than the per-module tests.
"""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from envelope_oracles import rk_total
from pump_bases import AllOrders

from twpc import device, tdr
from twpc.cli import main
from twpc.coupled_mode import ProcessConfig, attenuation_constant, \
    solve_uniform
from twpc.device import PHI0_BAR
from twpc.dispersion import Mode, amplitude_from_flux, cutoff, \
    pump_wavevector
from twpc.errors import NoSolutionInBand, TruncationWarning
from twpc.harmonic_balance import HarmonicBasis, pump_harmonic_balance, \
    pump_harmonics_at_ports
from twpc.matching import ProcessKind, solve_corrected
from twpc.network import linear_scattering
from twpc.sidebands import signal_sidebands

GHZ = 2e9 * math.pi
FLUX_Q = 2 * math.pi * PHI0_BAR


def _pump(net, f_ghz, flux_quanta, ports, harmonics=3):
    """Converged pump steady state at a given junction-flux setpoint."""
    w = f_ghz * GHZ
    k_p = pump_wavevector(net.cell, w, 0.0)
    eps = amplitude_from_flux(flux_quanta * FLUX_Q, k_p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        sol = pump_harmonic_balance(net, w, eps, ports,
                                    HarmonicBasis(harmonics))
    return sol, eps


def _forward_db(pump, omega):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        s0 = signal_sidebands(pump, omega).s0()
    return 20 * math.log10(abs(s0[2, 0]))


def _dip_offset_ghz(pump, omega_root, span_ghz=0.2, step_ghz=0.01):
    """Offset between the transmission minimum and a predicted gap center."""
    n = int(round(span_ghz / step_ghz))
    vals = []
    for m in range(-n, n + 1):
        w = omega_root + m * step_ghz * GHZ
        try:
            vals.append((_forward_db(pump, w), m))
        except Exception:
            continue
    depth, m = min(vals)
    return m * step_ghz, depth


# -------------------------------------------------------------------- 1

def test_design_velocities_and_impedances():
    c = device.design_cell()
    # agreement to the last quoted digit of the reference design values
    assert c.v_sigma0 / 1e9 == pytest.approx(90.4, abs=0.1)
    assert c.v_delta0 / 1e9 == pytest.approx(28.9, abs=0.1)
    assert c.z_sigma == pytest.approx(85.0, abs=1.0)
    assert c.z_delta == pytest.approx(27.0, abs=1.0)


# -------------------------------------------------------------------- 2

def test_fitted_cutoffs_near_quoted():
    cell = device.fitted_cell()
    f_sigma = cutoff(Mode.Sigma, cell) / GHZ
    f_delta = cutoff(Mode.Delta, cell) / GHZ
    assert f_sigma == pytest.approx(22.56, rel=0.05)
    assert f_delta == pytest.approx(9.44, rel=0.05)


# -------------------------------------------------------------------- 3

@pytest.mark.parametrize("f_p,flux_co", [(2.5, 0.03), (3.5, 0.03),
                                         (4.5, 0.02)])
def test_gap_map_matches_discrete_model(fitted_net, f_p, flux_co):
    cell = fitted_net.cell

    # circulation gap: one-directional pump counterpropagating with the
    # probe; the full-circuit transmission minimum sits on the predicted
    # gap center to within the map resolution (well under 100 MHz)
    pump, eps = _pump(fitted_net, f_p, 0.05, (3,))
    root = solve_corrected(ProcessKind.Circulation, f_p * GHZ, eps,
                           cell)[0].omega_s
    off, depth = _dip_offset_ghz(pump, root)
    assert abs(off) <= 0.1
    assert depth < -3.0

    # tunable-coupling gap: two counterpropagating pumps
    pump, eps = _pump(fitted_net, f_p, flux_co, (1, 3))
    root = solve_corrected(ProcessKind.TunableCoupling, f_p * GHZ, eps,
                           cell)[0].omega_s
    off, depth = _dip_offset_ghz(pump, root)
    assert abs(off) <= 0.1
    assert depth < -2.0

    # aliased circulation branch: at these pump frequencies the folded
    # momentum sum never closes, so the predicted overlay is empty here
    # (the branch only opens at stronger pumps, checked below)
    with pytest.raises(NoSolutionInBand):
        solve_corrected(ProcessKind.CirculationAliased, f_p * GHZ, 0.3,
                        cell)


def test_aliased_gap_appears_where_predicted(fitted_net):
    """At 5 GHz pump and 0.12 flux quanta the folded-momentum branch does
    open: a co-propagating pump carves a broad dip at the predicted
    band-edge resonance.  The attenuation band is bounded above by the
    cold-dispersion root and is deepest a few hundred MHz below it,
    where the gap hugs the renormalized cutoff."""
    pump, eps = _pump(fitted_net, 5.0, 0.12, (1,), harmonics=2)
    root = solve_corrected(ProcessKind.CirculationAliased, 5.0 * GHZ, eps,
                           fitted_net.cell)[0].omega_s
    assert _forward_db(pump, root) < -2.0
    off, depth = _dip_offset_ghz(pump, root, span_ghz=0.6,
                                 step_ghz=0.025)
    assert depth < -5.0
    assert -0.5 <= off < 0.0


# -------------------------------------------------------------------- 4

def test_attenuation_scaling_and_closed_form():
    cell = device.fitted_cell()
    amplitudes = np.geomspace(0.04, 0.37, 7)
    alphas, alpha_l = [], []
    for eps in amplitudes:
        pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, eps, cell)[0]
        cfg = ProcessConfig(pt, 400.0, pump_bw=eps)
        a = attenuation_constant(cfg)
        alphas.append(a)
        alpha_l.append(a * cfg.length)
        closed = solve_uniform(cfg).total_attenuation
        oracle = rk_total(cfg)
        diff = 20 * abs(math.log10(abs(closed) / abs(oracle)))
        assert diff < 0.5
    slope = np.polyfit(np.log(amplitudes), np.log(alphas), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.10)
    assert min(alpha_l) < 0.1 and max(alpha_l) > 3.0


# -------------------------------------------------------------------- 5

@pytest.mark.parametrize("f_p,fluxes,tol_db", [
    (2.0, (0.04, 0.06, 0.08), 3.0),
    (2.5, (0.04, 0.06, 0.08), 3.0),
    (3.0, (0.04, 0.06, 0.08), 3.0),
    (3.5, (0.04, 0.05), 8.0),
    (4.0, (0.04, 0.05), 8.0),
    (4.5, (0.04, 0.05), 8.0),
    (5.0, (0.04, 0.05), 8.0),
])
def test_discrete_vs_analytic_dip_depth(fitted_net, f_p, fluxes, tol_db):
    """Full-circuit gap depth vs the envelope model, both evaluated at the
    predicted gap center.  Low pump frequencies agree within 3 dB; toward
    the plasma-bent regime the continuum envelope model undershoots the
    circuit by up to the documented 8 dB."""
    cell = fitted_net.cell
    for flux in fluxes:
        pump, eps = _pump(fitted_net, f_p, flux, (3,))
        pt = solve_corrected(ProcessKind.Circulation, f_p * GHZ, eps,
                             cell)[0]
        analytic = 20 * math.log10(abs(solve_uniform(
            ProcessConfig(pt, 400.0, pump_bw=eps)).total_attenuation))
        discrete = _forward_db(pump, pt.omega_s)
        assert abs(discrete - analytic) < tol_db, (f_p, flux)


# -------------------------------------------------------------------- 6

def test_photon_flux_invariant():
    cell = device.fitted_cell()
    rng = np.random.default_rng(7)
    for _ in range(100):
        f_p = rng.uniform(2.0, 4.8)
        eps = rng.uniform(0.03, 0.3)
        length = rng.uniform(100.0, 800.0)
        pt = solve_corrected(ProcessKind.Circulation, f_p * GHZ, eps, cell)[0]
        sol = solve_uniform(ProcessConfig(pt, length, pump_bw=eps))
        eps_s0 = rng.normal() + 1j * rng.normal()
        eps_s, eps_i = eps_s0 * sol.eps_s, eps_s0 * sol.eps_i
        inv = pt.k_s * np.abs(eps_s) ** 2 + pt.k_i * np.abs(eps_i) ** 2
        scale = pt.k_s * np.abs(eps_s[0]) ** 2
        assert np.ptp(inv) / scale < 1e-9


# -------------------------------------------------------------------- 7

def test_defect_scattering_fractions(defect_net):
    s = linear_scattering(defect_net, 5 * GHZ)
    p = np.abs(s) ** 2
    assert p[2, 0] == pytest.approx(0.60, abs=0.10)   # Sigma transmitted
    assert p[1, 1] == pytest.approx(0.60, abs=0.10)   # Delta reflected
    assert p[1, 0] == pytest.approx(0.20, abs=0.10)   # leak per direction
    assert p[3, 0] == pytest.approx(0.20, abs=0.10)
    assert p[0, 0] == pytest.approx(0.05, abs=0.10)   # minor channels
    assert p[3, 1] == pytest.approx(0.05, abs=0.10)
    np.testing.assert_allclose(s.conj().T @ s, np.eye(4), atol=1e-8)


# -------------------------------------------------------------------- 8

def test_tdr_localizes_defect(defect_net):
    freqs = np.linspace(4e9, 8e9, 801)
    s = np.array([linear_scattering(defect_net, 2 * math.pi * f)
                  for f in freqs])
    estimates = {}
    for port in (0, 2):
        sweep = tdr.FrequencySweep(freqs, s[:, port, port])
        imp = tdr.impulse_response(sweep)
        assert imp.resolution_ns == pytest.approx(0.30, abs=0.01)
        estimates[port] = tdr.locate_defect(imp, v=93.6)
    assert abs(estimates[0].cell - 165) <= 28
    assert abs((400 - estimates[2].cell) - 165) <= 28


# -------------------------------------------------------------------- 9

def test_pump_harmonic_scaling(fitted_net):
    w = 2 * GHZ
    amplitudes = np.geomspace(0.004, 0.04, 5)
    p3 = []
    for eps in amplitudes:
        sol = pump_harmonic_balance(fitted_net, w, eps, [3],
                                    HarmonicBasis(3))
        p3.append(pump_harmonics_at_ports(sol)[:, 1].sum())
    slope = np.polyfit(np.log(amplitudes), np.log(p3), 1)[0]
    assert slope == pytest.approx(6.0, abs=0.3)
    # even harmonics are symmetry-forbidden on the uniform line
    sol = pump_harmonic_balance(fitted_net, w, 0.04, [3],
                                AllOrders(4))
    tot = pump_harmonics_at_ports(sol).sum(axis=0)  # orders 1..4
    assert tot[1] < 1e-6 * tot[2]


# ------------------------------------------------------------------- 10

def test_forward_only_attenuation(fitted_net):
    pump, eps = _pump(fitted_net, 3.0, 0.06, (3,))
    root = solve_corrected(ProcessKind.Circulation, 3 * GHZ, eps,
                           fitted_net.cell)[0].omega_s
    sc = signal_sidebands(pump, root)
    fw = 20 * math.log10(abs(sc.s0()[2, 0]))
    bw = 20 * math.log10(abs(sc.s0()[0, 2]))
    assert fw < -10.0
    # the unpumped line is transparent (0 dB), so the backward change is
    # just the pumped backward transmission itself
    assert abs(bw) < 0.5


# ------------------------------------------------------------------- 11

def _run_twice(args, base):
    outs = []
    for tag in ("a", "b"):
        out = base / tag
        assert main(args + ["--out-dir", str(out)]) == 0
        outs.append(out)
    return outs


@pytest.mark.parametrize("args", [
    ["dispersion", "--f-min", "1", "--f-max", "20", "--points", "40"],
    ["phase-match", "--f-pump", "3", "--pump-flux", "0.05"],
    ["scatter", "--f-min", "4", "--f-max", "8", "--points", "21"],
    ["gaps-map", "--pump-points", "3", "--pump-eps", "0.05",
     "--processes", "Ci,Co"],
])
def test_cli_outputs_byte_identical(tmp_path, args):
    a, b = _run_twice(args, tmp_path)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "manifest.json":
            # the manifest carries wall-clock timestamps; its recorded
            # output checksums must still agree exactly
            ma = json.loads((a / name).read_text())
            mb = json.loads((b / name).read_text())
            assert ma["outputs"] == mb["outputs"]
        else:
            ha = hashlib.sha256((a / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((b / name).read_bytes()).hexdigest()
            assert ha == hb, name

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from twpc import coupled_mode, device
from twpc.coupled_mode import (ProcessConfig, attenuation_constant,
                               bandwidth_estimate, solve_detuned,
                               solve_uniform, solve_with_defect)
from twpc.errors import WrongPropagationSigns
from twpc.matching import MatchPoint, ProcessKind, solve_corrected

GHZ = 2e9 * math.pi


def _config(eps=0.2, length=400.0, kind=ProcessKind.Circulation, **kw):
    pt = solve_corrected(kind, 3.0 * GHZ, eps, device.fitted_cell())[0]
    if kind is ProcessKind.TunableCoupling:
        kw.setdefault("pump_fw", eps)
    return ProcessConfig(pt, length, pump_bw=eps, **kw)


def _rk_total(cfg, kappa=0.0):
    """Runge-Kutta two-point oracle via superposition of IVP solutions."""
    c_i, c_s = coupled_mode._couplings(cfg)

    def rhs(x, y):
        u, v = y[0] + 1j * y[1], y[2] + 1j * y[3]
        du = 1j * c_i * v * np.exp(-1j * kappa * x)
        dv = 1j * c_s * u * np.exp(1j * kappa * x)
        return [du.real, du.imag, dv.real, dv.imag]

    def prop(y0):
        r = solve_ivp(rhs, (0.0, cfg.length), y0, rtol=1e-11, atol=1e-14)
        return r.y[:, -1]

    ya, yb = prop([1.0, 0, 0, 0]), prop([0, 0, 1.0, 0])
    va, vb = ya[2] + 1j * ya[3], yb[2] + 1j * yb[3]
    c = -va / vb
    return (ya[0] + 1j * ya[1]) + c * (yb[0] + 1j * yb[1])


def test_counterpropagation_enforced():
    with pytest.raises(WrongPropagationSigns):
        ProcessConfig(MatchPoint(ProcessKind.Circulation, 2 * GHZ, 4 * GHZ,
                                 GHZ, 0.5, 0.4, 0.6), 400.0)


def test_defect_solve_rejects_forward_pump_and_outside_defect():
    """The defect model launches its one pump, pump_bw, from Delta-R, and
    its defect must lie on the line."""
    with pytest.raises(ValueError, match="pump_fw"):
        solve_with_defect(_config(eps=0.1, pump_fw=0.1), 165.0,
                          _identity_smatrix)
    for x in (-1.0, 401.0, math.nan):
        with pytest.raises(ValueError, match="outside"):
            solve_with_defect(_config(eps=0.1), x, _identity_smatrix)


def test_attenuation_constant_formula():
    cfg = _config(eps=0.2)
    alpha = attenuation_constant(cfg)
    m = cfg.match
    expect = 0.25 * m.k_p ** 2 * math.sqrt(-m.k_i * m.k_s) * 0.2 ** 2
    assert alpha == pytest.approx(expect, rel=1e-12)
    # quadratic in pump amplitude
    cfg2 = _config(eps=0.1)
    a2 = attenuation_constant(cfg2)
    assert alpha / a2 == pytest.approx(4.0, rel=0.05)


def test_coupler_substitution_doubles_alpha():
    ci = _config(eps=0.15)
    co = _config(eps=0.15, kind=ProcessKind.TunableCoupling)
    a_ci = attenuation_constant(ci)
    a_co = attenuation_constant(co)
    co, ci = co.match, ci.match
    ratio = (a_co / (co.k_p ** 2 * math.sqrt(-co.k_i * co.k_s))) / \
            (a_ci / (ci.k_p ** 2 * math.sqrt(-ci.k_i * ci.k_s)))
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_uniform_closed_form_boundary_conditions():
    cfg = _config(eps=0.25)
    sol = solve_uniform(cfg, 1.0 + 0.5j)
    assert sol.eps_s[0] == pytest.approx(1.0 + 0.5j, rel=1e-12)
    assert abs(sol.eps_i[-1]) < 1e-12
    assert abs(sol.total_attenuation) == pytest.approx(
        2 * math.exp(-sol.alpha * cfg.length)
        / (1 + math.exp(-2 * sol.alpha * cfg.length)), rel=1e-12)
    assert 0 < abs(sol.total_attenuation) <= 1


def test_specific_attenuation_value():
    """alpha L = ln(10)/2 gives amplitude ratio 2*sqrt(10)/11 (-4.81 dB)."""
    cfg = _config(eps=0.25)
    alpha = attenuation_constant(cfg)
    cfg = dataclasses.replace(cfg, length=math.log(10.0) / 2.0 / alpha)
    sol = solve_uniform(cfg, 1.0)
    assert abs(sol.total_attenuation) == pytest.approx(
        2 * math.sqrt(10) / 11, rel=1e-12)


def test_idler_phase_convention():
    """eps_I near x=0 carries the -i e^{2i arg(eps_P)} sqrt(k_S/-k_I)
    factor relative to eps_S."""
    eps_p = 0.2 * np.exp(0.7j)
    pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, abs(eps_p),
                         device.fitted_cell())[0]
    cfg = ProcessConfig(pt, 2000.0, pump_bw=eps_p)
    sol = solve_uniform(cfg, 1.0)
    expect = -1j * np.exp(2j * 0.7) * math.sqrt(pt.k_s / -pt.k_i)
    deep = sol.eps_i[0] / sol.eps_s[0]
    assert deep == pytest.approx(expect * math.tanh(sol.alpha * cfg.length),
                                 rel=1e-9)


def test_total_attenuation_monotone_in_alpha_l():
    totals = [abs(solve_uniform(_config(eps=e), 1.0).total_attenuation)
              for e in (0.05, 0.1, 0.2, 0.3)]
    assert np.all(np.diff(totals) < 0)


def test_closed_form_matches_rk_oracle():
    for eps in (0.1, 0.2, 0.3):
        cfg = _config(eps=eps)
        sol = solve_uniform(cfg, 1.0)
        assert abs(sol.total_attenuation) == pytest.approx(abs(_rk_total(cfg)),
                                                           rel=1e-8)


def test_detuned_reduces_to_uniform_at_zero_kappa():
    cfg = _config(eps=0.22)
    a = solve_uniform(cfg, 1.0)
    b = solve_detuned(cfg, 0.0, 1.0)
    assert b.total_attenuation == pytest.approx(a.total_attenuation,
                                                rel=1e-10)
    np.testing.assert_allclose(np.abs(b.eps_s), np.abs(a.eps_s), rtol=1e-9,
                               atol=1e-12)


def test_detuned_attenuation_even_in_kappa_and_gap_edge():
    cfg = _config(eps=0.2)
    alpha = attenuation_constant(cfg)
    for kap in (0.3 * alpha, 1.2 * alpha):
        p = solve_detuned(cfg, +kap, 1.0).total_attenuation
        m = solve_detuned(cfg, -kap, 1.0).total_attenuation
        assert abs(p) == pytest.approx(abs(m), rel=1e-9)
    inside = abs(solve_detuned(cfg, 0.5 * alpha, 1.0).total_attenuation)
    outside = abs(solve_detuned(cfg, 8.0 * alpha, 1.0).total_attenuation)
    assert inside < outside  # evanescent inside the gap, oscillatory outside
    assert outside > 0.9


def test_detuned_matches_rk_oracle():
    cfg = _config(eps=0.2)
    alpha = attenuation_constant(cfg)
    for kap in (0.7 * alpha, 3.0 * alpha):
        got = solve_detuned(cfg, kap, 1.0).total_attenuation
        assert abs(got) == pytest.approx(abs(_rk_total(cfg, kap)), rel=1e-7)


def test_bandwidth_estimate_scaling():
    pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, 0.1,
                         device.fitted_cell())[0]
    b1 = bandwidth_estimate(ProcessConfig(pt, 400.0, pump_bw=0.1))
    b2 = bandwidth_estimate(ProcessConfig(pt, 400.0, pump_bw=0.2))
    assert b2 / b1 == pytest.approx(4.0, rel=1e-12)
    assert b1 == pytest.approx(
        0.5 * pt.k_p ** 2 * 0.01 * math.sqrt(pt.omega_i * pt.omega_s),
        rel=1e-12)


def _identity_smatrix(_omega):
    s = np.zeros((4, 4), complex)
    s[0, 2] = s[2, 0] = s[1, 3] = s[3, 1] = 1.0
    return s


def test_transparent_defect_recovers_uniform():
    eps = 0.2
    pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, eps,
                         device.fitted_cell())[0]
    cfg = ProcessConfig(pt, 400.0, pump_bw=eps)
    fw, bw = solve_with_defect(cfg, 165.0, _identity_smatrix, 1.0)
    ref = solve_uniform(cfg, 1.0)
    assert abs(fw) == pytest.approx(abs(ref.total_attenuation), rel=1e-9)
    # the reverse probe co-propagates with the one-directional pump:
    # a transparent junction leaves it completely untouched
    assert abs(bw) == pytest.approx(1.0, abs=1e-9)


def test_opaque_defect_blocks_signal():
    eps = 0.05
    pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, eps,
                         device.fitted_cell())[0]
    cfg = ProcessConfig(pt, 400.0, pump_bw=eps)
    fw, _ = solve_with_defect(cfg, 165.0,
                              lambda w: np.zeros((4, 4), complex), 1.0)
    assert abs(fw) < 1e-12


def test_backward_untouched_without_pump_or_defect():
    """One-directional pump, no defect: the reverse direction sees no
    coupling at all (ideal non-reciprocity)."""
    cfg = _config(eps=0.3)
    # reverse probe = same line with the pump co-propagating: pump_bw -> 0
    rev = ProcessConfig(cfg.match, cfg.length, pump_fw=0.3)
    sol = solve_uniform(rev, 1.0)
    assert abs(sol.total_attenuation) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(sol.eps_i) < 1e-12)

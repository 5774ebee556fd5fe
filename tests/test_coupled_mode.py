import dataclasses
import math

import numpy as np
import pytest
from envelope_oracles import (bandwidth_estimate, expm_propagator,
                              rk_total, rk_transfer, solve_detuned)

from twpc import coupled_mode, device
from twpc.coupled_mode import (ProcessConfig, attenuation_constant,
                               solve_uniform, solve_with_defect)
from twpc.errors import WrongPropagationSigns
from twpc.matching import MatchPoint, ProcessKind, solve_corrected

GHZ = 2e9 * math.pi


def _config(eps=0.2, length=400.0, kind=ProcessKind.Circulation, **kw):
    pt = solve_corrected(kind, 3.0 * GHZ, eps, device.fitted_cell())[0]
    if kind is ProcessKind.TunableCoupling:
        kw.setdefault("pump_fw", eps)
    return ProcessConfig(pt, length, pump_bw=eps, **kw)


def test_counterpropagation_enforced():
    with pytest.raises(WrongPropagationSigns):
        ProcessConfig(MatchPoint(ProcessKind.Circulation, 2 * GHZ, 4 * GHZ,
                                 GHZ, 0.5, 0.4, 0.6), 400.0)


def test_defect_solve_rejects_forward_pump_and_outside_defect():
    """The defect model launches its one pump, pump_bw, from Delta-R, and
    its defect must lie on the line."""
    with pytest.raises(ValueError, match="pump_fw"):
        solve_with_defect(_config(eps=0.1, pump_fw=0.1), 165.0,
                          _IDENTITY_S)
    for x in (-1.0, 401.0, math.nan):
        with pytest.raises(ValueError, match="outside"):
            solve_with_defect(_config(eps=0.1), x, _IDENTITY_S)


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
    sol = solve_uniform(cfg)
    assert sol.eps_s[0] == pytest.approx(1.0, rel=1e-12)
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
    sol = solve_uniform(cfg)
    assert abs(sol.total_attenuation) == pytest.approx(
        2 * math.sqrt(10) / 11, rel=1e-12)


def test_idler_phase_convention():
    """eps_I near x=0 carries the -i e^{2i arg(eps_P)} sqrt(k_S/-k_I)
    factor relative to eps_S."""
    eps_p = 0.2 * np.exp(0.7j)
    pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, abs(eps_p),
                         device.fitted_cell())[0]
    cfg = ProcessConfig(pt, 2000.0, pump_bw=eps_p)
    sol = solve_uniform(cfg)
    expect = -1j * np.exp(2j * 0.7) * math.sqrt(pt.k_s / -pt.k_i)
    deep = sol.eps_i[0] / sol.eps_s[0]
    assert deep == pytest.approx(expect * math.tanh(sol.alpha * cfg.length),
                                 rel=1e-9)


def test_total_attenuation_monotone_in_alpha_l():
    totals = [abs(solve_uniform(_config(eps=e)).total_attenuation)
              for e in (0.05, 0.1, 0.2, 0.3)]
    assert np.all(np.diff(totals) < 0)


def test_closed_form_matches_rk_oracle():
    for eps in (0.1, 0.2, 0.3):
        cfg = _config(eps=eps)
        sol = solve_uniform(cfg)
        assert abs(sol.total_attenuation) == pytest.approx(abs(rk_total(cfg)),
                                                           rel=1e-8)


def test_detuned_reduces_to_uniform_at_zero_kappa():
    cfg = _config(eps=0.22)
    a = solve_uniform(cfg)
    b = solve_detuned(cfg, 0.0)
    assert b.total_attenuation == pytest.approx(a.total_attenuation,
                                                rel=1e-10)
    np.testing.assert_allclose(np.abs(b.eps_s), np.abs(a.eps_s), rtol=1e-9,
                               atol=1e-12)


@pytest.mark.parametrize("f_p,eps", [(4.63, 0.42), (3.0, 0.2)])
def test_detuned_keeps_its_digits_deep_in_the_gap(f_p, eps):
    """At 4.63 GHz and 0.42 the line attenuates by -158 dB; a solve that
    subtracts two terms of size e^{alpha L} loses the total and the
    profiles there."""
    pt = solve_corrected(ProcessKind.Circulation, f_p * GHZ, eps,
                         device.fitted_cell())[0]
    cfg = ProcessConfig(pt, 400.0, pump_bw=eps)
    a, b = solve_uniform(cfg), solve_detuned(cfg, 0.0)
    assert b.total_attenuation == pytest.approx(a.total_attenuation,
                                                rel=1e-12, abs=0)
    np.testing.assert_allclose(b.eps_s, a.eps_s, rtol=1e-12, atol=0)
    np.testing.assert_allclose(b.eps_i, a.eps_i, rtol=1e-12, atol=0)


def test_detuned_attenuation_even_in_kappa_and_gap_edge():
    cfg = _config(eps=0.2)
    alpha = attenuation_constant(cfg)
    for kap in (0.3 * alpha, 1.2 * alpha):
        p = solve_detuned(cfg, +kap).total_attenuation
        m = solve_detuned(cfg, -kap).total_attenuation
        assert abs(p) == pytest.approx(abs(m), rel=1e-9)
    inside = abs(solve_detuned(cfg, 0.5 * alpha).total_attenuation)
    outside = abs(solve_detuned(cfg, 8.0 * alpha).total_attenuation)
    assert inside < outside  # evanescent inside the gap, oscillatory outside
    assert outside > 0.9


def test_detuned_matches_rk_oracle():
    cfg = _config(eps=0.2)
    alpha = attenuation_constant(cfg)
    for kap in (0.7 * alpha, 3.0 * alpha):
        got = solve_detuned(cfg, kap).total_attenuation
        assert abs(got) == pytest.approx(abs(rk_total(cfg, kap)), rel=1e-7)


def test_detuned_meets_far_boundary_condition_across_gap_edge():
    """v(L) = 0 holds inside the gap, at its edge |kappa| = 2 alpha (where
    the system matrix is defective) and outside it."""
    cfg = _config(eps=0.2)
    alpha = attenuation_constant(cfg)
    for kap in (0.5 * alpha, 2.0 * alpha, 8.0 * alpha):
        sol = solve_detuned(cfg, kap)
        assert abs(sol.eps_i[-1]) <= 1e-12 * np.max(np.abs(sol.eps_i))


def _assert_matches_expm(cfg, widths):
    ref = expm_propagator(cfg, 0.0, widths)
    err = np.abs(coupled_mode._propagator(cfg, widths) - ref)
    assert np.all(err.max(axis=(1, 2))
                  <= 1e-13 * np.abs(ref).max(axis=(1, 2)))


@pytest.mark.parametrize("f_p, eps", [(3.0, 0.2), (4.63, 0.42)])
def test_propagator_matches_expm(f_p, eps):
    """The closed-form exp(A x) against scipy's Pade expm under a complex
    pump, over widths of both signs; and with no pump, where s = 0."""
    pt = solve_corrected(ProcessKind.Circulation, f_p * GHZ, eps,
                         device.fitted_cell())[0]
    cfg = ProcessConfig(pt, 400.0, pump_bw=eps * np.exp(0.3j))
    widths = np.linspace(-400.0, 400.0, 81)
    _assert_matches_expm(cfg, widths)
    _assert_matches_expm(dataclasses.replace(cfg, pump_bw=0.0), widths)


def test_bandwidth_estimate_scaling():
    pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, 0.1,
                         device.fitted_cell())[0]
    b1 = bandwidth_estimate(ProcessConfig(pt, 400.0, pump_bw=0.1))
    b2 = bandwidth_estimate(ProcessConfig(pt, 400.0, pump_bw=0.2))
    assert b2 / b1 == pytest.approx(4.0, rel=1e-12)
    assert b1 == pytest.approx(
        0.5 * pt.k_p ** 2 * 0.01 * math.sqrt(pt.omega_i * pt.omega_s),
        rel=1e-12)


def _smatrices(entries):
    """One 4x4 S at the pump, signal and idler, as solve_with_defect takes
    them, (3, 4, 4): the {(row, column): value} entries, zeros elsewhere."""
    s = np.zeros((3, 4, 4), complex)
    for (row, col), value in entries.items():
        s[:, row, col] = value
    return s


_IDENTITY_S = _smatrices({(0, 2): 1.0, (2, 0): 1.0, (1, 3): 1.0,
                          (3, 1): 1.0})


def test_transparent_defect_recovers_uniform():
    """(4.63 GHz, 0.42) attenuates by -158 dB, where an elimination across
    the junction loses digits that the transfer-matrix product keeps."""
    for f_p, eps in ((3.0, 0.2), (4.63, 0.42)):
        pt = solve_corrected(ProcessKind.Circulation, f_p * GHZ, eps,
                             device.fitted_cell())[0]
        cfg = ProcessConfig(pt, 400.0, pump_bw=eps)
        fw, bw = solve_with_defect(cfg, 165.0, _IDENTITY_S)
        ref = solve_uniform(cfg)
        assert abs(fw) == pytest.approx(abs(ref.total_attenuation),
                                        rel=1e-12, abs=0.0)
        # the reverse probe co-propagates with the one-directional pump:
        # a transparent junction leaves it completely untouched
        assert abs(bw) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("f_p, eps", [(3.0, 0.2), (4.63, 0.42)])
def test_idler_blocking_defect_splits_line(f_p, eps):
    """A junction that passes the signal (t_s) and the pump but blocks the
    idler decouples the sections: each is a uniform line whose idler
    vanishes at the junction, so the total is t_s U(x_d) U(L - x_d)."""
    t_s = 0.6 * np.exp(0.3j)
    smatrix = _smatrices({(2, 0): t_s, (1, 3): 1.0})
    pt = solve_corrected(ProcessKind.Circulation, f_p * GHZ, eps,
                         device.fitted_cell())[0]
    x_d, length = 165.0, 400.0
    fw, _ = solve_with_defect(ProcessConfig(pt, length, pump_bw=eps), x_d,
                              smatrix)
    u1, u2 = (solve_uniform(ProcessConfig(pt, w, pump_bw=eps))
              .total_attenuation
              for w in (x_d, length - x_d))
    assert fw == pytest.approx(t_s * u1 * u2, rel=1e-12, abs=0.0)


def test_defect_sections_chain_in_order():
    """Sections whose pumps differ in phase do not commute, so the left one
    must act first.  Oracle: shoot across both Runge-Kutta sections with the
    junction conditions u -> t_s u and v_left = t_i v_right, and pick v(0)
    so that v(L) = 0."""
    t_s, t_i = 0.8 * np.exp(0.2j), 0.7 * np.exp(-0.4j)
    _, S_s, S_i = _smatrices({(2, 0): t_s, (0, 2): t_i})
    cfg = _config(eps=0.1)
    sections = ((165.0, 0.0, 0.1), (235.0, 0.0, 0.1 * np.exp(0.5j)))
    got = coupled_mode._defect_oneway(cfg, sections, S_s, S_i)
    m1, m2 = (rk_transfer(dataclasses.replace(cfg, pump_bw=bw), w)
              for w, _, bw in sections)
    a, b = (m2 @ np.diag([t_s, 1 / t_i]) @ m1 @ [1.0, v0] for v0 in (0, 1))
    v0 = -a[1] / (b[1] - a[1])
    assert got == pytest.approx(a[0] + v0 * (b[0] - a[0]), rel=1e-7)


def test_opaque_defect_blocks_signal():
    eps = 0.05
    pt = solve_corrected(ProcessKind.Circulation, 3 * GHZ, eps,
                         device.fitted_cell())[0]
    cfg = ProcessConfig(pt, 400.0, pump_bw=eps)
    fw, _ = solve_with_defect(cfg, 165.0, np.zeros((3, 4, 4), complex))
    assert abs(fw) < 1e-12


def test_backward_untouched_without_pump_or_defect():
    """One-directional pump, no defect: the reverse direction sees no
    coupling at all (ideal non-reciprocity)."""
    cfg = _config(eps=0.3)
    # reverse probe = same line with the pump co-propagating: pump_bw -> 0
    rev = ProcessConfig(cfg.match, cfg.length, pump_fw=0.3)
    sol = solve_uniform(rev)
    assert abs(sol.total_attenuation) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(sol.eps_i) < 1e-12)

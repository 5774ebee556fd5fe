import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0, j1

from twpc import device
from twpc.device import CellParams
from twpc.dispersion import (Mode, X_MAX_SPM, X_MAX_XPM,
                             amplitude_from_flux, cutoff, flux_from_amplitude,
                             group_velocity, phase_velocity, pump_wavevector,
                             spm_inductance, wavevector, xpm_inductance)
from twpc.errors import AboveCutoff, AmplitudeOutOfRange, PumpAboveCutoff

GHZ = 2e9 * math.pi


def _omega_of_k(mode, k, cell):
    """Independent inversion of the lattice dispersion relation."""
    c = cell.c_g if mode is Mode.Sigma else cell.c_g + 2 * cell.c_i
    one_m_cos = 1.0 - math.cos(k)
    return math.sqrt(2.0 * one_m_cos
                     / (cell.l_j * (c + 2.0 * cell.c_j * one_m_cos)))


@pytest.mark.parametrize("mode", list(Mode))
def test_wavevector_inverts_lattice_relation(mode):
    cell = device.fitted_cell()
    for f in (1.0, 3.0, 5.0, 8.0):
        w = f * GHZ
        k = wavevector(mode, w, cell)
        assert _omega_of_k(mode, k, cell) == pytest.approx(w, rel=1e-12)


def test_low_frequency_limit_is_linear():
    cell = device.fitted_cell()
    c = device.derive_constants(cell)
    w = 0.01 * GHZ
    assert wavevector(Mode.Sigma, w, cell) == pytest.approx(w / c.v_sigma0,
                                                            rel=1e-4)
    assert wavevector(Mode.Delta, w, cell) == pytest.approx(w / c.v_delta0,
                                                            rel=1e-4)


def test_wavevector_accepts_arrays():
    cell = device.fitted_cell()
    w = np.array([1.0, 2.0, 5.0]) * GHZ
    ks = wavevector(Mode.Sigma, w, cell)
    assert ks.shape == (3,)
    assert ks[0] == pytest.approx(wavevector(Mode.Sigma, w[0], cell))
    # a float omega (Python or numpy) takes the scalar path, which must
    # give the array path's floats bit for bit, with no pump, under SPM
    # (a pump's own inductance) and under XPM (a weak wave's)
    rng = np.random.default_rng(15)
    k_p = pump_wavevector(cell, 3.0 * GHZ, 0.3)
    for mode in Mode:
        for l_eff in (None, spm_inductance(cell.l_j, 0.3, k_p),
                      xpm_inductance(cell.l_j, 0.3, k_p)):
            co = cutoff(mode, cell, l_eff)
            w = np.append(rng.uniform(0.0, co, 500),
                          co * (1.0 - np.array([1e-9, 1e-12, 1e-15])))
            ks = wavevector(mode, w, cell, l_eff)
            for x, k in zip(w, ks):
                for scalar in (x, float(x)):
                    got = wavevector(mode, scalar, cell, l_eff)
                    assert type(got) is float and got.hex() == k.hex()
            for x in (co * 1.001, 0.5 * (co + cell.plasma_omega),
                      2.0 * cell.plasma_omega):
                with pytest.raises(AboveCutoff) as from_scalar:
                    wavevector(mode, x, cell, l_eff)
                with pytest.raises(AboveCutoff) as from_array:
                    wavevector(mode, np.array([x]), cell, l_eff)
                assert str(from_scalar.value) == str(from_array.value)
            assert math.isnan(wavevector(mode, math.nan, cell, l_eff))
            assert np.isnan(wavevector(mode, np.array([math.nan]), cell,
                                       l_eff)).all()


@pytest.mark.parametrize("mode", list(Mode))
def test_zero_denominator_raises_above_cutoff(mode):
    # at the junction plasma frequency the dispersion relation's
    # denominator -2 + 2 C_J L omega^2 is exactly zero
    cell = device.fitted_cell()
    w = cell.plasma_omega
    assert type(w) is float
    assert -2.0 + 2.0 * cell.c_j * cell.l_j * w * w == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AboveCutoff) as from_scalar:
            wavevector(mode, w, cell)
        # the array path neither warns (divide by zero) before it raises
        with pytest.raises(AboveCutoff) as from_array:
            wavevector(mode, np.array([1e9, w]), cell)
    assert str(from_array.value) == str(from_scalar.value)


@pytest.mark.parametrize("mode", list(Mode))
def test_above_cutoff_raises(mode):
    cell = device.fitted_cell()
    co = cutoff(mode, cell)
    with pytest.raises(AboveCutoff):
        wavevector(mode, co * 1.001, cell)
    # just below works and approaches the zone boundary
    assert wavevector(mode, co * (1 - 1e-9), cell) == pytest.approx(math.pi,
                                                                    abs=1e-3)


def test_monotonic_wavevector_and_decreasing_phase_velocity():
    cell = device.fitted_cell()
    for mode in Mode:
        w = np.linspace(0.05, 0.999, 400) * cutoff(mode, cell)
        k = wavevector(mode, w, cell)
        assert np.all(np.diff(k) > 0)
        assert np.all(np.diff(w / k) < 0)


def test_group_below_phase_velocity():
    cell = device.fitted_cell()
    w = 5 * GHZ
    assert group_velocity(Mode.Sigma, w, cell) \
        < phase_velocity(Mode.Sigma, w, cell)


def test_bessel_renormalization_against_scipy():
    l_j = 1e-9
    # validity bounds sit where the retained Bessel factor reaches 1/2
    assert 2 * j1(X_MAX_SPM) / X_MAX_SPM == pytest.approx(0.5, abs=1e-12)
    assert j0(X_MAX_XPM) == pytest.approx(0.5, abs=1e-12)
    # the written-out bounds are the root finder's floats, exactly
    assert X_MAX_SPM == brentq(lambda x: 2.0 * j1(x) / x - 0.5, 1.0, 3.0,
                               xtol=1e-13)
    assert X_MAX_XPM == brentq(lambda x: j0(x) - 0.5, 0.5, 2.4, xtol=1e-13)
    eps, ka = 0.2, 0.7
    x = 4 * eps * math.sin(ka / 2)
    assert spm_inductance(l_j, eps, ka) == pytest.approx(
        l_j * x / (2 * j1(x)), rel=1e-14)
    assert xpm_inductance(l_j, eps, ka) == pytest.approx(l_j / j0(x),
                                                         rel=1e-14)
    # quoted operating point: XPM factor 1/J0(x) at x = 0.28284
    assert 1.0 / j0(0.28284) == pytest.approx(1.0203, abs=5e-4)


def test_renormalization_bounds_enforced():
    with pytest.raises(AmplitudeOutOfRange):
        spm_inductance(1e-9, 1.2, math.pi)
    with pytest.raises(AmplitudeOutOfRange):
        xpm_inductance(1e-9, 1.0, math.pi)


def test_zero_amplitude_renorm_is_bit_identical():
    cell = device.fitted_cell()
    w = 6 * GHZ
    for l_eff in (spm_inductance(cell.l_j, 0.0, 1.1),
                  xpm_inductance(cell.l_j, 0.0, 1.1)):
        assert wavevector(Mode.Sigma, w, cell, l_eff) == wavevector(
            Mode.Sigma, w, cell)


def test_renormalized_wavevector_strictly_larger():
    cell = device.fitted_cell()
    wp = 3 * GHZ
    eps = 0.25
    kp = pump_wavevector(cell, wp, eps)
    l_xpm = xpm_inductance(cell.l_j, eps, kp)
    for f in (2.0, 6.0, 12.0):
        w = f * GHZ
        assert wavevector(Mode.Sigma, w, cell, l_xpm) \
            > wavevector(Mode.Sigma, w, cell)
    assert kp > pump_wavevector(cell, wp, 0.0)


def test_pump_wavevector_is_self_consistent():
    cell = device.fitted_cell()
    wp, eps = 4 * GHZ, 0.3
    kp = pump_wavevector(cell, wp, eps)
    l_spm = spm_inductance(cell.l_j, eps, kp)
    assert wavevector(Mode.Delta, wp, cell, l_spm) == pytest.approx(kp,
                                                                    abs=1e-12)


def test_negative_amplitude_raises():
    cell = device.fitted_cell()
    for renormalize in (spm_inductance, xpm_inductance):
        with pytest.raises(AmplitudeOutOfRange,
                           match="^epsilon_p must be >= 0$"):
            renormalize(cell.l_j, -0.1, 1.0)
    with pytest.raises(AmplitudeOutOfRange, match="^epsilon_p must be >= 0$"):
        pump_wavevector(cell, 3 * GHZ, -0.1)


def test_pump_above_cutoff_raises():
    cell = device.fitted_cell()
    with pytest.raises(PumpAboveCutoff):
        pump_wavevector(cell, 11 * GHZ, 0.1)


def test_flux_amplitude_round_trip():
    kp = 0.9
    phi = flux_from_amplitude(0.3, kp)
    assert amplitude_from_flux(phi, kp) == pytest.approx(0.3, rel=1e-14)
    # quoted convention: Phi_JJ = 4 phi0 eps sin(k a / 2)
    assert phi == pytest.approx(
        4 * device.PHI0_BAR * 0.3 * math.sin(kp / 2), rel=1e-14)


@given(f=st.floats(0.2, 0.98), l_j=st.floats(0.3e-9, 3e-9),
       c_g=st.floats(0.05e-12, 0.5e-12), c_i=st.floats(0.0, 1.5e-12))
@settings(max_examples=60, deadline=None)
def test_dispersion_round_trip_property(f, l_j, c_g, c_i):
    cell = CellParams(l_j=l_j, c_g=c_g, c_i=c_i + 1e-15, c_j=0.2 * c_g)
    for mode in Mode:
        w = f * cutoff(mode, cell)
        k = wavevector(mode, w, cell)
        assert 0 < k <= math.pi
        assert _omega_of_k(mode, k, cell) == pytest.approx(w, rel=1e-9)

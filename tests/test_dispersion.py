import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j0, j1

from twpc import device
from twpc.device import CellParams
from twpc.dispersion import (Mode, X_MAX_SPM, X_MAX_XPM, _j0, _j1,
                             amplitude_from_flux, cutoff, pump_wavevector,
                             spm_factor, spm_inductance, wavevector,
                             xpm_inductance)
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
            # omega^2 overflows past 1.34e154 rad/s, which is above cutoff
            for x in (co * 1.001, 0.5 * (co + cell.plasma_omega),
                      2.0 * cell.plasma_omega, 1e155, 1e300, math.inf):
                with pytest.raises(AboveCutoff) as from_scalar:
                    wavevector(mode, x, cell, l_eff)
                with pytest.raises(AboveCutoff) as from_array:
                    wavevector(mode, np.array([x]), cell, l_eff)
                assert str(from_scalar.value) == str(from_array.value)
            assert math.isnan(wavevector(mode, math.nan, cell, l_eff))
            assert np.isnan(wavevector(mode, np.array([math.nan]), cell,
                                       l_eff)).all()
            # the range check on the edge cases of the array path: an
            # empty, 0-d, int or all-NaN omega
            assert wavevector(mode, np.array([]), cell, l_eff).shape == (0,)
            k = wavevector(mode, 2 * GHZ, cell, l_eff)
            assert wavevector(mode, np.array(2 * GHZ), cell, l_eff) == k
            assert wavevector(mode, round(2 * GHZ), cell, l_eff) == \
                wavevector(mode, float(round(2 * GHZ)), cell, l_eff)
            assert np.isnan(wavevector(mode, np.full(3, math.nan), cell,
                                       l_eff)).all()
            assert np.isnan(wavevector(mode, np.array(math.nan), cell, l_eff))
            for x in (np.array(co * 1.001), round(co * 1.001), 10 ** 200):
                with pytest.raises(AboveCutoff):
                    wavevector(mode, x, cell, l_eff)
    # an array names its failing frequency of largest magnitude, as the
    # scalar path does: neither a NaN nor a frequency below cutoff
    for w, culprit in (([math.nan, 2e11], 2e11), ([-2e11, 1e9], -2e11)):
        with pytest.raises(AboveCutoff) as from_scalar:
            wavevector(Mode.Sigma, culprit, cell)
        with pytest.raises(AboveCutoff) as from_array:
            wavevector(Mode.Sigma, np.array(w), cell)
        assert from_array.value.omega == culprit
        assert str(from_array.value) == str(from_scalar.value)
    co = re.escape(f"cutoff {cutoff(Mode.Delta, cell):.6g} rad/s")
    for x in (1e155, 1e300, math.inf):
        with pytest.raises(PumpAboveCutoff, match=co):
            pump_wavevector(cell, x, 0.3)


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
    """d(omega)/dk by central difference over +-1 MHz, below omega / k."""
    cell = device.fitted_cell()
    w, dw = 5 * GHZ, 2 * math.pi * 1e6
    k1, k2 = (wavevector(Mode.Sigma, w + s * dw, cell) for s in (-1, 1))
    assert 2.0 * dw / (k2 - k1) < w / wavevector(Mode.Sigma, w, cell)


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


def test_out_of_range_amplitude_names_a_short_x():
    """|x| has five significant digits: four decimals below 10, as the
    validity bounds, and an exponent, not 300 integer digits, at 1e300."""
    l_j = device.fitted_cell().l_j
    for fn, name in ((spm_inductance, "SPM"), (xpm_inductance, "XPM")):
        with pytest.raises(AmplitudeOutOfRange) as big:
            fn(l_j, 1e300, 1.0)
        assert str(big.value).startswith(f"|x| = 1.9177e+300 beyond {name}")
        assert len(str(big.value)) < 60
        with pytest.raises(AmplitudeOutOfRange, match=re.escape(
                f"|x| = 2.5000 beyond {name} validity bound")):
            fn(l_j, 0.625, math.pi)


def test_spm_factor_is_the_describing_function_gain():
    """2 J1(x)/x elementwise: 1 at x = 0 (no division), L_J / L_spm in the
    validity range, and 1/2 from X_MAX_SPM on."""
    x = np.array([0.0, 1e-300, 0.3, 1.7, X_MAX_SPM, 3.0, 50.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spm_factor(x)
    assert got[0] == 1.0 and got[1] == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(got[2:4], 2 * j1(x[2:4]) / x[2:4], rtol=1e-15)
    assert 1e-9 / got[3] == pytest.approx(
        spm_inductance(1e-9, 1.7 / (4 * math.sin(0.35)), 0.7), rel=1e-14)
    assert got[4:].tolist() == [got[4]] * 3
    assert got[4] == pytest.approx(0.5, abs=1e-12)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("lo, hi", [(0.0, X_MAX_SPM), (-2.3, 0.0),
                                    (0.0, 1e-4), (2.3, 5.0)])
def test_bessel_pair_is_scipy_bit_for_bit(lo, hi):
    """The in-package Cephes J0/J1 return scipy.special's floats exactly,
    on arrays and on scalars; [0, 1e-4] covers J0's 1 - x^2/4 branch."""
    x = np.linspace(lo, hi, 260_001)
    for ours, ref in ((_j0, j0), (_j1, j1)):
        np.testing.assert_array_equal(_bits(ours(x)), _bits(ref(x)))
        xs = x[::97].tolist()
        np.testing.assert_array_equal(_bits([ours(v) for v in xs]),
                                      _bits(ref(xs)))


def test_bessel_pair_keeps_the_input_type():
    assert type(_j0(0.5)) is float and type(_j1(0.5)) is float
    for shape in ((1,), (3,), (2, 3)):
        x = np.full(shape, 0.5)
        for ours in (_j0, _j1):
            assert isinstance(ours(x), np.ndarray) and ours(x).shape == shape


@given(x=st.floats(-5.0, 5.0))
@settings(max_examples=300, deadline=None)
def test_bessel_pair_property(x):
    for ours, ref in ((_j0, j0), (_j1, j1)):
        assert _bits(ours(x)) == _bits(ref(x))
        assert _bits(ours(np.array([x]))) == _bits(ref(np.array([x])))


def test_bessel_pair_passes_nan_and_raises_beyond_five():
    for ours, ref in ((_j0, j0), (_j1, j1)):
        assert math.isnan(ours(math.nan))
        got = ours(np.array([math.nan, 0.5]))
        assert math.isnan(got[0]) and got[1] == ref(0.5)
        for x in (5.0000001, -5.0000001, math.inf, -math.inf, 1e300):
            for arg in (x, np.array([0.5, x])):
                with pytest.raises(AmplitudeOutOfRange):
                    ours(arg)


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
    # quoted convention: Phi_JJ = 4 phi0 eps sin(k a / 2)
    phi = 4 * device.PHI0_BAR * 0.3 * math.sin(kp / 2)
    assert amplitude_from_flux(phi, kp) == pytest.approx(0.3, rel=1e-14)


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

"""Band-limited time-domain reflectometry.

A frequency-domain reflection trace S(f) on a uniform grid is windowed and
zero-padded, then inverse-transformed to a complex impulse response; peaks
localize internal reflections with a two-way time resolution of 1.2/BW.
Only an impulse response is available (the band excludes DC), and peak
magnitudes are qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUniformGrid, NoPeakAboveThreshold


@dataclass(frozen=True)
class FrequencySweep:
    """Complex S-parameter trace on a uniform ascending grid (Hz)."""

    f: np.ndarray         # Hz
    s: np.ndarray         # complex

    def __post_init__(self):
        f = np.asarray(self.f, float)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "s", np.asarray(self.s, complex))
        if len(f) < 16:
            raise NonUniformGrid("need at least 16 frequency points")
        df = np.diff(f)
        if np.any(df <= 0) or np.ptp(df) > 1e-6 * df[0]:
            raise NonUniformGrid("frequency grid must be uniform ascending")

    @property
    def df(self) -> float:
        return float(self.f[1] - self.f[0])

    @property
    def bandwidth(self) -> float:
        return float(self.f[-1] - self.f[0])


@dataclass(frozen=True)
class ImpulseResponse:
    t_ns: np.ndarray
    h: np.ndarray          # complex amplitude
    resolution_ns: float   # 1.2 / BW
    window: str
    window_values: np.ndarray


def _window(name, n, beta):
    if name == "none":
        return np.ones(n), "none"
    if name == "hann":
        return np.hanning(n), "hann"
    if name == "kaiser":
        return np.kaiser(n, beta), f"kaiser({beta:g})"
    raise ValueError(f"unknown window {name!r}")


def impulse_response(sweep: FrequencySweep, window: str = "kaiser",
                     beta: float = 6.0) -> ImpulseResponse:
    """Windowed, zero-padded inverse DFT of the band-limited sweep.

    Normalized so a flat unit-magnitude trace gives a unit peak at t = 0.
    The time grid spans 1/df; padding to a power of two at least 8 times
    the sweep only refines the peak interpolation.
    """
    w, wname = _window(window, len(sweep.f), beta)
    wsum = w.sum()
    n_pad = 1 << int(math.ceil(math.log2(8 * len(sweep.f))))
    spec = np.zeros(n_pad, complex)
    spec[:len(sweep.f)] = w * sweep.s
    t = np.arange(n_pad) / (n_pad * sweep.df)
    h = n_pad * np.fft.ifft(spec) / wsum
    # restore the band's absolute phase (carrier at f0)
    h *= np.exp(2j * math.pi * sweep.f[0] * t)
    return ImpulseResponse(t * 1e9, h, 1.2 / sweep.bandwidth * 1e9,
                           wname, w)


@dataclass(frozen=True)
class DefectEstimate:
    cell: float
    uncertainty_cells: float
    t_peak_ns: float
    magnitude: float


def locate_defect(impulse: ImpulseResponse, v: float,
                  t_offset: float = 0.0) -> DefectEstimate:
    """Cell position of the dominant reflection.

    v is the propagation velocity used for the two-way conversion
    (cell/ns); t_offset (ns) subtracts any reference-plane delay.
    cell = v (t_peak - t_offset) / 2; uncertainty = v * resolution / 2.
    Peaks must exceed median + 6 MAD of the magnitude trace.
    """
    mag = np.abs(impulse.h)
    med = float(np.median(mag))
    mad = float(np.median(np.abs(mag - med)))
    threshold = med + 6.0 * mad
    if not np.any(mag > threshold):
        raise NoPeakAboveThreshold(
            f"max {mag.max():.3e} below threshold {threshold:.3e}")
    i = int(np.argmax(mag))
    t_peak = float(impulse.t_ns[i])
    return DefectEstimate(
        cell=v * (t_peak - t_offset) / 2.0,
        uncertainty_cells=v * impulse.resolution_ns / 2.0,
        t_peak_ns=t_peak,
        magnitude=float(mag[i]),
    )

"""Exception hierarchy for the twpc toolkit."""

from __future__ import annotations


class TwpcError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(TwpcError):
    """Invalid device or experiment configuration.

    Carries a list of (field_path, message) pairs in ``violations``.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{p}: {m}" for p, m in self.violations))


class AboveCutoff(TwpcError):
    """Frequency query above the propagation cutoff of the requested mode."""

    def __init__(self, mode, omega, cutoff):
        self.mode = mode
        self.omega = omega
        self.cutoff = cutoff
        super().__init__(
            f"{mode} mode: omega = {omega:.6g} rad/s is at or above cutoff "
            f"{cutoff:.6g} rad/s"
        )


class AmplitudeOutOfRange(TwpcError):
    """Pump amplitude outside the validity range of the single-harmonic
    Bessel renormalization."""


class NoSolutionInBand(TwpcError):
    """Transcendental phase-matching equation has no root in the band."""


class PumpAboveCutoff(TwpcError):
    """Pump frequency exceeds the (renormalized) cutoff of its mode."""


class WrongPropagationSigns(TwpcError):
    """Signal and idler wavevectors must have opposite signs."""


class SingularNetwork(TwpcError):
    """The nodal admittance matrix is singular at the requested frequency."""


class NonConvergence(TwpcError):
    """An iterative solver (the harmonic-balance Newton loop, or the Brent
    search of a phase-matching root) failed to converge."""

    def __init__(self, iterations, residual, solver="harmonic balance"):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"{solver} did not converge after {iterations} iterations "
            f"(residual {residual:.3e})")


class DecompositionIllConditioned(TwpcError):
    """Traveling-wave decomposition requested too close to a band edge
    (|sin(ka)| below threshold)."""


class NonUniformGrid(TwpcError):
    """Frequency sweep grid is not uniform and ascending."""


class NoPeakAboveThreshold(TwpcError):
    """No impulse-response peak rises above the detection threshold."""


class TruncationWarning(UserWarning):
    """Outermost retained sideband (or harmonic) carries non-negligible
    power; results may be truncation-limited."""

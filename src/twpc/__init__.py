"""twpc — design toolkit for two-mode nonlinear Josephson transmission
lines mixing counterpropagating waves through a slow pump."""

from .device import (CellParams, DerivedConstants, LineSpec, derive_constants,
                     design_cell, fitted_cell, fitted_line, load_spec,
                     sample_disorder, spec_from_json, spec_to_json, validate)
from .dispersion import (Mode, amplitude_from_flux, cutoff,
                         flux_from_amplitude, pump_wavevector, spm_inductance,
                         wavevector, xpm_inductance)
from .matching import (Direction, MatchPoint, ProcessKind,
                       circulation_point_lowfreq, coupler_point_lowfreq,
                       gap_map, solve_corrected)
from .coupled_mode import (EnvelopeSolution, ProcessConfig,
                           attenuation_constant, bandwidth_estimate,
                           solve_detuned, solve_uniform, solve_with_defect)
from .network import (ChainNetwork, bloch_impedance, build_chain,
                      linear_scattering, wave_amplitude_profile)
from .harmonic_balance import (Drive, HarmonicBasis, PumpSolution,
                               incident_amplitude, pump_harmonic_balance,
                               pump_harmonics_at_ports)
from .sidebands import SignalScattering, signal_sidebands, transmission_map
from .tdr import (DefectEstimate, FrequencySweep, ImpulseResponse,
                  impulse_response, locate_defect)
from .touchstone import read_touchstone, write_touchstone
from . import errors

__version__ = "0.1.0"

"""Device description: unit cell, chain, defects, disorder.

A device is a ladder of identical cells, each carrying two Josephson
junctions (inductance L_J shunted by C_J, one per electrode), a capacitance
C_g from each electrode to ground and a capacitance C_i between the two
electrodes.  The two propagation eigenmodes are the common (Sigma) and
differential (Delta) combinations of the electrode fluxes; C_i loads only
the differential mode, which makes it slow and low-impedance.

Cell length ``a`` is the dimensionless unit (1 cell): velocities are in
cell/s and wavevectors in rad/cell throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Reduced flux quantum phi0 = hbar / 2e  (Wb/rad); Phi0 = 2*pi*phi0.
PHI0_BAR = 3.2910597841613324e-16
FLUX_Q = 2 * math.pi * PHI0_BAR

DEFECT_KINDS = ("open_junction",)

#: upper bound on n_cells: 250 times the 400-cell device
MAX_CELLS = 100_000


@dataclass(frozen=True)
class CellParams:
    """Electrical parameters of one unit cell (SI units).

    Exactly one of ``c_j`` / ``plasma_omega`` is required at construction;
    the other is derived through omega_J = 1/sqrt(L_J C_J).
    """

    l_j: float            # junction inductance (H)
    c_g: float            # ground capacitance per electrode (F)
    c_i: float            # inter-electrode capacitance (F)
    c_j: float = None     # junction capacitance (F)
    plasma_omega: float = None  # junction plasma frequency (rad/s)

    def __post_init__(self):
        if (self.c_j is None) == (self.plasma_omega is None):
            raise ConfigError(
                [("cell.c_j", "give exactly one of c_j and plasma_omega")])
        given = [("cell.l_j", self.l_j), ("cell.c_g", self.c_g),
                 ("cell.c_i", self.c_i)]
        given.append(("cell.c_j", self.c_j) if self.plasma_omega is None
                     else ("cell.plasma_omega", self.plasma_omega))
        bad = [(p, "must be strictly positive") for p, v in given
               if not v > 0]
        if bad:
            raise ConfigError(bad)
        try:
            if self.c_j is None:
                object.__setattr__(
                    self, "c_j", 1.0 / (self.l_j * self.plasma_omega ** 2))
            else:
                object.__setattr__(
                    self, "plasma_omega", 1.0 / math.sqrt(self.l_j * self.c_j))
        except (ZeroDivisionError, OverflowError):
            raise ConfigError([("cell.c_j", "c_j or plasma_omega leaves the "
                                            "floating-point range")])
        # the given values passed above; a derived c_j can still underflow
        if not self.c_j > 0:
            raise ConfigError([("cell.c_j", "must be strictly positive")])
        if not self.c_j < self.c_g:
            raise ConfigError([("cell.c_j",
                                "must be below c_g (physical regime)")])

    @property
    def c_delta(self) -> float:
        """Delta-mode shunt capacitance C_g + 2 C_i (F)."""
        return self.c_g + 2.0 * self.c_i

    @property
    def v_sigma0(self) -> float:
        """Low-frequency Sigma velocity a/sqrt(L_J C_g) (cell/s)."""
        return 1 / math.sqrt(self.l_j * self.c_g)

    @property
    def v_delta0(self) -> float:
        """Low-frequency Delta velocity a/sqrt(L_J c_delta) (cell/s)."""
        return 1 / math.sqrt(self.l_j * self.c_delta)

    @property
    def z_sigma(self) -> float:
        """Low-frequency Sigma impedance sqrt(L_J/C_g) (Ohm)."""
        return math.sqrt(self.l_j / self.c_g)

    @property
    def z_delta(self) -> float:
        """Low-frequency Delta impedance sqrt(L_J/c_delta) (Ohm)."""
        return math.sqrt(self.l_j / self.c_delta)


@dataclass(frozen=True)
class LineSpec:
    """Full chain description: cell, length, defects, disorder, seed.
    Valid once built: a bad field raises ConfigError listing every
    violation with its field path."""

    cell: CellParams
    n_cells: int = 400
    defects: tuple = ()            # of (cell_index, kind)
    disorder_halfwidth: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # n_cells and seed are range-checked only if they are integers
        whole = [isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                 for v in (self.n_cells, self.seed)]
        errs = [(k, "must be an integer")
                for k, ok in zip(("n_cells", "seed"), whole) if not ok]
        if whole[0] and not 1 <= self.n_cells <= MAX_CELLS:
            errs.append(("n_cells", f"must lie in [1, {MAX_CELLS}]"))
        # normalize defects to (int, str), keeping a non-integer cell (an
        # error); a bare number is read as {"cell": number}
        norm = []
        for i, d in enumerate(self.defects):
            if isinstance(d, dict) and "cell" not in d:
                errs.append((f"defects[{i}].cell", "missing"))
                continue
            if isinstance(d, dict):
                idx, kind = d["cell"], d.get("kind", "open_junction")
            elif isinstance(d, (int, float, np.integer, np.floating)):
                idx, kind = d, "open_junction"
            elif isinstance(d, (tuple, list)) and len(d) == 2:
                idx, kind = d[0], str(d[1])
            else:
                errs.append((f"defects[{i}]",
                             "need a cell index or a (cell, kind) pair"))
                continue
            if isinstance(idx, float) and idx.is_integer() or \
                    isinstance(idx, (int, np.integer)) and \
                    not isinstance(idx, bool):
                idx = int(idx)
                if whole[0] and not 0 <= idx < self.n_cells:
                    errs.append((f"defects[{i}].cell", f"index {idx} out of "
                                 f"range [0, {self.n_cells})"))
            else:
                errs.append((f"defects[{i}].cell", "must be an integer"))
            if kind not in DEFECT_KINDS:
                errs.append((f"defects[{i}].kind", f"unknown kind {kind!r}"))
            norm.append((idx, kind))
        object.__setattr__(self, "defects", tuple(norm))
        if not 0.0 <= self.disorder_halfwidth < 0.5:
            errs.append(("disorder_halfwidth", "must lie in [0, 0.5)"))
        if whole[1] and self.seed < 0:
            errs.append(("seed", "must be >= 0"))
        if errs:
            raise ConfigError(errs)


def sample_disorder(spec: LineSpec) -> np.ndarray:
    """Per-junction inductance table, shape (n_cells, 2).

    Column 0/1 are the two electrodes.  Junction inductances are drawn
    independently and uniformly from [L_J(1-w), L_J(1+w)]; deterministic
    for a given seed.  Open-junction defects are flagged with +inf on
    electrode 0 of the defect cell.
    """
    lj, w = spec.cell.l_j, spec.disorder_halfwidth
    if w > 0:
        rng = np.random.default_rng(spec.seed)
        table = lj * rng.uniform(1.0 - w, 1.0 + w, size=(spec.n_cells, 2))
    else:
        table = np.full((spec.n_cells, 2), lj)
    for idx, kind in spec.defects:
        if kind == "open_junction":
            table[idx, 0] = np.inf
    return table


# ---------------------------------------------------------------------------
# JSON serialization (the interchange schema used by the CLI)

def spec_to_json(spec: LineSpec) -> dict:
    return {
        "l_j_nH": spec.cell.l_j * 1e9,
        "c_g_pF": spec.cell.c_g * 1e12,
        "c_i_pF": spec.cell.c_i * 1e12,
        "plasma_ghz": spec.cell.plasma_omega / (2e9 * math.pi),
        "n_cells": spec.n_cells,
        "defects": [{"cell": i, "kind": k} for i, k in spec.defects],
        "disorder_halfwidth": spec.disorder_halfwidth,
        "seed": spec.seed,
    }


#: keys of the JSON schema: the three required ones first, "defects"
#: last, every other one a number
_SPEC_KEYS = ("l_j_nH", "c_g_pF", "c_i_pF", "plasma_ghz", "c_j_fF",
              "n_cells", "disorder_halfwidth", "seed", "defects")


def spec_from_json(doc: dict) -> LineSpec:
    """LineSpec from the schema of spec_to_json.  Unknown keys (also
    inside a defect entry), missing required keys, values that are not
    finite numbers, fractional counts and malformed defect entries raise
    ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError([("spec", "must be a JSON object")])
    errs = [(k, "unknown key") for k in doc if k not in _SPEC_KEYS]
    errs += [(k, "missing required key")
             for k in _SPEC_KEYS[:3] if k not in doc]
    errs += [(k, "must be a finite number") for k in _SPEC_KEYS[:-1]
             if k in doc and not (type(doc[k]) in (int, float)
                                  and math.isfinite(doc[k]))]
    errs += [(k, "must be an integer") for k in ("n_cells", "seed")
             if type(doc.get(k)) is float and not doc[k].is_integer()]
    if isinstance(doc.get("defects"), list):
        errs += [(f"defects[{i}].{k}", "unknown key")
                 for i, d in enumerate(doc["defects"]) if isinstance(d, dict)
                 for k in d if k not in ("cell", "kind")]
    if errs:
        raise ConfigError(errs)
    kwargs = dict(
        l_j=doc["l_j_nH"] * 1e-9,
        c_g=doc["c_g_pF"] * 1e-12,
        c_i=doc["c_i_pF"] * 1e-12,
    )
    if "plasma_ghz" in doc:
        kwargs["plasma_omega"] = doc["plasma_ghz"] * 2e9 * math.pi
    if "c_j_fF" in doc:
        kwargs["c_j"] = doc["c_j_fF"] * 1e-15
    try:
        return LineSpec(
            cell=CellParams(**kwargs),
            n_cells=int(doc.get("n_cells", 400)),
            defects=tuple(doc.get("defects", ())),
            disorder_halfwidth=float(doc.get("disorder_halfwidth", 0.0)),
            seed=int(doc.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError([("defects", "need a list of {\"cell\": index, "
                            f"\"kind\": kind}} ({exc!r})")])


def load_spec(path) -> LineSpec:
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:   # not JSON, or not UTF-8 text
            raise ConfigError([("spec", f"not a JSON document: {exc}")])
    return spec_from_json(doc)


# ---------------------------------------------------------------------------
# Presets

#: Plasma frequency used when a config gives none (GHz).  Two values are
#: quoted for the device; the fitted-table one is adopted because the
#: quantitative predictions derive from it.
DEFAULT_PLASMA_GHZ = 32.9

# Fitted operating point, reconstructed from the quoted characteristic
# velocities (93.6 and 30.15 cell/ns), the Sigma impedance (85 Ohm) and the
# plasma frequency:
#   L_J = Z_Sigma/v_Sigma,  C_g = 1/(Z_Sigma v_Sigma),
#   C_g + 2 C_i = 1/(L_J v_Delta^2),  C_J = 1/(L_J omega_J^2).
_V_SIGMA_FIT = 93.6e9
_V_DELTA_FIT = 30.15e9
_Z_SIGMA_FIT = 85.0


def fitted_cell() -> CellParams:
    """Cell parameters of the fitted (measured) operating point."""
    lj = _Z_SIGMA_FIT / _V_SIGMA_FIT
    cg = 1.0 / (_Z_SIGMA_FIT * _V_SIGMA_FIT)
    cd = 1.0 / (lj * _V_DELTA_FIT ** 2)
    return CellParams(
        l_j=lj, c_g=cg, c_i=0.5 * (cd - cg),
        plasma_omega=2e9 * math.pi * DEFAULT_PLASMA_GHZ)


def design_cell() -> CellParams:
    """Nominal design-value cell parameters."""
    return CellParams(
        l_j=0.94e-9, c_g=0.13e-12, c_i=0.57e-12,
        plasma_omega=2e9 * math.pi * DEFAULT_PLASMA_GHZ)


def fitted_line(n_cells: int = 400, defects=(), disorder_halfwidth: float = 0.0,
                seed: int = 0) -> LineSpec:
    return LineSpec(fitted_cell(), n_cells, tuple(defects),
                    disorder_halfwidth, seed)

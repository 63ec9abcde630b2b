"""Rankine-vortex wind field, archetype fragility tables, and prior construction.

The tornado is a translating symmetric vortex: wind speed is v_core out to
R_core = core_fraction * W/2, then decays as a power law

    V(r) = v_core * (R_core / r)^kappa,
    kappa = ln(v_core/v_edge) / ln(R_edge/R_core),

so that V(R_edge) = v_edge exactly at the EF0 boundary R_edge =
edge_fraction * W/2.  Priors convert the local wind into probit-space
fragility indices per archetype and damage state, and clip them to
+-clip_bound with an ordinal separation cascade so the latent means stay
strictly decreasing across damage states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidInputError, check_number
from .field_state import STATES, FieldState, Inventory
from .probit_normal import clip_ordinal_probit, latent_from_physics

__all__ = [
    "TornadoTrack",
    "FragilityTable",
    "distances_to_centerline",
    "wind_speed",
    "wind_speeds",
    "build_prior_field",
    "DEFAULT_EPS_HAZARD",
    "DEFAULT_EPS_CAPACITY",
    "DEFAULT_WIND_FLOOR",
]

DEFAULT_EPS_HAZARD = 0.09
DEFAULT_EPS_CAPACITY = 0.40
DEFAULT_WIND_FLOOR = 1.0  # m/s floor before taking logs far from the track


@dataclass(frozen=True)
class TornadoTrack:
    centerline: tuple
    width_total: float
    v_core: float = 115.0
    v_edge: float = 38.0
    core_fraction: float = 0.273
    edge_fraction: float = 0.873

    def __post_init__(self):
        try:
            pts = tuple(tuple(p) for p in self.centerline)
        except TypeError:
            pts = ()
        if len(pts) < 2 or any(len(p) != 2 for p in pts):
            raise InvalidInputError(
                f"centerline must be at least two [x, y] points, got {self.centerline!r}"
            )
        for k, p in enumerate(pts):
            for c in p:
                check_number(f"centerline[{k}] coordinate", c)
        object.__setattr__(self, "centerline", tuple((float(x), float(y)) for x, y in pts))
        check_number("width_total", self.width_total, "a finite number >= 0", lambda v: v >= 0)
        object.__setattr__(self, "width_total", float(self.width_total))
        for name in ("v_core", "v_edge", "core_fraction", "edge_fraction"):
            check_number(name, getattr(self, name))
        if not 0 < self.core_fraction < self.edge_fraction < 1:
            raise InvalidInputError("need 0 < core_fraction < edge_fraction < 1")
        if not self.v_core > self.v_edge > 0:
            raise InvalidInputError("need v_core > v_edge > 0")

    @property
    def r_core(self) -> float:
        return self.core_fraction * self.width_total / 2.0

    @property
    def r_edge(self) -> float:
        return self.edge_fraction * self.width_total / 2.0

    @property
    def decay_exponent(self) -> float:
        return math.log(self.v_core / self.v_edge) / math.log(self.r_edge / self.r_core)


@dataclass(frozen=True)
class FragilityTable:
    """Median capacity (m/s) and dispersion per (archetype, damage state)."""

    medians: dict
    dispersions: dict

    def __post_init__(self):
        for arch, med in self.medians.items():
            disp = self.dispersions.get(arch)
            if disp is None or len(med) != len(STATES) or len(disp) != len(STATES):
                raise InvalidInputError(f"archetype {arch}: incomplete fragility row")
            # a median's log is taken, and a dispersion divides
            for name, values in (("medians", med), ("dispersions", disp)):
                if not all(0 < v < math.inf for v in values):
                    raise InvalidInputError(
                        f"archetype {arch}: {name} must be finite numbers > 0, "
                        f"got {tuple(values)!r}"
                    )
            if any(a > b for a, b in zip(med, med[1:])):
                raise InvalidInputError(
                    f"archetype {arch}: medians must be non-decreasing with severity"
                )

    @property
    def archetypes(self) -> list:
        return sorted(self.medians)

    @classmethod
    def from_csv(cls, path) -> "FragilityTable":
        from .io import _csv_rows, _parse_state  # io imports this module

        med: dict = {}
        disp: dict = {}
        for line, (arch, state, median, dispersion) in _csv_rows(
            path, ("archetype", "state", "median_mps", "dispersion")
        ):
            try:
                arch = int(arch)
                j = STATES.index(_parse_state(state))
                if med.setdefault(arch, [None] * len(STATES))[j] is not None:
                    raise ValueError(f"second row for archetype {arch}, state {STATES[j]}")
                med[arch][j] = float(median)
                disp.setdefault(arch, [None] * len(STATES))[j] = float(dispersion)
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{line}: {exc}") from exc
        for arch in med:
            if None in med[arch] or None in disp[arch]:
                raise InvalidInputError(f"{path}: archetype {arch} missing a state row")
        med_t = {a: tuple(v) for a, v in med.items()}
        disp_t = {a: tuple(v) for a, v in disp.items()}
        return cls(medians=med_t, dispersions=disp_t)

    @classmethod
    def default(cls) -> "FragilityTable":
        with resources.as_file(
            resources.files("fragfield.data") / "fragility_table.csv"
        ) as path:
            return cls.from_csv(path)


def _segment_distance(px, py, ax, ay, bx, by):
    """Distance from point(s) (px, py) to segment (a, b); vectorized over points."""
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return np.hypot(px - ax, py - ay)
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg2, 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def distances_to_centerline(x, y, track: TornadoTrack) -> np.ndarray:
    """Minimum distance from each point to the track polyline."""
    pts = track.centerline
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best = np.full(x.shape, np.inf)
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        best = np.minimum(best, _segment_distance(x, y, ax, ay, bx, by))
    return best


def wind_speeds(r, track: TornadoTrack) -> np.ndarray:
    """Rankine profile speed at radial distance(s) r from the axis."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInputError("radial distance must be >= 0")
    if track.width_total == 0.0:
        return np.zeros_like(r)  # degenerate no-hazard scenario
    rc = track.r_core
    k = track.decay_exponent
    with np.errstate(divide="ignore"):
        decayed = track.v_core * (rc / np.maximum(r, rc)) ** k
    return np.where(r <= rc, track.v_core, decayed)


def wind_speed(r: float, track: TornadoTrack) -> float:
    return float(wind_speeds([r], track)[0])


def build_prior_field(
    inventory: Inventory,
    track: TornadoTrack,
    table: FragilityTable | None = None,
    eps_hazard: float = DEFAULT_EPS_HAZARD,
    eps_capacity: float = DEFAULT_EPS_CAPACITY,
    clip_bound: float = 3.0,
    separation: float = 0.05,
    wind_floor: float = DEFAULT_WIND_FLOOR,
) -> FieldState:
    """Physics-based prior PN field for an inventory under an assumed track.

    One array pass: the wind's log at every building and the table's log
    medians and dispersions, looked up as (n, d) arrays, make one
    ``latent_from_physics`` call, and one ``clip_ordinal_probit`` call clips
    every building's latent means.  Logs are taken with ``math.log``, not
    ``np.log``, which differs in the last bit on some inputs; so the field
    matches scalar per-cell arithmetic bit for bit.

    Latent means are clipped to [-clip_bound, clip_bound] with the ordinal
    separation cascade, so the prior is ordinal in the latent (probit) domain.
    Note this is a statement about mu, not about the exceedance means: where
    clipping compresses states into the 0.05 band, unequal per-state latent
    variances can reorder m = Phi(mu/sqrt(1+sigma2)).  On the default
    500-building scenario m rises with severity at 244, 216 and 96 buildings
    (widths 0, 800 and 3200 m), by up to 0.129.  Away from the clip bands
    (no state clipped) the exceedance means are ordinal for every shipped
    archetype over the physical wind range.
    """
    table = table or FragilityTable.default()
    if not len(inventory.ids):
        raise InvalidInputError("empty inventory")
    if wind_floor <= 0:
        raise InvalidInputError("wind_floor must be > 0 (its log is taken)")
    for name, value in (("eps_hazard", eps_hazard), ("eps_capacity", eps_capacity)):
        if not value >= 0:
            raise InvalidInputError(f"{name} must be >= 0, got {value!r}")
    arch = inventory.archetype
    missing = sorted(set(arch.tolist()) - set(table.medians))
    if missing:
        raise InvalidInputError(f"archetype(s) {missing} absent from fragility table")

    distances = distances_to_centerline(inventory.x, inventory.y, track)
    v = np.maximum(wind_speeds(distances, track), wind_floor)

    archetypes = table.archetypes
    row = np.searchsorted(archetypes, arch)
    log_median = np.array([[math.log(m) for m in table.medians[a]] for a in archetypes])
    dispersion = np.array([table.dispersions[a] for a in archetypes], dtype=float)
    lambda_h = np.array([math.log(w) for w in v.tolist()])
    try:
        mu, sigma2 = latent_from_physics(
            lambda_h[:, None], eps_hazard, log_median[row], eps_capacity, dispersion[row]
        )
    except InvalidInputError as exc:
        if not hasattr(exc, "cell"):
            raise
        i, j = exc.cell
        raise InvalidInputError(f"building {inventory.ids[i]}, state {STATES[j]}: {exc}") from exc
    mu = clip_ordinal_probit(mu, bound=clip_bound, separation=separation)
    return FieldState(*inventory, mu=mu, sigma2=sigma2)

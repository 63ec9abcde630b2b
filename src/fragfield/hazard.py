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

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidInputError
from .field_state import STATES, FieldState
from .probit_normal import CapacityLaw, HazardLaw, clip_ordinal_probit, latent_from_physics

__all__ = [
    "Building",
    "TornadoTrack",
    "FragilityTable",
    "distance_to_centerline",
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
class Building:
    id: str
    x: float
    y: float
    archetype: int

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "archetype", int(self.archetype))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInputError(f"building {self.id}: coordinates must be finite")
        if not 1 <= self.archetype <= 19:
            raise InvalidInputError(
                f"building {self.id}: archetype {self.archetype} outside 1..19"
            )


@dataclass(frozen=True)
class TornadoTrack:
    centerline: tuple
    width_total: float
    v_core: float = 115.0
    v_edge: float = 38.0
    core_fraction: float = 0.273
    edge_fraction: float = 0.873

    def __post_init__(self):
        pts = tuple((float(p[0]), float(p[1])) for p in self.centerline)
        object.__setattr__(self, "centerline", pts)
        object.__setattr__(self, "width_total", float(self.width_total))
        if not pts:
            raise InvalidInputError("centerline must contain at least one point")
        if not 0 <= self.width_total < math.inf:
            raise InvalidInputError("width_total must be finite and >= 0")
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
    states: tuple = STATES

    def __post_init__(self):
        for arch, med in self.medians.items():
            disp = self.dispersions.get(arch)
            if disp is None or len(med) != len(self.states) or len(disp) != len(self.states):
                raise InvalidInputError(f"archetype {arch}: incomplete fragility row")
            if any(b <= 0 for b in disp):
                raise InvalidInputError(f"archetype {arch}: dispersions must be > 0")
            if any(a > b for a, b in zip(med, med[1:])):
                raise InvalidInputError(
                    f"archetype {arch}: medians must be non-decreasing with severity"
                )

    @property
    def archetypes(self) -> list:
        return sorted(self.medians)

    @classmethod
    def from_csv(cls, path) -> "FragilityTable":
        med: dict = {}
        disp: dict = {}
        state_index = {s: j for j, s in enumerate(STATES)}
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"archetype", "state", "median_mps", "dispersion"}
            missing = required - set(reader.fieldnames or ())
            if missing:
                raise InvalidInputError(
                    f"{path}: missing column(s): {', '.join(sorted(missing))}"
                )
            for lineno, rec in enumerate(reader, start=2):
                try:
                    arch = int(rec["archetype"])
                    j = state_index[rec["state"].strip().lower()]
                    med.setdefault(arch, [None] * len(STATES))[j] = float(rec["median_mps"])
                    disp.setdefault(arch, [None] * len(STATES))[j] = float(rec["dispersion"])
                except (KeyError, ValueError) as exc:
                    raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
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
    if len(pts) < 2:
        raise InvalidInputError("centerline needs at least two points")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    best = np.full(x.shape, np.inf)
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        best = np.minimum(best, _segment_distance(x, y, ax, ay, bx, by))
    return best


def distance_to_centerline(p, track: TornadoTrack) -> float:
    return float(distances_to_centerline([p[0]], [p[1]], track)[0])


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
    inventory,
    track: TornadoTrack,
    table: FragilityTable | None = None,
    eps_hazard: float = DEFAULT_EPS_HAZARD,
    eps_capacity: float = DEFAULT_EPS_CAPACITY,
    clip_bound: float = 3.0,
    separation: float = 0.05,
    wind_floor: float = DEFAULT_WIND_FLOOR,
) -> FieldState:
    """Physics-based prior PN field for an inventory under an assumed track.

    Latent means are clipped to [-clip_bound, clip_bound] with the ordinal
    separation cascade, so the prior is ordinal in the latent (probit) domain.
    Note this is a statement about mu, not about the exceedance means: where
    clipping compresses states into the 0.05 band, unequal per-state latent
    variances can reorder m = Phi(mu/sqrt(1+sigma2)) slightly.  Away from the
    clip bands (no state clipped) the exceedance means are ordinal for every
    shipped archetype over the physical wind range.
    """
    table = table or FragilityTable.default()
    inventory = list(inventory)
    if not inventory:
        raise InvalidInputError("empty inventory")
    if wind_floor <= 0:
        raise InvalidInputError("wind_floor must be > 0 (its log is taken)")
    missing = sorted({b.archetype for b in inventory} - set(table.medians))
    if missing:
        raise InvalidInputError(f"archetype(s) {missing} absent from fragility table")

    x = np.array([b.x for b in inventory])
    y = np.array([b.y for b in inventory])
    arch = np.array([b.archetype for b in inventory])
    if track.width_total == 0.0:
        v = np.full(len(inventory), wind_floor)
    else:
        r = distances_to_centerline(x, y, track)
        v = np.maximum(wind_speeds(r, track), wind_floor)

    n_d = len(table.states)
    mu = np.empty((len(inventory), n_d))
    sigma2 = np.empty((len(inventory), n_d))
    for i, b in enumerate(inventory):
        lam_h = math.log(v[i])
        med = table.medians[b.archetype]
        disp = table.dispersions[b.archetype]
        raw = []
        for j in range(n_d):
            pn = latent_from_physics(
                HazardLaw(lam_h, eps_hazard),
                CapacityLaw(math.log(med[j]), eps_capacity, disp[j]),
            )
            raw.append(pn.mu)
            sigma2[i, j] = pn.sigma2
        mu[i] = clip_ordinal_probit(raw, bound=clip_bound, separation=separation)

    return FieldState(
        ids=[b.id for b in inventory],
        x=x,
        y=y,
        archetype=arch,
        mu=mu,
        sigma2=sigma2,
    )

"""Container for the latent fragility field over a building inventory."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError
from .probit_normal import pn_moments_vec

STATES = ("moderate", "extensive", "complete")


@dataclass
class FieldState:
    """PN marginals for every (building, damage state) cell.

    mu/sigma2 are (n_buildings, n_states) arrays in probit units.  When a GP
    pass has been run, gp_mean_p/gp_var_p hold the probability-space posterior
    summaries for the same cells (otherwise None).
    """

    ids: list
    x: np.ndarray
    y: np.ndarray
    archetype: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    states: tuple = STATES
    gp_mean_p: np.ndarray | None = field(default=None)
    gp_var_p: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.archetype = np.asarray(self.archetype, dtype=int)
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma2 = np.asarray(self.sigma2, dtype=float)
        n, d = len(self.ids), len(self.states)
        for name, arr, shape in (
            ("x", self.x, (n,)),
            ("y", self.y, (n,)),
            ("archetype", self.archetype, (n,)),
            ("mu", self.mu, (n, d)),
            ("sigma2", self.sigma2, (n, d)),
        ):
            if arr.shape != shape:
                raise InvalidInputError(f"{name} has shape {arr.shape}, expected {shape}")
        for name in ("x", "y", "mu", "sigma2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInputError(f"{name} must be finite")
        if np.any(self.sigma2 < 0):
            raise InvalidInputError("sigma2 must be >= 0")

    @property
    def n_buildings(self) -> int:
        return len(self.ids)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def moments(self):
        """(m, zeta) arrays of shape (n_buildings, n_states)."""
        return pn_moments_vec(self.mu, self.sigma2)

    def copy(self) -> "FieldState":
        return replace(
            self,
            ids=list(self.ids),
            x=self.x.copy(),
            y=self.y.copy(),
            archetype=self.archetype.copy(),
            mu=self.mu.copy(),
            sigma2=self.sigma2.copy(),
            gp_mean_p=None if self.gp_mean_p is None else self.gp_mean_p.copy(),
            gp_var_p=None if self.gp_var_p is None else self.gp_var_p.copy(),
        )

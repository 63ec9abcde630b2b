"""Container for the latent fragility field over a building inventory."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError

STATES = ("moderate", "extensive", "complete")


@dataclass
class FieldState:
    """PN marginals for every (building, damage state) cell.

    mu/sigma2 are (n_buildings, n_states) arrays in probit units.
    """

    ids: list
    x: np.ndarray
    y: np.ndarray
    archetype: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.archetype = np.asarray(self.archetype, dtype=int)
        self.mu = np.asarray(self.mu, dtype=float)
        self.sigma2 = np.asarray(self.sigma2, dtype=float)
        n, d = len(self.ids), len(STATES)
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
        return len(STATES)

    def copy(self) -> "FieldState":
        return replace(
            self,
            ids=list(self.ids),
            x=self.x.copy(),
            y=self.y.copy(),
            archetype=self.archetype.copy(),
            mu=self.mu.copy(),
            sigma2=self.sigma2.copy(),
        )

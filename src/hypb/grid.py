"""Cell-centered grids, complex fields, and weighted integrals.

Everything downstream integrates against the normalized area measure
dA = dx dy / pi.  Grids are uniform and cell-centered: on a half-plane
box [-L, L] x (0, H] the y-samples sit at (j + 1/2) * hy, so no sample
ever lands on the real axis, where the hyperbolic weights (Im z)^(+-p)
degenerate.  A full-plane box [-L, L] x [-H, H] built by odd reflection
of a half-plane grid has the same spacing and is symmetric under
y -> -y, sample for sample.

Norms use a plain midpoint rule with a fixed-shape pairwise reduction
(numpy's summation), so results are reproducible bit-for-bit across
runs and thread counts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

__all__ = [
    "PlaneKind",
    "WeightKind",
    "GridSpec",
    "Field",
    "lp_norm",
    "inner_product",
]


class PlaneKind(enum.Enum):
    FULL = "full"
    UPPER = "upper"


class WeightKind(enum.Enum):
    """Weight applied inside the L^p integral.

    PLAIN            : 1
    HYPERBOLIC       : (Im z)^(-p)   -- the L^p(H) norm of the paper
    DUAL_HYPERBOLIC  : (Im z)^(+p)   -- the L^p(H*) norm
    """

    PLAIN = "plain"
    HYPERBOLIC = "hyperbolic"
    DUAL_HYPERBOLIC = "dual_hyperbolic"


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on [-L, L] x (0, H] or [-L, L] x [-H, H]."""

    L: float
    H: float
    nx: int
    ny: int
    plane: PlaneKind = PlaneKind.UPPER

    def __post_init__(self):
        if not (0 < self.L < math.inf and 0 < self.H < math.inf):
            raise ValueError("box half-width L and height H must be positive and finite")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("need at least 4 cells per direction")
        if self.plane is PlaneKind.FULL and self.ny % 2:
            raise ValueError("full-plane grids need even ny so rows pair under y -> -y")

    @property
    def hx(self) -> float:
        return 2.0 * self.L / self.nx

    @property
    def hy(self) -> float:
        if self.plane is PlaneKind.UPPER:
            return self.H / self.ny
        return 2.0 * self.H / self.ny

    @property
    def cell_measure(self) -> float:
        """Cell area under dA = dx dy / pi."""
        return self.hx * self.hy / math.pi

    @property
    def x(self) -> np.ndarray:
        return -self.L + (np.arange(self.nx) + 0.5) * self.hx

    @property
    def y(self) -> np.ndarray:
        if self.plane is PlaneKind.UPPER:
            return (np.arange(self.ny) + 0.5) * self.hy
        return -self.H + (np.arange(self.ny) + 0.5) * self.hy

    def zz(self) -> np.ndarray:
        """Complex coordinates, shape (ny, nx), row-major in y."""
        return self.x[None, :] + 1j * self.y[:, None]

    def weight(self, p: float, kind: WeightKind) -> np.ndarray:
        """Pointwise weight of shape (ny, 1), broadcastable over rows."""
        if not isinstance(kind, WeightKind):
            raise TypeError(f"weight kind must be a WeightKind, got {kind!r}")
        if kind is WeightKind.PLAIN:
            return np.ones((self.ny, 1))
        if self.plane is not PlaneKind.UPPER:
            raise ValueError(f"{kind.value} weight only makes sense on the upper half-plane")
        expo = -p if kind is WeightKind.HYPERBOLIC else p
        return (self.y[:, None]) ** expo

    def summary(self) -> dict:
        return {
            "L": self.L,
            "H": self.H,
            "nx": self.nx,
            "ny": self.ny,
            "plane": self.plane.value,
        }


@dataclass
class Field:
    """Complex samples on a grid, plus free-form diagnostics in `meta`."""

    spec: GridSpec
    data: np.ndarray
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(
                f"data shape {self.data.shape} does not match grid ({self.spec.ny}, {self.spec.nx})"
            )

    def copy(self) -> "Field":
        return Field(self.spec, self.data.copy(), dict(self.meta))

    def conj(self) -> "Field":
        return Field(self.spec, np.conj(self.data), dict(self.meta))


def lp_norm(f: Field, p: float = 2.0, weight: WeightKind = WeightKind.PLAIN) -> float:
    """Midpoint-rule L^p norm, ( sum |f|^p w * hx hy / pi )^(1/p).

    The weight is applied pointwise, so lp_norm(f, p, HYPERBOLIC) agrees
    with lp_norm(f / Im z, p, PLAIN) to rounding, with no discretization
    gap between the two.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    w = f.spec.weight(p, weight)
    acc = np.sum(np.abs(f.data) ** p * w)
    return float((acc * f.spec.cell_measure) ** (1.0 / p))


def inner_product(f: Field, g: Field) -> complex:
    """Sesquilinear pairing sum f conj(g) * hx hy / pi."""
    if f.spec != g.spec:
        raise ValueError("fields live on different grids")
    return complex(np.sum(f.data * np.conj(g.data)) * f.spec.cell_measure)

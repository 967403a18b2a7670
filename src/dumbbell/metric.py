"""Signed distance, collar partition and conformal factors.

The conformal construction shrinks the metric by a factor epsilon on a
collar of half-width eta around a separating hypersurface and compensates
with a constant kappa outside, chosen so the total volume is independent of
(epsilon, eta).  Everything here is computed from the discrete cell
decomposition, so the volume identity holds to machine precision and is
testable as such.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .mesh import Mesh, components

REGION_COLLAR = 0
REGION_PLUS = 1
REGION_MINUS = 2

_REGION_NAMES = {REGION_COLLAR: "collar", REGION_PLUS: "plus", REGION_MINUS: "minus"}


class SeparationError(ValueError):
    """The hypersurface does not split the domain into two nonempty sides."""


@dataclass(frozen=True)
class PlaneSigma:
    """Axis-aligned hyperplane {x_0 = offset}, across the axis of the warp and the grid fibers."""

    offset: float


@dataclass(frozen=True)
class LevelSetSigma:
    """Hypersurface given as the zero set of its signed distance function.

    ``func`` maps an (N, d) coordinate array to the N signed distances to the
    hypersurface, positive on the plus side; `signed_distance` returns it
    as is, so a level function that is not a distance bends the collar.
    """

    func: Callable[[np.ndarray], np.ndarray]
    name: str = "level-set"


SigmaDescriptor = Union[PlaneSigma, LevelSetSigma]


def sphere_level(center, radius: float) -> LevelSetSigma:
    center = np.asarray(center, dtype=float)

    def fn(x):
        return np.linalg.norm(x - center, axis=-1) - radius

    return LevelSetSigma(fn, name=f"sphere(r={radius})")


def torus_level(center, major: float, minor: float) -> LevelSetSigma:
    """Genus-1 surface of revolution about the x3 axis through ``center``; its
    hypot form is a signed distance only while embedded, 0 < minor < major."""
    center = np.asarray(center, dtype=float)

    def fn(x):
        rel = x - center
        ring = np.hypot(rel[..., 0], rel[..., 1]) - major
        return np.hypot(ring, rel[..., 2]) - minor

    return LevelSetSigma(fn, name=f"torus(R={major},r={minor})")


def signed_distance(mesh: Mesh, sigma: SigmaDescriptor) -> np.ndarray:
    """Signed distance from every vertex to the hypersurface, in closed form.

    Planes are their offset coordinate; a level set is its own ``func``
    (the `LevelSetSigma` contract).  A hypersurface with every vertex on one
    side does not separate the mesh.
    """
    if isinstance(sigma, PlaneSigma):
        return mesh.vertices[:, 0] - sigma.offset
    if not isinstance(sigma, LevelSetSigma):
        raise TypeError(f"unsupported sigma descriptor: {sigma!r}")

    rho = np.asarray(sigma.func(mesh.vertices), dtype=float)
    if rho.min() >= 0 or rho.max() < 0:
        raise SeparationError(f"{sigma.name} does not separate the mesh vertices")
    return rho


@dataclass
class CollarGeometry:
    """Discrete collar partition around the hypersurface.

    Cells are labeled by the signed distance of their barycenter; the region
    volumes come from the same decomposition, so they sum to the total mesh
    volume exactly.
    """

    dim: int                   # the mesh's dimension, which sets every f^{d/2} weight
    rho: np.ndarray            # (V,) vertex signed distance
    cell_rho: np.ndarray       # (C,) barycenter signed distance
    cell_volumes: np.ndarray   # (C,) reference-metric volumes
    eta: float
    region: np.ndarray         # (C,) labels REGION_*
    vol_collar: float
    vol_plus: float
    vol_minus: float
    spacing: Optional[float]

    @property
    def total_volume(self) -> float:
        return self.vol_collar + self.vol_plus + self.vol_minus

    @property
    def vol_complement(self) -> float:
        return self.vol_plus + self.vol_minus

    def cells_of(self, label: int) -> np.ndarray:
        return self.region == label


def collar_geometry(mesh: Mesh, sigma: SigmaDescriptor, eta: float) -> CollarGeometry:
    """Label cells by barycenter distance to ``sigma`` and take discrete region volumes.

    A plane on a box grid snaps ``eta`` to the nearest grid plane (at least
    one cell layer), which puts the collar boundary on mesh facets; any
    other scene keeps eta as given.
    """
    if eta <= 0:
        raise ValueError(f"collar half-width must be positive, got {eta}")
    rho = signed_distance(mesh, sigma)
    spacing = mesh.spacing()
    if isinstance(sigma, PlaneSigma) and spacing is not None:
        eta = max(1.0, round(eta / spacing)) * spacing

    cell_rho = rho[mesh.cells].mean(axis=1)
    volumes = mesh.cell_operators().volumes
    region = np.full(mesh.num_cells, REGION_COLLAR, dtype=np.int8)
    region[cell_rho >= eta] = REGION_PLUS
    region[cell_rho <= -eta] = REGION_MINUS

    vols = {
        label: float(np.add.reduce(volumes[region == label]))
        for label in (REGION_COLLAR, REGION_PLUS, REGION_MINUS)
    }
    for label in (REGION_PLUS, REGION_MINUS):
        if not np.any(region == label):
            raise SeparationError(f"{_REGION_NAMES[label]} region is empty; sigma does not separate")
    pairs = mesh.interior_cell_pairs()
    _check_region_connected(region, pairs, REGION_PLUS)
    _check_region_connected(region, pairs, REGION_MINUS)

    return CollarGeometry(
        dim=mesh.dim,
        rho=rho,
        cell_rho=cell_rho,
        cell_volumes=volumes,
        eta=float(eta),
        region=region,
        vol_collar=vols[REGION_COLLAR],
        vol_plus=vols[REGION_PLUS],
        vol_minus=vols[REGION_MINUS],
        spacing=spacing,
    )


def _check_region_connected(region: np.ndarray, pairs: np.ndarray, label: int) -> None:
    """Raise unless the ``label`` cells are connected through the interior facet ``pairs``."""
    ids = np.flatnonzero(region == label)
    if ids.size <= 1:
        return
    both = (region[pairs[:, 0]] == label) & (region[pairs[:, 1]] == label)
    pairs = pairs[both]
    local = np.full(region.size, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)
    n_comp, _ = components(ids.size, local[pairs[:, 0]], local[pairs[:, 1]])
    if n_comp != 1:
        raise SeparationError(f"{_REGION_NAMES[label]} region is disconnected")


def kappa(epsilon: float, vol_collar: float, vol_complement: float, d: int) -> float:
    """Volume-compensating factor for the outside of the collar.

    Defined by kappa^{d/2} vol_complement + epsilon^{d/2} vol_collar =
    vol_collar + vol_complement, i.e. the conformal metric keeps the total
    volume of the reference metric.
    """
    if not (0 < vol_collar < np.inf and 0 < vol_complement < np.inf):
        raise ValueError("region volumes must be positive and finite")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    ratio = vol_collar / vol_complement
    return float((1.0 + (1.0 - epsilon ** (d / 2.0)) * ratio) ** (2.0 / d))


def kappa_zero(vol_collar: float, vol_complement: float, d: int) -> float:
    """Limit of kappa as epsilon -> 0."""
    if not (0 < vol_collar < np.inf and 0 < vol_complement < np.inf):
        raise ValueError("region volumes must be positive and finite")
    return float((1.0 + vol_collar / vol_complement) ** (2.0 / d))


def smoothstep_quintic(t: np.ndarray) -> np.ndarray:
    """C^2 monotone ramp on [0, 1] with flat ends (6t^5 - 15t^4 + 10t^3)."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


@dataclass
class ConformalField:
    """Piecewise-constant conformal factor per cell, plus its bookkeeping."""

    epsilon: float
    kappa: float
    profile: str                     # "step" | "mollified"
    transition: Optional[float]      # width 1/n of the mollified ramp
    f: np.ndarray                    # (C,) positive factors

    def to_dict(self) -> dict:
        """JSON-ready form without the (bulky) per-cell factors."""
        return {
            "epsilon": float(self.epsilon),
            "kappa": float(self.kappa),
            "profile": self.profile,
            "transition": None if self.transition is None else float(self.transition),
        }


def build_conformal_field(
    geom: CollarGeometry,
    epsilon: float,
    mollify_n: Optional[int] = None,
) -> ConformalField:
    """Conformal factor: epsilon on the collar, kappa outside, a step at |rho| = eta.

    A positive ``mollify_n`` replaces the jump with the quintic ramp on
    [eta - 1/n, eta], evaluated at cell barycenters; it no longer preserves
    volume exactly (see `volume_rescale_factor`).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    kap = kappa(epsilon, geom.vol_collar, geom.vol_complement, geom.dim)
    if mollify_n is None:
        f = np.where(geom.region == REGION_COLLAR, epsilon, kap)
        return ConformalField(epsilon, kap, "step", None, f)
    if mollify_n <= 0:
        raise ValueError("mollified profile needs a positive transition index n")
    width = 1.0 / mollify_n
    if geom.spacing is not None and width < geom.spacing - 1e-12:
        warnings.warn(
            f"mollification width {width:g} is below the mesh spacing {geom.spacing:g}",
            stacklevel=2,
        )
    t = (np.abs(geom.cell_rho) - (geom.eta - width)) / width
    f = epsilon + (kap - epsilon) * smoothstep_quintic(t)
    return ConformalField(epsilon, kap, "mollified", width, f)


def conformal_volume(field: ConformalField, geom: CollarGeometry) -> float:
    """Total volume under the conformal metric, sum of f^{d/2} cell volumes."""
    return float(np.add.reduce(field.f ** (geom.dim / 2.0) * geom.cell_volumes))


def verify_volume_preservation(field: ConformalField, geom: CollarGeometry) -> float:
    """Relative volume defect of the conformal metric.

    Zero to roundoff for the step profile (kappa is computed from the same
    discrete volumes); strictly positive for mollified profiles.
    """
    total = geom.total_volume
    return abs(conformal_volume(field, geom) - total) / total


def volume_rescale_factor(field: ConformalField, geom: CollarGeometry) -> float:
    """Constant gamma with gamma^{d/2} Vol(f g0) = Vol(g0).

    Rescaling a mollified metric by gamma restores the volume without
    changing eigenfunctions; eigenvalues divide by gamma.
    """
    return float((geom.total_volume / conformal_volume(field, geom)) ** (2.0 / geom.dim))

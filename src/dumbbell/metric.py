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
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .mesh import Mesh

REGION_COLLAR = 0
REGION_PLUS = 1
REGION_MINUS = 2

_REGION_NAMES = {REGION_COLLAR: "collar", REGION_PLUS: "plus", REGION_MINUS: "minus"}


class SeparationError(ValueError):
    """The hypersurface does not split the domain into two nonempty sides."""


@dataclass(frozen=True)
class PlaneSigma:
    """Axis-aligned hyperplane {x_axis = offset}."""

    offset: float
    axis: int = 0


@dataclass(frozen=True)
class LevelSetSigma:
    """Hypersurface given as the zero set of a smooth level function.

    ``func`` maps an (N, d) coordinate array to N level values; its gradient
    must not vanish near the zero set.
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
    """Genus-1 surface of revolution about the x3 axis through ``center``."""
    center = np.asarray(center, dtype=float)

    def fn(x):
        rel = x - center
        ring = np.hypot(rel[..., 0], rel[..., 1]) - major
        return np.hypot(ring, rel[..., 2]) - minor

    return LevelSetSigma(fn, name=f"torus(R={major},r={minor})")


def signed_distance(mesh: Mesh, sigma: SigmaDescriptor) -> np.ndarray:
    """Signed distance from every vertex to the hypersurface.

    Planes are exact.  Level sets are triangulated by marching simplices on
    the vertex samples and the distance is the exact point-to-fragment
    distance, signed by the level function; near the surface this is accurate
    to second order in the mesh spacing.
    """
    if isinstance(sigma, PlaneSigma):
        return mesh.vertices[:, sigma.axis] - sigma.offset
    if not isinstance(sigma, LevelSetSigma):
        raise TypeError(f"unsupported sigma descriptor: {sigma!r}")

    phi = np.asarray(sigma.func(mesh.vertices), dtype=float)
    triangles = _zero_set_triangles(mesh, phi)
    if triangles.shape[0] == 0:
        raise SeparationError(f"{sigma.name} does not intersect the mesh")
    dist = _distance_to_triangles(mesh.vertices, triangles, mesh.dim)
    sign = np.where(phi >= 0, 1.0, -1.0)
    return sign * dist


# fan of a planar zero-set polygon, by its vertex count: the segment itself
# in 2d, a triangle or a quad in 3d
_FAN = {2: [(0, 1)], 3: [(0, 1, 2)], 4: [(0, 1, 2), (0, 2, 3)]}


def _zero_set_triangles(mesh: Mesh, phi: np.ndarray) -> np.ndarray:
    from .nodal import extract_nodal_set  # local import, no cycle at module load

    d = mesh.dim
    by_size = {}
    for frag in extract_nodal_set(mesh, phi).fragments:
        by_size.setdefault(frag.points.shape[0], []).append(frag.points)
    tris = [np.stack(pts)[:, _FAN[k]].reshape(-1, d, d) for k, pts in by_size.items()]
    return np.concatenate(tris) if tris else np.empty((0, d, d))


def _distance_to_triangles(points: np.ndarray, tris: np.ndarray, dim: int) -> np.ndarray:
    """Distance from each point to the nearest fragment (segment in 2d).

    The nearest fragment is no farther than the nearest centroid, and all of
    it lies within ``reach`` (the largest centroid-to-corner distance) of its
    centroid, so only fragments whose centroid is within that sum of the
    point are measured: the minimum over all fragments, to the bit.
    """
    from scipy.spatial import cKDTree  # level sets only; plane scenes skip its import

    centroids = tris.mean(axis=1)
    reach = np.linalg.norm(tris - centroids[:, None, :], axis=2).max()
    tree = cKDTree(centroids)
    out = np.empty(points.shape[0])
    chunk = 4096
    for start in range(0, points.shape[0], chunk):
        p = points[start : start + chunk]
        nearest, _ = tree.query(p)
        near = tree.query_ball_point(p, (nearest + reach) * (1 + 1e-9) + 1e-12, return_sorted=False)
        counts = np.array([len(c) for c in near])
        pt = np.repeat(np.arange(p.shape[0]), counts)
        corners = np.moveaxis(tris[np.concatenate(near).astype(np.int64)], 1, 0)
        d2 = (_point_segment_sq if dim == 2 else _point_triangle_sq)(p[pt], *corners)
        out[start : start + chunk] = np.sqrt(np.minimum.reduceat(d2, np.cumsum(counts) - counts))
    return out


def _dot(x, y):
    """Inner product over the last axis, summed in a fixed order."""
    return sum(x[..., k] * y[..., k] for k in range(x.shape[-1]))


def _point_segment_sq(p, a, b):
    """Squared point-to-segment distances; arguments broadcast, (..., d)."""
    ab = b - a
    ap = p - a
    t = np.clip(_dot(ap, ab) / np.maximum(_dot(ab, ab), 1e-300), 0.0, 1.0)
    diff = ap - t[..., None] * ab
    return _dot(diff, diff)


def _point_triangle_sq(p, a, b, c):
    """Squared point-to-triangle distances (Ericson's region method);
    arguments broadcast, (..., d)."""
    ab = b - a
    ac = c - a
    ap, bp, cp = p - a, p - b, p - c
    d1, d2 = _dot(ap, ab), _dot(ap, ac)
    d3, d4 = _dot(bp, ab), _dot(bp, ac)
    d5, d6 = _dot(cp, ab), _dot(cp, ac)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = np.maximum(va + vb + vc, 1e-300)
    v = vb / denom
    w = vc / denom
    # interior projection, then overwrite with the applicable edge/vertex case
    proj = a + v[..., None] * ab + w[..., None] * ac

    t_ab = np.clip(d1 / np.maximum(d1 - d3, 1e-300), 0.0, 1.0)
    on_ab = a + t_ab[..., None] * ab
    t_ac = np.clip(d2 / np.maximum(d2 - d6, 1e-300), 0.0, 1.0)
    on_ac = a + t_ac[..., None] * ac
    num_bc = d4 - d3
    t_bc = np.clip(num_bc / np.maximum(num_bc + (d5 - d6), 1e-300), 0.0, 1.0)
    on_bc = b + t_bc[..., None] * (c - b)

    region_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    region_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    region_bc = (va <= 0) & (num_bc >= 0) & ((d5 - d6) >= 0)
    vert_a = (d1 <= 0) & (d2 <= 0)
    vert_b = (d3 >= 0) & (d4 <= d3)
    vert_c = (d6 >= 0) & (d5 <= d6)

    proj = np.where(region_bc[..., None], on_bc, proj)
    proj = np.where(region_ac[..., None], on_ac, proj)
    proj = np.where(region_ab[..., None], on_ab, proj)
    proj = np.where(vert_c[..., None], c, proj)
    proj = np.where(vert_b[..., None], b, proj)
    proj = np.where(vert_a[..., None], a, proj)
    diff = p - proj
    return _dot(diff, diff)


@dataclass
class CollarGeometry:
    """Discrete collar partition around the hypersurface.

    Cells are labeled by the signed distance of their barycenter; the region
    volumes come from the same decomposition, so they sum to the total mesh
    volume exactly.
    """

    rho: np.ndarray            # (V,) vertex signed distance
    cell_rho: np.ndarray       # (C,) barycenter signed distance
    cell_volumes: np.ndarray   # (C,) reference-metric volumes
    eta: float
    region: np.ndarray         # (C,) labels REGION_*
    vol_collar: float
    vol_plus: float
    vol_minus: float
    grid_aligned: bool
    spacing: Optional[float]

    @property
    def total_volume(self) -> float:
        return self.vol_collar + self.vol_plus + self.vol_minus

    @property
    def vol_complement(self) -> float:
        return self.vol_plus + self.vol_minus

    def cells_of(self, label: int) -> np.ndarray:
        return self.region == label


def collar_geometry(
    mesh: Mesh,
    rho: np.ndarray,
    eta: float,
    snap: Optional[bool] = None,
) -> CollarGeometry:
    """Label cells by barycenter distance and take discrete region volumes.

    For box grids ``eta`` snaps to the nearest grid plane (at least one cell
    layer), which puts the collar boundary on mesh facets; ``snap=False``
    keeps eta as given (curved hypersurfaces).
    """
    if eta <= 0:
        raise ValueError(f"collar half-width must be positive, got {eta}")
    rho = np.asarray(rho, dtype=float)
    spacing = mesh.spacing()
    if snap is None:
        snap = spacing is not None
    if snap:
        if spacing is None:
            raise ValueError("cannot snap eta without a grid resolution")
        eta = max(1.0, round(eta / spacing)) * spacing

    cell_rho = rho[mesh.cells].mean(axis=1)
    volumes = mesh.cell_volumes()
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
    _check_region_connected(mesh, region, REGION_PLUS)
    _check_region_connected(mesh, region, REGION_MINUS)

    # operational grid alignment: vertices exist exactly on both collar planes
    aligned = bool(
        snap
        and np.any(np.abs(rho - eta) < 1e-12)
        and np.any(np.abs(rho + eta) < 1e-12)
    )
    return CollarGeometry(
        rho=rho,
        cell_rho=cell_rho,
        cell_volumes=volumes,
        eta=float(eta),
        region=region,
        vol_collar=vols[REGION_COLLAR],
        vol_plus=vols[REGION_PLUS],
        vol_minus=vols[REGION_MINUS],
        grid_aligned=aligned,
        spacing=spacing,
    )


def _check_region_connected(mesh: Mesh, region: np.ndarray, label: int) -> None:
    ids = np.flatnonzero(region == label)
    if ids.size <= 1:
        return
    _, pairs = mesh.interior_facet_pairs()
    both = (region[pairs[:, 0]] == label) & (region[pairs[:, 1]] == label)
    pairs = pairs[both]
    local = np.full(mesh.num_cells, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)
    g = sparse.coo_matrix(
        (np.ones(pairs.shape[0], dtype=np.int8), (local[pairs[:, 0]], local[pairs[:, 1]])),
        shape=(ids.size, ids.size),
    )
    n_comp, _ = connected_components(g, directed=False)
    if n_comp != 1:
        raise SeparationError(f"{_REGION_NAMES[label]} region is disconnected")


def kappa(epsilon: float, vol_collar: float, vol_complement: float, d: int) -> float:
    """Volume-compensating factor for the outside of the collar.

    Defined by kappa^{d/2} vol_complement + epsilon^{d/2} vol_collar =
    vol_collar + vol_complement, i.e. the conformal metric keeps the total
    volume of the reference metric.
    """
    if vol_collar <= 0 or vol_complement <= 0:
        raise ValueError("region volumes must be positive")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    ratio = vol_collar / vol_complement
    return float((1.0 + (1.0 - epsilon ** (d / 2.0)) * ratio) ** (2.0 / d))


def kappa_zero(vol_collar: float, vol_complement: float, d: int) -> float:
    """Limit of kappa as epsilon -> 0."""
    if vol_collar <= 0 or vol_complement <= 0:
        raise ValueError("region volumes must be positive")
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

    def scaled(self, c: float) -> "ConformalField":
        return ConformalField(self.epsilon, self.kappa, self.profile, self.transition, self.f * c)

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
    d: int,
    profile: str = "step",
    mollify_n: Optional[int] = None,
) -> ConformalField:
    """Conformal factor: epsilon on the collar, kappa outside.

    The mollified variant replaces the jump at |rho| = eta with the quintic
    ramp on [eta - 1/n, eta], evaluated at cell barycenters; it no longer
    preserves volume exactly (see `volume_rescale_factor`).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    kap = kappa(epsilon, geom.vol_collar, geom.vol_complement, d)
    if profile == "step":
        f = np.where(geom.region == REGION_COLLAR, epsilon, kap)
        return ConformalField(epsilon, kap, "step", None, f)
    if profile != "mollified":
        raise ValueError(f"unknown profile '{profile}'")
    if mollify_n is None or mollify_n <= 0:
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


def conformal_volume(field: ConformalField, geom: CollarGeometry, d: int) -> float:
    """Total volume under the conformal metric, sum of f^{d/2} cell volumes."""
    return float(np.add.reduce(field.f ** (d / 2.0) * geom.cell_volumes))


def verify_volume_preservation(field: ConformalField, geom: CollarGeometry, d: int) -> float:
    """Relative volume defect of the conformal metric.

    Zero to roundoff for the step profile (kappa is computed from the same
    discrete volumes); strictly positive for mollified profiles.
    """
    total = geom.total_volume
    return abs(conformal_volume(field, geom, d) - total) / total


def volume_rescale_factor(field: ConformalField, geom: CollarGeometry, d: int) -> float:
    """Constant gamma with gamma^{d/2} Vol(f g0) = Vol(g0).

    Rescaling a mollified metric by gamma restores the volume without
    changing eigenfunctions; eigenvalues divide by gamma.
    """
    return float((geom.total_volume / conformal_volume(field, geom, d)) ** (2.0 / d))

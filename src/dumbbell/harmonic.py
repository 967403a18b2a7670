"""Plateau constants, collar harmonic extensions, and their affine model.

As the conformal factor vanishes on the collar, the first eigenfunction
locks to constants c+ > 0 > c- on the two bulk regions (fixed by a zero-mean
and unit-norm system) and to the harmonic extension h of those constants
inside the collar.  For thin collars h is close to the affine profile
hbar(rho) = (c+ + c-)/2 + (c+ - c-) rho / (2 eta); the remainder w = h - hbar
solves a Poisson problem that this module also solves spectrally, as a sine
series in the stretched collar coordinate with one dense collocation solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg

from .assembly import assemble
from .mesh import Mesh
from .metric import REGION_COLLAR, REGION_MINUS, REGION_PLUS, CollarGeometry


@dataclass(frozen=True)
class PlateauConstants:
    """Limiting bulk values of the first eigenfunction.

    They satisfy  c+^2 vol+ + c-^2 vol- = kappa0^{-d/2}  (unit norm) and
    c+ vol+ + c- vol- = 0  (zero mean), with the sign convention c+ > 0.
    """

    c_plus: float
    c_minus: float
    kappa0: float

    @property
    def gap(self) -> float:
        return self.c_plus - self.c_minus


def compute_plateaus(vol_plus: float, vol_minus: float, kappa0: float, d: int) -> PlateauConstants:
    """Closed-form solution of the zero-mean, unit-norm plateau system."""
    inputs = np.array([vol_plus, vol_minus, kappa0], dtype=float)
    if not np.all(np.isfinite(inputs) & (inputs > 0)):
        raise ValueError(f"region volumes and kappa0 must be positive and finite, got {inputs.tolist()}")
    c_plus = kappa0 ** (-d / 4.0) * math.sqrt(vol_minus / (vol_plus * (vol_plus + vol_minus)))
    c_minus = -c_plus * vol_plus / vol_minus
    return PlateauConstants(c_plus=c_plus, c_minus=c_minus, kappa0=kappa0)


def hbar(rho, eta: float, consts: PlateauConstants):
    """Affine collar model; takes the plateau values at rho = +/- eta."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    mid = 0.5 * (consts.c_plus + consts.c_minus)
    slope = 0.5 * (consts.c_plus - consts.c_minus) / eta
    return mid + slope * np.asarray(rho)


def hbar_root(eta: float, consts: PlateauConstants) -> float:
    """Zero of the affine model, the predicted nodal-set offset."""
    return -eta * (consts.c_plus + consts.c_minus) / (consts.c_plus - consts.c_minus)


@dataclass
class HarmonicSolution:
    """Discrete harmonic extension of the plateau values over the collar."""

    vertex_ids: np.ndarray      # global vertices of the collar (with boundary)
    values: np.ndarray          # h at those vertices
    boundary_plus: np.ndarray   # global vertices held at c+
    sup_deviation: float        # max |h - hbar|

    def scatter(self, n_vertices: int, fill: float = np.nan) -> np.ndarray:
        out = np.full(n_vertices, fill)
        out[self.vertex_ids] = self.values
        return out


def collar_boundary_vertices(mesh: Mesh, geom: CollarGeometry):
    """Vertices of the collar shared with each bulk region (topological)."""
    touch = np.zeros((3, mesh.num_vertices), dtype=bool)  # touch[r, v]: v lies on a cell of region r
    touch[geom.region[:, None], mesh.cells] = True
    b_plus = np.flatnonzero(touch[REGION_COLLAR] & touch[REGION_PLUS])
    b_minus = np.flatnonzero(touch[REGION_COLLAR] & touch[REGION_MINUS])
    return b_plus, b_minus


def solve_harmonic(mesh: Mesh, geom: CollarGeometry, consts: PlateauConstants) -> HarmonicSolution:
    """Dirichlet solve of the reference-metric Laplacian on the collar.

    Boundary data is c+ on the interface to the plus region and c- on the
    minus one; outer box faces inside the collar stay natural.  The interior
    values solve the reduced system K_ii h_i = -K_ib h_b (symmetric positive
    definite: each piece of the collar touches a bulk cell) by Jacobi-preconditioned
    CG to relative residual 1e-13 within one step per interior dof, or raise.
    """
    pair = assemble(mesh, field=None, cell_mask=geom.region == REGION_COLLAR)
    b_plus, b_minus = collar_boundary_vertices(mesh, geom)
    if np.intersect1d(b_plus, b_minus, assume_unique=True).size:
        raise ValueError("collar thinner than a cell: a vertex borders both bulk regions")
    boundary = np.searchsorted(pair.dof_map, np.concatenate([b_plus, b_minus]))  # all in dof_map
    values = np.repeat([consts.c_plus, consts.c_minus], [b_plus.size, b_minus.size])
    interior = np.setdiff1d(np.arange(pair.n_dof), boundary, assume_unique=True)
    K_i = pair.K[interior]
    K_ii = K_i[:, interior]
    rhs = -K_i[:, boundary] @ values
    x, info = cg(K_ii, rhs, rtol=1e-13, atol=0.0, maxiter=interior.size, M=sparse.diags(1.0 / K_ii.diagonal()))
    if info:
        residual = np.linalg.norm(rhs - K_ii @ x) / np.linalg.norm(rhs)
        raise RuntimeError(f"collar CG missed rtol 1e-13 in {interior.size} steps: relative residual {residual:.3e}")
    h = np.zeros(pair.n_dof)
    h[boundary] = values
    h[interior] = x
    sup = float(np.abs(h - hbar(geom.rho[pair.dof_map], geom.eta, consts)).max())
    return HarmonicSolution(vertex_ids=pair.dof_map, values=h, boundary_plus=b_plus, sup_deviation=sup)


def warped_harmonic_1d(
    w_profile: Callable[[np.ndarray], np.ndarray],
    eta: float,
    consts: PlateauConstants,
    d: int,
):
    """Closed-form collar harmonic on a warped product, as a callable of rho.

    Separation of variables reduces the collar problem to
    (w^{d-1} h')' = 0, so h' is proportional to w^{1-d} and
    h(rho) = c- + (c+ - c-) * int_{-eta}^{rho} w^{1-d} / int_{-eta}^{eta} w^{1-d}.
    Integrals use the 8-point Gauss-Legendre rule on each of 64 panels and
    on the partial panel up to rho; endpoint values are exact.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    x, weights = np.polynomial.legendre.leggauss(8)

    def integral(a, b):
        """int_a^b w^{1-d} over each pair of interval ends in the arrays a, b."""
        half = 0.5 * (b - a)
        t = (0.5 * (a + b))[:, None] + half[:, None] * x
        w = np.broadcast_to(np.asarray(w_profile(t), dtype=float), t.shape)
        with np.errstate(all="ignore"):  # a power that leaves the finite positives is rejected below
            power = w ** (1.0 - d)
        bad = ~(np.isfinite(w) & (w > 0) & np.isfinite(power) & (power > 0))
        if bad.any():
            raise ValueError(f"non-positive or non-finite warp sample at rho={t[bad][0]}")
        return half * (power @ weights)

    nodes = np.linspace(-eta, eta, 65)
    cumulative = np.concatenate([[0.0], np.cumsum(integral(nodes[:-1], nodes[1:]))])
    total = cumulative[-1]

    def h(rho):
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        inside = np.clip(rho_arr, -eta, eta)
        k = np.clip(np.searchsorted(nodes, inside) - 1, 0, len(nodes) - 2)
        partial = cumulative[k] + integral(nodes[k], inside)
        out = consts.c_minus + (consts.c_plus - consts.c_minus) * partial / total
        out = np.where(rho_arr <= -eta, consts.c_minus, np.where(rho_arr >= eta, consts.c_plus, out))
        return out if np.ndim(rho) else float(out[0])

    return h


@dataclass
class FourierCollarSolution:
    """Sine-series solution of the collar remainder problem."""

    coefficients: np.ndarray      # (n_sigma,) sine coefficients
    eta: float

    def evaluate_rho(self, rho) -> np.ndarray:
        """w at rho, through the stretched coordinate sigma = (rho + eta) pi / (2 eta)."""
        sigma = (np.atleast_1d(np.asarray(rho, dtype=float)) + self.eta) * np.pi / (2.0 * self.eta)
        modes = np.arange(1, self.coefficients.shape[0] + 1)
        return np.tensordot(np.sin(np.outer(sigma, modes)), self.coefficients, axes=(1, 0))


def collar_fourier_solve(
    eta: float,
    forcing: Callable[[np.ndarray], np.ndarray],
    g1: Callable[[np.ndarray], np.ndarray],
    n_sigma: int = 64,
) -> FourierCollarSolution:
    """Solve the stretched-collar problem for w = h - hbar by sine series.

    The collar is a warped product over a point cross-section, so w depends
    on rho alone.  In sigma = (rho + eta) pi / (2 eta) the Laplacian is
    (pi/2 eta)^2 d^2/dsigma^2 minus the lower-order term L = (G1/eta) d/dsigma,
    with Dirichlet values w(0) = w(pi) = 0 built into the basis.  Collocating
    F and G1 on max(2 n_sigma, 8) interior points and projecting back onto
    the modes gives one dense n_sigma x n_sigma system,
    (diag(pi^2 n^2 / 4 eta^2) + analyze diag(G1/eta) dcos) c = -analyze(F) / eta,
    solved once.  ``forcing`` and ``g1`` are callables of rho, sampled there
    and returning arrays of the samples' shape.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    n_grid = max(2 * n_sigma, 8)
    sigma = np.arange(1, n_grid + 1) * np.pi / (n_grid + 1)
    rho = 2.0 * eta * sigma / np.pi - eta
    modes = np.arange(1, n_sigma + 1)
    analyze = (2.0 / (n_grid + 1)) * np.sin(np.outer(modes, sigma))   # (modes, grid)
    dcos = np.cos(np.outer(sigma, modes)) * modes                       # d/dsigma of sin basis
    system = np.diag((np.pi**2 / (4.0 * eta**2)) * modes.astype(float) ** 2)
    system += analyze @ ((g1(rho) / eta)[:, None] * dcos)
    coef = np.linalg.solve(system, -(analyze @ forcing(rho)) / eta)
    return FourierCollarSolution(coefficients=coef, eta=eta)

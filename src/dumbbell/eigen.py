"""Lowest modes of the generalized pencil K u = lambda M u.

The solver is a deterministic block shift-invert subspace iteration with
Rayleigh-Ritz extraction.  One sparse LU of (K - sigma M) backs the whole
run; M is only ever applied, never inverted, which matters when the mass
weights span many orders of magnitude at small epsilon.  The near-null
constant mode is removed by explicit M-orthogonalization every iteration and
reported separately as mode zero, so it cannot contaminate the first
nontrivial eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import OperatorPair
from .metric import REGION_COLLAR, CollarGeometry, ConformalField


class EigenConvergenceError(RuntimeError):
    """Iteration cap reached; carries the best residual seen."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass
class EigenResult:
    values: np.ndarray      # (m,) ascending, mode 0 is the constant
    vectors: np.ndarray     # (n_dof, m), M-orthonormal columns
    residuals: np.ndarray   # (m,) relative residuals


def _relative_residuals(K, M, vectors, values, sigma):
    KX = K @ vectors
    MX = M @ vectors
    num = np.linalg.norm(KX - MX * values[None, :], axis=0)
    den = np.maximum(values, sigma) * np.linalg.norm(MX, axis=0)
    return num / np.maximum(den, 1e-300)


def solve_smallest(
    pair: OperatorPair,
    m: int,
    tol: float = 1e-9,
    shift_estimate: Optional[float] = None,
    seed: int = 0,
    max_iterations: int = 500,
) -> EigenResult:
    """The m smallest eigenpairs, constant mode included.

    The shift is a tenth of ``shift_estimate`` (an a priori guess for the
    smallest nonzero eigenvalue), which keeps it below that value; with no
    estimate a tiny positive value keeps the factorization away from zero.
    """
    if m < 2:
        raise ValueError(f"need at least 2 modes, got {m}")
    K, M = pair.K, pair.M
    n = K.shape[0]

    ones = np.ones(n)
    Mones = M @ ones
    mass = float(ones @ Mones)
    lam0 = float(ones @ (K @ ones)) / mass
    v0 = ones / np.sqrt(mass)

    sigma = max(1e-8, 0.1 * (shift_estimate or 0.0))
    lu = None
    for _ in range(5):
        try:
            lu = splu((K - sigma * M).tocsc())
            break
        except RuntimeError:
            sigma = sigma * 3.7 + 1e-10  # shift hit an eigenvalue; nudge it
    if lu is None:
        raise EigenConvergenceError("factorization of (K - sigma M) failed", float("inf"))

    def deflate(X):
        X -= np.outer(ones, (Mones @ X) / mass)
        return X

    rng = np.random.default_rng(seed)
    block = m + 2
    X = deflate(rng.standard_normal((n, block)))

    best = float("inf")
    theta = None
    for _ in range(max_iterations):
        Y = deflate(lu.solve(M @ X))
        G = Y.T @ (M @ Y)
        G = 0.5 * (G + G.T)
        w, V = np.linalg.eigh(G)
        keep = w > max(w.max(), 0.0) * 1e-13
        if np.count_nonzero(keep) < m - 1:
            raise EigenConvergenceError("iteration subspace collapsed", best)
        Q = Y @ (V[:, keep] / np.sqrt(w[keep]))
        A = Q.T @ (K @ Q)
        A = 0.5 * (A + A.T)
        theta, C = np.linalg.eigh(A)
        X = Q @ C
        lead = min(m - 1, X.shape[1])
        res = _relative_residuals(K, M, X[:, :lead], theta[:lead], sigma)
        best = min(best, float(res.max()))
        if np.all(res <= tol):
            break
    else:
        raise EigenConvergenceError(f"no convergence in {max_iterations} iterations", best)

    vectors = np.column_stack([v0, X[:, : m - 1]])
    values = np.concatenate([[lam0], theta[: m - 1]])
    residuals = _relative_residuals(K, M, vectors, values, sigma)
    return EigenResult(values=values, vectors=vectors, residuals=residuals)


def rayleigh_quotient(pair: OperatorPair, v: np.ndarray) -> float:
    """v'Kv / v'Mv for a vertex vector on the pair's dofs."""
    v = np.asarray(v, dtype=float)
    mvv = float(v @ (pair.M @ v))
    if mvv <= 0:
        raise ValueError("vector has zero mass norm")
    return float(v @ (pair.K @ v)) / mvv


def normalize_and_sign(result: EigenResult, pair: OperatorPair, geom: CollarGeometry) -> EigenResult:
    """Unit mass norm for every mode; positive plateau on the plus side.

    The first nontrivial eigenvector is flipped when its mass-weighted mean
    over the plus region is negative (lumped row-sum weights over vertices
    with rho >= eta, which has the plateau's sign).
    """
    vectors = result.vectors.copy()
    lumped = np.asarray(pair.M.sum(axis=1)).reshape(-1)
    for j in range(vectors.shape[1]):
        nrm = float(vectors[:, j] @ (pair.M @ vectors[:, j]))
        if nrm <= 0:
            raise ValueError(f"mode {j} is a zero vector")
        vectors[:, j] /= np.sqrt(nrm)
    if vectors.shape[1] > 1:
        rho = geom.rho[pair.dof_map]
        plus = rho >= geom.eta - 1e-12
        mean_plus = float(np.add.reduce(lumped[plus] * vectors[plus, 1]))
        if mean_plus < 0:
            vectors[:, 1] = -vectors[:, 1]
    return replace(result, vectors=vectors)


def collar_ramp_vector(geom: CollarGeometry, field: ConformalField, d: int):
    """Lipschitz comparison field: 1 on the minus side, affine ramp across
    the collar, constant 1 - 2 a eta on the plus side.

    The ramp slope ``a`` makes the conformal mean vanish by construction,
    using the same discrete volumes the operators were assembled from.
    Returns (vector over all vertices, a).
    """
    eps_w = field.epsilon ** (d / 2.0)
    kap_w = field.kappa ** (d / 2.0)
    collar = geom.region == REGION_COLLAR
    moment = float(
        np.add.reduce(geom.cell_volumes[collar] * (geom.eta + geom.cell_rho[collar]))
    )
    a = (kap_w * geom.vol_complement + eps_w * geom.vol_collar) / (
        2.0 * geom.eta * kap_w * geom.vol_plus + eps_w * moment
    )
    rho = geom.rho
    u = np.where(
        rho <= -geom.eta,
        1.0,
        np.where(rho >= geom.eta, 1.0 - 2.0 * a * geom.eta, 1.0 - a * (geom.eta + rho)),
    )
    return u, float(a)


def test_function_bound(
    geom: CollarGeometry,
    field: ConformalField,
    pair: OperatorPair,
    d: int,
) -> float:
    """Energy quotient of the explicit collar ramp; an upper bound for the
    first nontrivial eigenvalue of the same pair by min-max.

    Requires the collar boundary to sit on mesh planes so the ramp is exactly
    representable in the P1 space; otherwise the bound is not valid and the
    call is refused.
    """
    if not geom.grid_aligned:
        raise ValueError("collar half-width is not grid aligned; ramp is not representable")
    if field.profile != "step":
        raise ValueError("the ramp bound is defined for the step profile")
    u, _ = collar_ramp_vector(geom, field, d)
    u = u[pair.dof_map]
    ones = np.ones(pair.n_dof)
    Mones = pair.M @ ones
    mean = float(u @ Mones) / float(ones @ Mones)
    u = u - mean  # re-project the roundoff mean; analytic a already kills it
    return rayleigh_quotient(pair, u)

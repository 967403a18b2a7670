"""Lowest modes of the generalized pencil K u = lambda M u.

A block of m + 2 vectors, M-orthogonal to the constant mode (reported apart
as mode zero), is improved by LOBPCG steps (Knyazev 2001) until the m - 1
leading relative residuals, confirmed on fresh images, are at most ``tol``.
Only those active columns get search directions W and P (Duersch et al.
2018), and only [W, P] meets K and M in a step: the block carries its images.
M is only applied, never inverted, which matters when the mass weights span
many orders of magnitude at small epsilon.  The preconditioner is a V-cycle
for K + M/10 on the nested Freudenthal/Kuhn grids (Bey 2000), coarsened while
every axis of ``OperatorPair.grid`` is even and above 8; its coarsest level
is a sparse LU, so a pair that does not halve is preconditioned by that LU
of the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .assembly import OperatorPair
from .mesh import Mesh
from .metric import REGION_MINUS, REGION_PLUS, CollarGeometry


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
    iterations: int         # improving steps taken
    levels: int             # grid coarsenings of the preconditioner; 0 for none


def _relative_residuals(KX, MX, values, floor):
    """|K x - theta M x| / (max(theta, floor) |M x|) for each column x,
    given the images KX and MX of the columns."""
    num = np.linalg.norm(KX - MX * values[None, :], axis=0)
    den = np.maximum(values, floor) * np.linalg.norm(MX, axis=0)
    return num / np.maximum(den, 1e-300)


def _ritz_update(K, M, X, KX, MX, S, block, active, best):
    """Rayleigh-Ritz on [X, S], applying K and M to the new directions S only.

    X is M-orthonormal and carries its images KX and MX.  The deflated S is
    M-orthogonalized against X twice through the carried MX (Hetmaniuk and
    Lehoucq 2006), then orthonormalized twice through its column-scaled Gram
    matrix, dropping directions in which its columns are numerically
    dependent; M S is applied once and carried through both changes of basis.
    Returns the ``block`` leading Ritz vectors, their images and values, and
    P, the part of the ``active`` leading ones that is M-orthogonal to X.  If
    every new direction is dropped, the error carries ``best``, the best
    residual so far.
    """
    for _ in range(2):
        S -= X @ (MX.T @ S)
    MS = M @ S
    for _ in range(2):
        G = S.T @ MS
        s = 1.0 / np.sqrt(np.maximum(np.diag(G), 1e-300))
        w, V = np.linalg.eigh(0.5 * (G + G.T) * np.outer(s, s))
        keep = w > w.max(initial=0.0) * 1e-13  # initial: S may already be empty
        T = np.ascontiguousarray(s[:, None] * V[:, keep] / np.sqrt(w[keep]))  # F order makes S @ T ~4x slower
        S = S @ T  # one at a time, so each old basis is freed before the next image is made
        MS = MS @ T
    if not S.shape[1]:
        raise EigenConvergenceError("iteration subspace collapsed", best)
    KS = K @ S
    A = np.block([[X.T @ KX, X.T @ KS], [S.T @ KX, S.T @ KS]])  # no hstack: strided copies are slow
    theta, C = np.linalg.eigh(0.5 * (A + A.T))
    k = X.shape[1]
    CX, CS = C[:k, :block], C[k:, :block]
    P = S @ CS[:, :active] if k else S[:, :0]  # the start block has no previous step
    return X @ CX + S @ CS, KX @ CX + KS @ CS, MX @ CX + MS @ CS, theta[:block], P


def _halves(grid) -> bool:
    return grid is not None and all(k % 2 == 0 and k > 8 for k in grid)


@lru_cache(maxsize=8)
def _prolongation(grid: tuple) -> sparse.csr_matrix:
    """Exact P1 prolongation from the Kuhn grid grid/2 to grid.

    Each fine vertex is the mean of the coarse vertices floor(i/2) and
    ceil(i/2), taken per axis: the two ends of the coarse edge it halves,
    or twice the coarse vertex it sits on.
    """
    fine = np.indices([k + 1 for k in grid]).reshape(len(grid), -1)
    coarse = [k // 2 + 1 for k in grid]
    cols = np.concatenate([np.ravel_multi_index(fine // 2, coarse),
                           np.ravel_multi_index((fine + 1) // 2, coarse)])
    rows = np.tile(np.arange(fine.shape[1]), 2)
    shape = (fine.shape[1], int(np.prod(coarse)))
    return sparse.csr_matrix((np.full(rows.size, 0.5), (rows, cols)), shape=shape)


def _v_cycle(A, grid):
    """V-cycle for the SPD matrix A on a box grid, or on no grid (None):
    damped Jacobi (omega 0.6, two sweeps down, three up), Galerkin coarse
    operators P'AP, and on the first grid that does not halve a
    symmetric-mode SuperLU (minimum degree on A'+A, diagonal pivots).
    Returns (apply, number of coarsenings).  ``apply`` holds the levels
    without referring to itself, so they are freed with it."""
    hierarchy = []
    while _halves(grid):
        P = _prolongation(grid)
        hierarchy.append((A, (0.6 / A.diagonal())[:, None], P))
        A = (P.T @ A @ P).tocsr()
        grid = tuple(k // 2 for k in grid)
    coarsest = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                    options={"SymmetricMode": True})
    return partial(_cycle, hierarchy, coarsest), len(hierarchy)


def _cycle(hierarchy, coarsest, r, depth=0):
    if depth == len(hierarchy):
        return coarsest.solve(r)
    A, dinv, P = hierarchy[depth]
    x = dinv * r
    x += dinv * (r - A @ x)
    x += P @ _cycle(hierarchy, coarsest, P.T @ (r - A @ x), depth + 1)
    for _ in range(3):
        x += dinv * (r - A @ x)
    return x


def solve_smallest(
    pair: OperatorPair,
    m: int,
    tol: float = 1e-9,
    seed: int = 0,
    max_iterations: int = 500,
    start: np.ndarray | None = None,
) -> EigenResult:
    """The m smallest eigenpairs, constant mode included.

    Every pair is solved alike: no eigenvalue estimate seeds the solve.  The
    preconditioner approximates the inverse of K + M/10, exactly when the grid
    does not halve, and 1e-8 floors the eigenvalue that scales the relative
    residuals.  The guards keep a cluster at the edge of the wanted modes from
    stalling the steps.  ``start``, a vector on the pair's dofs, is the first
    column of the start block; the others are random from ``seed``.
    """
    if m < 2:
        raise ValueError(f"need at least 2 modes, got {m}")
    K, M = pair.K, pair.M
    n = K.shape[0]

    ones = np.ones(n)
    Kones, Mones = K @ ones, M @ ones
    mass = float(ones @ Mones)
    lam0 = float(ones @ Kones) / mass

    def deflate(X):
        X -= (Mones @ X) / mass  # minus the constant times each column's M-mean
        return X

    block, active = m + 2, m - 1
    precondition, levels = _v_cycle((K + 0.1 * M).tocsr(), pair.grid)
    S = np.random.default_rng(seed).standard_normal((n, block))
    if start is not None:
        S[:, 0] = start
    X = KX = MX = np.zeros((n, 0))
    best, iterations = float("inf"), 0
    while True:
        X, KX, MX, theta, P = _ritz_update(K, M, X, KX, MX, deflate(S), block, active, best)
        res = _relative_residuals(KX[:, :active], MX[:, :active], theta[:active], 1e-8)
        if np.all(res <= tol):  # confirmed on fresh images, which replace the carried ones
            KX, MX = K @ X, M @ X
            res = _relative_residuals(KX[:, :active], MX[:, :active], theta[:active], 1e-8)
        best = min(best, float(res.max()))
        if np.all(res <= tol):
            break
        if iterations == max_iterations:
            raise EigenConvergenceError(f"no convergence in {max_iterations} iterations", best)
        iterations += 1
        S = np.hstack([precondition(KX[:, :active] - MX[:, :active] * theta[:active]), P])

    root = np.sqrt(mass)
    vectors = np.column_stack([ones / root, X[:, :active]])
    values = np.concatenate([[lam0], theta[:active]])
    # the constant mode's eigenvalue is roundoff: scale its residual by lambda1
    residuals = _relative_residuals(np.column_stack([Kones / root, KX[:, :active]]),
                                    np.column_stack([Mones / root, MX[:, :active]]), values, values[1])
    return EigenResult(values=values, vectors=vectors, residuals=residuals,
                       iterations=iterations, levels=levels)


def rayleigh_quotient(pair: OperatorPair, v: np.ndarray) -> float:
    """v'Kv / v'Mv for a vertex vector on the pair's dofs."""
    v = np.asarray(v, dtype=float)
    mvv = float(v @ (pair.M @ v))
    if mvv <= 0:
        raise ValueError("vector has zero mass norm")
    return float(v @ (pair.K @ v)) / mvv


def apply_sign_rule(result: EigenResult, pair: OperatorPair, geom: CollarGeometry) -> EigenResult:
    """Positive plateau on the plus side; the modes are already M-orthonormal.

    The first nontrivial eigenvector is flipped when its mass-weighted mean
    over the plus region is negative (lumped row-sum weights over vertices
    with rho >= eta, which has the plateau's sign).
    """
    vectors = result.vectors.copy()
    lumped = np.asarray(pair.M.sum(axis=1)).reshape(-1)
    plus = geom.rho[pair.dof_map] >= geom.eta - 1e-12
    if float(np.add.reduce(lumped[plus] * vectors[plus, 1])) < 0:
        vectors[:, 1] = -vectors[:, 1]
    return replace(result, vectors=vectors)


def clipped_distance(mesh: Mesh, geom: CollarGeometry, pair: OperatorPair) -> np.ndarray:
    """clip(rho, -eta, eta) on the pair's dofs, set to +-eta on every vertex of a bulk
    cell: the min-max test vector of a scene, and the start column of its solves."""
    u = np.clip(geom.rho, -geom.eta, geom.eta)
    u[mesh.cells[geom.region == REGION_PLUS]] = geom.eta
    u[mesh.cells[geom.region == REGION_MINUS]] = -geom.eta
    return u[pair.dof_map]


def minmax_bound(mesh: Mesh, geom: CollarGeometry, pair: OperatorPair) -> float:
    """Rayleigh quotient of the clipped distance made M-orthogonal to the constants:
    by min-max an upper bound on the pair's first nontrivial eigenvalue, on any scene."""
    u, ones = clipped_distance(mesh, geom, pair), np.ones(pair.n_dof)
    Mones = pair.M @ ones
    return rayleigh_quotient(pair, u - float(u @ Mones) / float(ones @ Mones))

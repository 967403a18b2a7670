"""Independent 1d reference spectra for product scenes.

Fields that depend only on the signed distance separate variables exactly,
so the lowest modes of the weighted box problem reduce to a Sturm-Liouville
problem -(p u')' = lambda q u on (0,1) with natural ends, where p and q
carry the conformal weights and the cross-section volume factor.  The same
P1 discretization is used as in 3d (variational treatment of the
discontinuous coefficient), but on a dense uniform grid, which makes this a
genuinely independent check of the mesh pipeline.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cython_lapack, lapack

from .metric import kappa as conformal_kappa


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule, odd sample count, in scipy.integrate.simpson's arithmetic."""
    h0, h1 = np.diff(x).reshape(-1, 2).T  # the two spacings of each panel
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    return float(np.sum(hsum / 6.0 * (y[0:-2:2] * (2.0 - 1.0 / ratio)
                                      + y[1:-1:2] * (hsum * (hsum / hprod))
                                      + y[2::2] * (2.0 - ratio))))


@dataclass
class Profile1D:
    """Stiffness/mass weights of the reduced problem on (0,1).

    ``p = f^{d/2-1} A`` and ``q = f^{d/2} A`` with A the cross-section volume
    factor; both must be positive away from jump points.
    """

    p: Callable[[np.ndarray], np.ndarray]
    q: Callable[[np.ndarray], np.ndarray]
    resolution: int


def step_profile(
    epsilon: float,
    eta: float,
    d: int,
    center: float = 0.5,
    warp: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    resolution: int = 512,
) -> Profile1D:
    """Reduced profile of the step conformal factor on the unit interval.

    kappa is the volume-preserving value computed from exact interval
    volumes (Simpson quadrature for warped cross-sections), keeping this
    path independent of any mesh.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0,1], got {epsilon}")
    if not 0 < eta < min(center, 1 - center):
        raise ValueError(f"eta={eta} does not fit inside (0,1) around {center}")

    if warp is None:
        area = lambda t: np.ones_like(np.asarray(t, dtype=float))
    else:
        def area(t):
            w = np.asarray(warp(np.asarray(t) - center), dtype=float)
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError("warp sample not positive and finite")
            return w ** (d - 1)

    inner = np.linspace(center - eta, center + eta, 2049)
    vol_collar = _simpson(area(inner), inner)
    left = np.linspace(0.0, center - eta, 2049)
    right = np.linspace(center + eta, 1.0, 2049)
    vol_out = _simpson(area(left), left) + _simpson(area(right), right)
    kap = conformal_kappa(epsilon, vol_collar, vol_out, d)

    def factor(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t - center) < eta, epsilon, kap)

    return Profile1D(
        p=lambda t: factor(t) ** (d / 2.0 - 1.0) * area(t),
        q=lambda t: factor(t) ** (d / 2.0) * area(t),
        resolution=resolution,
    )


def _dense_pencil(profile: Profile1D, n: int):
    h = 1.0 / n
    mid = (np.arange(n) + 0.5) * h
    p = np.asarray(profile.p(mid), dtype=float)
    q = np.asarray(profile.q(mid), dtype=float)
    if not np.all(np.isfinite(p) & (p > 0) & np.isfinite(q) & (q > 0)):
        raise ValueError("non-positive or non-finite profile")
    K = np.zeros((n + 1, n + 1), order="F")
    M = np.zeros((n + 1, n + 1), order="F")
    idx = np.arange(n)
    for A, diag, off in ((K, p / h, -p / h), (M, q * h / 3.0, q * h / 6.0)):  # element i joins nodes i, i+1
        A[idx, idx] += diag
        A[idx + 1, idx + 1] += diag
        A[idx, idx + 1] = A[idx + 1, idx] = off
    return K, M


def _capsule_pointer(capsule) -> int:
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
    get = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get(capsule, name(capsule))


# scipy's own dsygvx, the routine eigh runs for a subset of a definite pencil;
# a ctypes foreign call releases the GIL, so concurrent oracle solves overlap
_DSYGVX = ctypes.CFUNCTYPE(None, *(ctypes.c_void_p,) * 23)(
    _capsule_pointer(cython_lapack.__pyx_capi__["dsygvx"]))


def _lowest_modes(profile: Profile1D, n: int, m: int) -> np.ndarray:
    """The m smallest eigenvalues of the pencil: eigh's dsygvx call, argument for argument.

    The pencil is Fortran-ordered, so dsygvx overwrites it in place; it is
    freed on return.
    """
    K, M = _dense_pencil(profile, n)
    c_int, ref = ctypes.c_int, ctypes.byref
    order, one, upper, found, info = c_int(n + 1), c_int(1), c_int(m), c_int(0), c_int(0)
    lwork = c_int(int(lapack.dsygvx_lwork(n + 1, uplo="L")[0]))
    zero = ctypes.c_double(0.0)  # vl and vu, unread for an index range, and abstol
    w, z, work = np.empty(n + 1), np.empty(1), np.empty(lwork.value)  # z is unread without vectors
    iwork, ifail = np.empty(5 * (n + 1), dtype=np.intc), np.empty(n + 1, dtype=np.intc)
    _DSYGVX(ref(one), b"N", b"I", b"L", ref(order), K.ctypes.data, ref(order), M.ctypes.data,
            ref(order), ref(zero), ref(zero), ref(one), ref(upper), ref(zero), ref(found),
            w.ctypes.data, z.ctypes.data, ref(one), work.ctypes.data, ref(lwork),
            iwork.ctypes.data, ifail.ctypes.data, ref(info))
    if info.value:  # above the order: M's leading minor of order info - order is not positive definite
        raise np.linalg.LinAlgError(f"dsygvx returned info = {info.value} on a pencil of order {n + 1}")
    return w[:found.value]


@dataclass
class OracleEigenvalues:
    """Lowest modes at resolution N, with the N/2N Richardson refinement."""

    values: np.ndarray
    refined: Optional[np.ndarray]
    resolution: int


def sturm_liouville_neumann(profile: Profile1D, m: int, refine: bool = True) -> OracleEigenvalues:
    """Smallest m eigenvalues with natural ends, dense generalized solve.

    Piecewise-constant coefficients are sampled at cell midpoints, matching
    the per-cell weighting of the 3d assembly.  The Richardson value pairs
    the N and 2N grids to cancel the leading O(N^-2) error.
    """
    n = profile.resolution
    if n < 64:
        raise ValueError(f"resolution must be at least 64, got {n}")
    vals = _lowest_modes(profile, n, m)
    refined = None
    if refine:
        refined = (4.0 * _lowest_modes(profile, 2 * n, m) - vals) / 3.0
    return OracleEigenvalues(values=vals, refined=refined, resolution=n)


@dataclass
class PowerFit:
    slope: float
    intercept: float
    max_residual: float


def scaling_fit(epsilons: Sequence[float], lambdas: Sequence[float]) -> PowerFit:
    """Least-squares slope of log(lambda) against log(epsilon)."""
    eps = np.asarray(epsilons, dtype=float)
    lam = np.asarray(lambdas, dtype=float)
    if np.unique(eps).size < 3:
        raise ValueError("need at least 3 distinct sweep points")
    if not np.all(np.isfinite(eps) & (eps > 0) & np.isfinite(lam) & (lam > 0)):
        raise ValueError("scaling fit needs positive finite data")
    x = np.log(eps)
    y = np.log(lam)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    return PowerFit(
        slope=float(slope),
        intercept=float(intercept),
        max_residual=float(np.abs(residuals).max()),
    )

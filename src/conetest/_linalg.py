"""Small shared linear-algebra helpers (internal)."""

import numpy as np

from .exceptions import DataError, MetricError

# Relative symmetry tolerance for covariance/metric matrices.
SYMMETRY_RTOL = 1e-12

# Condition-number cap beyond which a block is declared singular.
CONDITION_CAP = 1e12


def as_float_vector(x, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DataError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{name} contains non-finite entries")
    return x


def as_float_matrix(x, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise DataError(f"{name} must be a 2-d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{name} contains non-finite entries")
    return x


def check_symmetric(m, name="matrix", rtol=SYMMETRY_RTOL):
    m = as_float_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise DataError(f"{name} must be square, got shape {m.shape}")
    if np.abs(m - m.T).max() > rtol * float(np.abs(m).max()):
        raise MetricError(f"{name} is not symmetric within tolerance {rtol}")
    return 0.5 * (m + m.T)


def check_positive_definite(m, name="matrix"):
    m = check_symmetric(m, name)
    if not is_positive_definite(m):
        raise MetricError(f"{name} is not positive definite")
    return m


def is_positive_definite(m, rtol=1e-12):
    """Strict positive definiteness: smallest eigenvalue above a relative floor."""
    m = np.asarray(m, dtype=float)
    m = 0.5 * (m + m.T)
    try:
        evals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError:
        return False
    if evals.size == 0:
        return True
    return bool(evals[0] > rtol * float(evals[-1]))


def condition_exceeds_cap(m, cap=CONDITION_CAP):
    """True when the 2-norm condition number of ``m`` exceeds ``cap``."""
    if m.size == 0:
        return False
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] <= 0.0:
        return True
    return bool(s[0] / s[-1] > cap)


def quad_form_inv(m, x):
    """Return ``x' m^{-1} x`` for symmetric positive definite ``m``."""
    if x.size == 0:
        return 0.0
    return float(x @ np.linalg.solve(m, x))


def read_only(a):
    """Return a C-contiguous read-only copy of ``a``."""
    out = np.ascontiguousarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out

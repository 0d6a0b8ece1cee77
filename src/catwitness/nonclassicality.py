"""Single-mode non-classicality certificates.

Two certificates over the normally-ordered characteristic function chi_N:
the Gaussian-envelope bound (|chi_N| > 1 certifies non-classicality) and
the quantum Bochner-Khinchin moment matrix M_ij = chi_N(alpha_i - alpha_j),
which must be positive semidefinite for every classical state. Region scans
sweep either certificate over a phase-space grid.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import SingleModeState, _check_scalar

HERMITIAN_TOL = 1e-10
# a scan builds per-cell arrays, so larger grids are refused up front
MAX_CELLS = 10**6


@functools.cache
def _triu(n: int):
    """(rows, cols) of np.triu_indices(n, 1) and np.arange(n), kept per
    size: building them costs more than filling a small matrix."""
    rows, cols = np.triu_indices(n, 1)
    return rows, cols, np.arange(n)


def _hermitian(upper, n: int) -> np.ndarray:
    """(..., n, n) matrices from their upper-triangle values (..., n(n-1)/2)
    in np.triu_indices(n, 1) order: the lower triangle is the exact
    conjugate and the diagonal is 1, so every moment matrix is Hermitian
    with unit diagonal as constructed."""
    upper = np.asarray(upper, dtype=complex)
    rows, cols, diag = _triu(n)
    m = np.empty(upper.shape[:-1] + (n, n), dtype=complex)
    m[..., rows, cols] = upper
    m[..., cols, rows] = upper.conj()
    m[..., diag, diag] = 1.0
    return m


def nc1_excess(state: SingleModeState, alpha: complex) -> float:
    """|chi_N(alpha)| - 1; a positive value certifies non-classicality."""
    return abs(state.chi_normal(alpha)) - 1.0


def _bochner(state: SingleModeState, pts) -> np.ndarray:
    """M_ij = chi_N(p_i - p_j) over a (..., n) stack of checked complex
    points, one chi_N call over all upper-triangle entries."""
    pts = np.asarray(pts, dtype=complex)
    n = pts.shape[-1]
    rows, cols, _ = _triu(n)
    return _hermitian(state.chi_normal(pts[..., rows] - pts[..., cols]), n)


def bochner_matrix(state: SingleModeState,
                   points: list[complex]) -> np.ndarray:
    """M_ij = chi_N(alpha_i - alpha_j) over the given test points, a
    Hermitian ndarray with unit diagonal."""
    pts = [_check_scalar(p) for p in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 test points")
    if len(set(pts)) < len(pts):
        warnings.warn("duplicate test points give a degenerate matrix",
                      stacklevel=2)
    return _bochner(state, pts)


def min_eigenvalue(m: np.ndarray):
    """Smallest eigenvalue of a Hermitian matrix (a float), or of each
    matrix of a (..., n, n) stack (an array), from complex eigvalsh on the
    Hermitian part after a Hermiticity check."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    adjoint = m.conj().swapaxes(-1, -2)
    if abs(m - adjoint).max(initial=0.0) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    low = np.linalg.eigvalsh((m + adjoint) * 0.5)[..., 0]  # exactly / 2
    return float(low) if m.ndim == 2 else low


def _det3(m):
    """det of (..., 3, 3) Hermitian matrices with unit diagonal, in closed
    form: LAPACK's is NaN on near-singular ones with subnormal entries."""
    b, c, d = m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]
    return (1 - abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2
            + 2 * (b * d * c.conj()).real)


def nc2_certificate(state: SingleModeState,
                    points: list[complex]) -> tuple[float, float]:
    """(det, min eigenvalue) of the 3-point Bochner matrix; either going
    negative certifies non-classicality."""
    pts = [_check_scalar(p) for p in points]
    if len(pts) != 3:
        raise ValueError(f"need exactly 3 points, got {len(pts)}")
    if pts[0] != 0:
        raise ValueError("points[0] must be 0")
    m = bochner_matrix(state, pts)
    return _det3(m), min_eigenvalue(m)


# ---------------------------------------------------------------------------
# Grid scans
# ---------------------------------------------------------------------------

def _axis_size(start: float, stop: float, step: float) -> int:
    """The count of points start + n step <= stop, up to rounding."""
    return math.floor((stop - start) / step * (1 + 1e-12) + 1e-9) + 1


@dataclass(frozen=True)
class GridSpec:
    """One or two axes, each (start, stop, step): start + n step <= stop."""

    axes: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("grid needs 1 or 2 axes")
        for start, stop, step in self.axes:
            finite = all(map(math.isfinite, (start, stop, step)))
            if not (finite and step > 0 and stop >= start
                    and math.isfinite((stop - start) / step)):
                raise ValueError(f"bad axis ({start}, {stop}, {step})")
        cells = math.prod(_axis_size(*axis) for axis in self.axes)
        if cells > MAX_CELLS:
            raise ValueError(f"grid has {cells} cells, above the cap of "
                             f"{MAX_CELLS}")

    def axis_values(self, i: int) -> np.ndarray:
        start, _, step = self.axes[i]
        return start + step * np.arange(_axis_size(*self.axes[i]))

    def axis_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The values of (axis1, axis2); a one-axis grid has axis2 = [0]."""
        ax2 = self.axis_values(1) if len(self.axes) == 2 else np.zeros(1)
        return self.axis_values(0), ax2

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(axis1, axis2) of every cell, row-major ascending over
        axis_pair()."""
        ax1, ax2 = self.axis_pair()
        return np.repeat(ax1, ax2.size), np.tile(ax2, ax1.size)


CERTIFICATES = ("nc1", "nc2-det", "nc2-eig")


@dataclass(frozen=True)
class RegionScan:
    """Per-cell certificate values over a grid, with the detection mask."""

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    detected: np.ndarray


def region_scan(state: SingleModeState, grid: GridSpec, certificate: str,
                threshold: float | None = None) -> RegionScan:
    """Evaluate a certificate on every grid cell, row-major ascending.

    For "nc1" the cell (a1, a2) is the displacement a1 + i a2 and detection
    is value > threshold (default 0). For "nc2-det" / "nc2-eig" the cell is
    the real point pair (a1, a2), the Bochner matrix is taken over
    {0, a1, a2}, and detection is value <= threshold (default -0.01, the
    practical-detectability cut) on a two-axis grid. Cells that repeat a
    point are reported in one warning per scan.
    """
    if certificate not in CERTIFICATES:
        raise ValueError(f"unknown certificate {certificate!r}")
    if threshold is None:
        threshold = 0.0 if certificate == "nc1" else -0.01
    elif not math.isfinite(threshold):  # NaN would detect no cell
        raise ValueError(f"threshold must be finite, got {threshold}")
    if certificate != "nc1" and len(grid.axes) < 2:
        raise ValueError(f"{certificate} needs a two-axis grid; a one-axis "
                         "grid's a2 = 0 repeats the point 0 in every cell")
    axis1, axis2 = grid.cells()
    if certificate == "nc1":
        values = nc1_excess(state, axis1 + 1j * axis2)
        detected = values > threshold
    else:
        repeated = np.count_nonzero((axis1 == axis2) | (axis1 == 0)
                                    | (axis2 == 0))
        if repeated:
            warnings.warn(f"{repeated} of {axis1.size} cells repeat a test "
                          "point and give a degenerate matrix", stacklevel=2)
        m = _bochner(state, np.stack([np.zeros_like(axis1), axis1, axis2],
                                     axis=-1))
        values = (_det3(m) if certificate == "nc2-det"
                  else min_eigenvalue(m))
        detected = values <= threshold
    return RegionScan(axis1, axis2, values, detected)

"""Single-mode non-classicality certificates.

Two certificates over the normally-ordered characteristic function chi_N:
the Gaussian-envelope bound (|chi_N| > 1 certifies non-classicality) and
the quantum Bochner-Khinchin moment matrix M_ij = chi_N(alpha_i - alpha_j),
which must be positive semidefinite for every classical state. Region scans
sweep either certificate over a phase-space grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import SingleModeState, _check_finite

HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class MomentMatrix:
    """Bochner-Khinchin matrix with its test points (points[0] is 0 by
    convention)."""

    points: tuple[complex, ...]
    entries: np.ndarray


def nc1_excess(state: SingleModeState, alpha: complex) -> float:
    """|chi_N(alpha)| - 1; a positive value certifies non-classicality."""
    return abs(state.chi_normal(alpha)) - 1.0


def _bochner(state: SingleModeState, pts) -> np.ndarray:
    """M_ij = chi_N(alpha_i - alpha_j) over checked complex points, the
    lower triangle filled by conjugation."""
    n = len(pts)
    m = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            val = state.chi_normal(pts[i] - pts[j])
            m[i, j] = val
            m[j, i] = val.conjugate()
    return m


def bochner_matrix(state: SingleModeState,
                   points: list[complex]) -> MomentMatrix:
    """M_ij = chi_N(alpha_i - alpha_j) over the given test points.

    The lower triangle is filled by conjugation, so the output is Hermitian
    with unit diagonal exactly as constructed.
    """
    pts = tuple(_check_finite(p) for p in points)
    if len(pts) < 2:
        raise ValueError("need at least 2 test points")
    if len(set(pts)) < len(pts):
        warnings.warn("duplicate test points give a degenerate matrix",
                      stacklevel=2)
    return MomentMatrix(pts, _bochner(state, pts))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, from complex eigvalsh on
    its Hermitian part after a Hermiticity check."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def _det(m: np.ndarray) -> float:
    return np.linalg.det(m).real


def nc2_certificate(state: SingleModeState,
                    points: list[complex]) -> tuple[float, float]:
    """(det, min eigenvalue) of the 3-point Bochner matrix; either going
    negative certifies non-classicality."""
    pts = [_check_finite(p) for p in points]
    if len(pts) != 3:
        raise ValueError(f"need exactly 3 points, got {len(pts)}")
    if pts[0] != 0:
        raise ValueError("points[0] must be 0")
    m = bochner_matrix(state, pts).entries
    return _det(m), min_eigenvalue(m)


# ---------------------------------------------------------------------------
# Grid scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """One or two axes, each (start, stop, step) with inclusive endpoints."""

    axes: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("grid needs 1 or 2 axes")
        for start, stop, step in self.axes:
            finite = all(map(math.isfinite, (start, stop, step)))
            if not (finite and step > 0 and stop >= start
                    and math.isfinite((stop - start) / step)):
                raise ValueError(f"bad axis ({start}, {stop}, {step})")

    def axis_values(self, i: int) -> np.ndarray:
        start, stop, step = self.axes[i]
        n = int(math.floor((stop - start) / step + 0.5)) + 1
        return start + step * np.arange(n)

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(axis1, axis2) of every cell, row-major ascending; a one-axis
        grid has axis2 = 0."""
        ax1 = self.axis_values(0)
        ax2 = self.axis_values(1) if len(self.axes) == 2 else np.zeros(1)
        return np.repeat(ax1, ax2.size), np.tile(ax2, ax1.size)


CERTIFICATES = ("nc1", "nc2-det", "nc2-eig")


@dataclass(frozen=True)
class RegionScan:
    """Per-cell certificate values over a grid, with the detection mask."""

    grid: GridSpec
    certificate: str
    threshold: float
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    detected: np.ndarray

    def to_csv(self) -> str:
        lines = ["axis1,axis2,value,detected"]
        for a1, a2, v, d in zip(self.axis1, self.axis2, self.values,
                                self.detected):
            lines.append(f"{a1:.17g},{a2:.17g},{v:.17g},{int(d)}")
        return "\n".join(lines) + "\n"


def region_scan(state: SingleModeState, grid: GridSpec, certificate: str,
                threshold: float | None = None) -> RegionScan:
    """Evaluate a certificate on every grid cell, row-major ascending.

    For "nc1" the cell (a1, a2) is the displacement a1 + i a2 and detection
    is value > threshold (default 0). For "nc2-det" / "nc2-eig" the cell is
    the real point pair (a1, a2), the Bochner matrix is taken over
    {0, a1, a2}, and detection is value <= threshold (default -0.01, the
    practical-detectability cut). Cells that repeat a point are reported in
    one warning per scan.
    """
    if certificate not in CERTIFICATES:
        raise ValueError(f"unknown certificate {certificate!r}")
    if threshold is None:
        threshold = 0.0 if certificate == "nc1" else -0.01
    axis1, axis2 = grid.cells()
    if certificate == "nc1":
        values = np.array([nc1_excess(state, complex(a1, a2))
                           for a1, a2 in zip(axis1, axis2)])
        detected = values > threshold
    else:
        repeated = np.count_nonzero((axis1 == axis2) | (axis1 == 0)
                                    | (axis2 == 0))
        if repeated:
            warnings.warn(f"{repeated} of {axis1.size} cells repeat a test "
                          "point and give a degenerate matrix", stacklevel=2)
        statistic = _det if certificate == "nc2-det" else min_eigenvalue
        values = np.array([statistic(_bochner(state, (0j, complex(a1),
                                                      complex(a2))))
                           for a1, a2 in zip(axis1, axis2)])
        detected = values <= threshold
    return RegionScan(grid, certificate, threshold, axis1, axis2, values,
                      detected)

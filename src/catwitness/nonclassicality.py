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
    n = len(pts)
    m = np.eye(n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            val = state.chi_normal(pts[i] - pts[j])
            m[i, j] = val
            m[j, i] = val.conjugate()
    return MomentMatrix(pts, m)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, from complex eigvalsh on
    its Hermitian part after a Hermiticity check."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def nc2_certificate(state: SingleModeState,
                    points: list[complex]) -> tuple[float, float]:
    """(det, min eigenvalue) of the 3-point Bochner matrix; either going
    negative certifies non-classicality."""
    pts = [_check_finite(p) for p in points]
    if len(pts) != 3:
        raise ValueError(f"need exactly 3 points, got {len(pts)}")
    if pts[0] != 0:
        raise ValueError("points[0] must be 0")
    m = bochner_matrix(state, pts)
    det = np.linalg.det(m.entries).real
    return det, min_eigenvalue(m.entries)


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
            if step <= 0 or stop < start:
                raise ValueError(f"bad axis ({start}, {stop}, {step})")

    def axis_values(self, i: int) -> np.ndarray:
        start, stop, step = self.axes[i]
        n = int(math.floor((stop - start) / step + 0.5)) + 1
        return start + step * np.arange(n)


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


def _cell_value(state, certificate, a1, a2, complex_grid):
    if certificate == "nc1":
        alpha = complex(a1, a2)
        return nc1_excess(state, alpha)
    p1 = complex(a1) if not complex_grid else complex(a1, 0.0)
    p2 = complex(a2) if not complex_grid else complex(0.0, a2)
    det, eig = nc2_certificate(state, [0.0, p1, p2])
    return det if certificate == "nc2-det" else eig


def region_scan(state: SingleModeState, grid: GridSpec, certificate: str,
                threshold: float | None = None,
                complex_grid: bool = False) -> RegionScan:
    """Evaluate a certificate on every grid cell, row-major ascending.

    For "nc1" the cell (a1, a2) is the displacement a1 + i a2 and detection
    is value > threshold (default 0). For "nc2-det" / "nc2-eig" the cell is
    the real point pair (a1, a2) and detection is value <= threshold
    (default -0.01, the practical-detectability cut); complex_grid=True
    instead takes alpha_1 = a1 and alpha_2 = i a2.
    """
    if certificate not in CERTIFICATES:
        raise ValueError(f"unknown certificate {certificate!r}")
    if threshold is None:
        threshold = 0.0 if certificate == "nc1" else -0.01
    ax1 = grid.axis_values(0)
    ax2 = grid.axis_values(1) if len(grid.axes) == 2 else np.array([0.0])
    if ax1.size == 0 or ax2.size == 0:
        raise ValueError("empty grid")
    col1, col2, values = [], [], []
    for a1 in ax1:
        for a2 in ax2:
            col1.append(a1)
            col2.append(a2)
            values.append(_cell_value(state, certificate, a1, a2, complex_grid))
    values = np.array(values)
    if certificate == "nc1":
        detected = values > threshold
    else:
        detected = values <= threshold
    return RegionScan(grid, certificate, threshold, np.array(col1),
                      np.array(col2), values, detected)

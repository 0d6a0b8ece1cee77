"""Brute-force verification path in a truncated Fock space.

Everything here is built from associated Laguerre recurrences and explicit
matrix algebra, independently of the closed forms in
:mod:`catwitness.states` (which it only uses for type definitions), so the
two routes can cross-check each other.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import (
    CoherentSuperposition,
    Decohered,
    FockState,
    Mixture,
    PairSuperposition,
    ProductState,
    SingleModeState,
    ThermalState,
    TwoModeMixture,
    TwoModeState,
)

TRACE_TOL = 1e-6
CONVERGENCE_TOL = 1e-9
MAX_DIM = 4096  # largest per-mode cutoff the doubling loop builds


class TruncationError(ValueError):
    """Raised when the Fock cutoff loses too much trace weight, or when no
    cutoff up to MAX_DIM gives a finite, converged value."""

    def __init__(self, dim: int, leakage: float, reason: str | None = None):
        self.dim = dim
        self.leakage = leakage
        super().__init__(reason or f"dim={dim} leaks {leakage:.3e} of the trace")


@dataclass(frozen=True)
class FockMatrix:
    """A dim x dim complex matrix in the (tensor-product) Fock basis."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"expected shape ({self.dim}, {self.dim}), "
                             f"got {entries.shape}")
        object.__setattr__(self, "entries", entries)


@functools.lru_cache(maxsize=64)
def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n < dim from math.lgamma, cached per cutoff and read-only,
    so every caller can share it."""
    table = np.array([math.lgamma(n + 1) for n in range(dim)])
    table.flags.writeable = False
    return table


def laguerre(n: int, k: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^{(k)}(x) by the three-term recurrence."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be non-negative")
    if x < 0:
        raise ValueError("x must be >= 0")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + k - x
    for m in range(1, n):
        prev, cur = cur, ((2 * m + k + 1 - x) * cur - (m + k) * prev) / (m + 1)
    return cur


def displacement_matrix(alpha: complex, dim: int) -> FockMatrix:
    """Fock-basis matrix of D(alpha), <m|D|n> from associated Laguerre forms.

    The recurrence in n runs for all k at once on the normalised values
    h[n, k] = sqrt(n!/(n+k)!) |alpha|^k e^{-|alpha|^2/2} L_n^{(k)}(|alpha|^2),
    |h| <= 1 as elements of a unitary, so it stays finite at any cutoff.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    if x == 0.0:
        return FockMatrix(dim, np.eye(dim, dtype=complex))
    n = np.arange(dim)
    h = np.zeros((dim, dim))
    h[0] = np.exp(n * math.log(abs(alpha)) - x / 2.0
                  - 0.5 * _log_factorials(dim))
    root = np.zeros(dim)  # sqrt(m (m + k)) at m = 0: drops h[-1]
    for m in range(dim - 1):
        s = slice(0, dim - m - 1)  # row m + 1 is needed for k < dim - m - 1
        root_next = np.sqrt((m + 1) * (m + 1 + n[s]))
        h[m + 1, s] = ((2 * m + 1 - x + n[s]) * h[m, s]
                       - root[s] * h[m - 1, s]) / root_next
        root = root_next
    rows, cols = np.tril_indices(dim)
    k = rows - cols
    mag = h[cols, k]
    phase = alpha / abs(alpha)
    out = np.empty((dim, dim), dtype=complex)
    out[rows, cols] = mag * (phase ** n)[k]
    # <n|D(alpha)|m> = conj(<m|D(-alpha)|n>): the same magnitude with the
    # phase of -alpha, conjugated
    out[cols, rows] = mag * ((-phase.conjugate()) ** n)[k]
    return FockMatrix(dim, out)


def _coherent_vector(xi: complex, dim: int) -> np.ndarray:
    """Truncated Fock expansion of |xi>: e^{-|xi|^2/2} xi^n / sqrt(n!)."""
    xi = complex(xi)
    n = np.arange(dim)
    if xi == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    log_mag = (-abs(xi) ** 2 / 2.0 + n * math.log(abs(xi))
               - 0.5 * _log_factorials(dim))
    return np.exp(log_mag) * (xi / abs(xi)) ** n


def apply_damping(rho: FockMatrix, gamma_t: float) -> FockMatrix:
    """Amplitude-damping Kraus sum on a truncated density matrix.

    The Kraus operator A_k has one shifted diagonal, <n-k|A_k|n> = a[k, n]
    = sqrt(C(n, k) eta^(n-k) (1-eta)^k), so A_k rho A_k^T is rho's
    lower-right block scaled by outer(a[k, k:], a[k, k:]), moved to the top
    left.
    """
    eta = math.exp(-gamma_t)
    if eta == 1.0:
        return rho
    dim = rho.dim
    n = np.arange(dim)
    kc = n[:, None]
    lg = _log_factorials(dim)
    log_sq = (lg - lg[kc] - lg[np.abs(n - kc)]
              + (n - kc) * math.log(eta) + kc * math.log1p(-eta))
    a = np.exp(0.5 * np.where(n >= kc, log_sq, -np.inf))
    out = np.zeros_like(rho.entries)
    for k in range(dim):
        out[:dim - k, :dim - k] += np.outer(a[k, k:], a[k, k:]) * rho.entries[k:, k:]
    return FockMatrix(dim, out)


def state_to_matrix(state, dim: int) -> FockMatrix:
    """Density matrix of a state descriptor in the truncated Fock basis.

    Raises :class:`TruncationError` when the cutoff loses more than 1e-6 of
    the trace. Thermal decoherence (Decohered with n_th > 0) has no
    independent matrix realization here; only the pure-loss channel is
    applied as a Kraus sum.
    """
    rho = _state_to_matrix(state, dim)
    leakage = abs(1.0 - np.trace(rho.entries).real)
    if leakage > TRACE_TOL:
        raise TruncationError(dim, leakage)
    return rho


def _state_to_matrix(state, dim: int) -> FockMatrix:
    if isinstance(state, CoherentSuperposition):
        vec = np.zeros(dim, dtype=complex)
        for c, xi in state.terms:
            vec += c * _coherent_vector(xi, dim)
        return FockMatrix(dim, np.outer(vec, vec.conjugate()))
    if isinstance(state, FockState):
        if state.n >= dim:
            raise TruncationError(dim, 1.0)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[state.n, state.n] = 1.0
        return FockMatrix(dim, rho)
    if isinstance(state, ThermalState):
        if state.n_th == 0.0:
            return _state_to_matrix(FockState(0), dim)
        n = np.arange(dim)
        p = state.n_th ** n / (1.0 + state.n_th) ** (n + 1)
        return FockMatrix(dim, np.diag(p).astype(complex))
    if isinstance(state, (Mixture, TwoModeMixture)):
        total = None
        for w, s in state.components:
            part = _state_to_matrix(s, dim).entries
            total = w * part if total is None else total + w * part
        return FockMatrix(total.shape[0], total)
    if isinstance(state, Decohered):
        if state.n_th > 0:
            raise ValueError("no independent Fock-space path for thermal "
                             "decoherence (n_th > 0); use the closed form")
        return apply_damping(_state_to_matrix(state.inner, dim), state.gamma_t)
    if isinstance(state, PairSuperposition):
        vec = np.zeros(dim * dim, dtype=complex)
        for c, a, b in state.terms:
            vec += c * np.kron(_coherent_vector(a, dim), _coherent_vector(b, dim))
        return FockMatrix(dim * dim, np.outer(vec, vec.conjugate()))
    if isinstance(state, ProductState):
        left = _state_to_matrix(state.left, dim).entries
        right = _state_to_matrix(state.right, dim).entries
        return FockMatrix(dim * dim, np.kron(left, right))
    raise TypeError(f"cannot realize {type(state).__name__} as a matrix")


def expval(operator: FockMatrix, rho: FockMatrix) -> complex:
    """tr{A rho}."""
    if operator.dim != rho.dim:
        raise ValueError(f"dim mismatch: {operator.dim} vs {rho.dim}")
    return complex(np.einsum("ij,ji->", operator.entries, rho.entries))


# ---------------------------------------------------------------------------
# Adaptive-truncation characteristic functions
# ---------------------------------------------------------------------------

def _max_amplitude(state) -> float:
    if isinstance(state, CoherentSuperposition):
        return max(abs(xi) for _, xi in state.terms)
    if isinstance(state, FockState):
        return math.sqrt(state.n)
    if isinstance(state, ThermalState):
        return math.sqrt(state.n_th)
    if isinstance(state, (Mixture, TwoModeMixture)):
        return max(_max_amplitude(s) for _, s in state.components)
    if isinstance(state, Decohered):
        return _max_amplitude(state.inner)
    if isinstance(state, PairSuperposition):
        return max(max(abs(a), abs(b)) for _, a, b in state.terms)
    if isinstance(state, ProductState):
        return max(_max_amplitude(state.left), _max_amplitude(state.right))
    raise TypeError(f"unknown state {type(state).__name__}")


def initial_dim(state, *amplitudes: complex) -> int:
    amp = max([_max_amplitude(state)] + [abs(complex(a)) for a in amplitudes])
    return math.ceil(4.0 * amp ** 2 + 20.0)


def _converge(evaluate, dim: int, tol: float) -> complex:
    """evaluate(dim), doubling the per-mode cutoff until two successive
    values agree within tol; no cutoff above MAX_DIM is built."""
    if dim > MAX_DIM:
        raise TruncationError(dim, math.nan,
                              f"needs dim={dim}, above MAX_DIM={MAX_DIM}")
    prev = None
    while dim <= MAX_DIM:
        tried, dim = dim, 2 * dim
        try:
            val = evaluate(tried)
        except TruncationError as exc:
            status = str(exc)
            continue
        if not cmath.isfinite(val):
            raise TruncationError(tried, math.nan,
                                  f"dim={tried} gives the non-finite value {val}")
        if prev is not None and abs(val - prev) < tol:
            return val
        status = ("a single value" if prev is None
                  else f"last delta {abs(val - prev):.3e} >= tol={tol:.1e}")
        prev = val
    raise TruncationError(tried, math.nan,
                          f"not converged up to MAX_DIM={MAX_DIM}: last dim "
                          f"tried {tried}, {status}")


def oracle_chi(state: SingleModeState, alpha: complex,
               tol: float = CONVERGENCE_TOL) -> complex:
    """chi(alpha) by direct tr{D(alpha) rho}, doubling dim until converged;
    elementwise over an ndarray."""
    if isinstance(alpha, np.ndarray):
        return np.vectorize(lambda a: oracle_chi(state, a, tol),
                            otypes=[complex])(alpha)

    def at_dim(dim):
        rho = state_to_matrix(state, dim)  # may leak: no D(alpha) built then
        return expval(displacement_matrix(alpha, dim), rho)

    return _converge(at_dim, initial_dim(state, alpha), tol)


def oracle_chi_normal(state: SingleModeState, alpha: complex,
                      tol: float = CONVERGENCE_TOL) -> complex:
    return math.exp(abs(complex(alpha)) ** 2 / 2.0) * oracle_chi(state, alpha, tol)


def _chi2_at_dim(state: TwoModeState, alpha: complex, beta: complex,
                 dim: int) -> complex:
    """tr{D(alpha) x D(beta) rho} at fixed per-mode cutoff.

    Evaluated per pure/product component so the dim^2 x dim^2 Kronecker
    matrix never has to be formed.
    """
    d1 = displacement_matrix(alpha, dim).entries
    d2 = displacement_matrix(beta, dim).entries
    return _chi2_structured(state, d1, d2, dim)


def _chi2_structured(state, d1, d2, dim) -> complex:
    if isinstance(state, PairSuperposition):
        # sum_{k,l} c_k c_l* <u_l|d1|u_k> <z_l|d2|z_k> = c^dag (G1 o G2) c
        c = np.array([c for c, _, _ in state.terms], dtype=complex)
        u = np.array([_coherent_vector(a, dim) for _, a, _ in state.terms])
        z = np.array([_coherent_vector(b, dim) for _, _, b in state.terms])
        gram = (u.conj() @ d1 @ u.T) * (z.conj() @ d2 @ z.T)
        return complex(c.conj() @ gram @ c)
    if isinstance(state, ProductState):
        left = _state_to_matrix(state.left, dim).entries
        right = _state_to_matrix(state.right, dim).entries
        return (np.einsum("ij,ji->", d1, left)
                * np.einsum("ij,ji->", d2, right))
    if isinstance(state, TwoModeMixture):
        return sum(w * _chi2_structured(s, d1, d2, dim)
                   for w, s in state.components)
    raise TypeError(f"cannot evaluate {type(state).__name__}")


def oracle_chi2(state: TwoModeState, alpha: complex, beta: complex,
                tol: float = CONVERGENCE_TOL) -> complex:
    """Two-mode chi by truncated matrix elements, doubling dim until
    converged; elementwise over ndarrays."""
    if isinstance(alpha, np.ndarray) or isinstance(beta, np.ndarray):
        return np.vectorize(lambda a, b: oracle_chi2(state, a, b, tol),
                            otypes=[complex])(alpha, beta)
    return _converge(lambda dim: _chi2_at_dim(state, alpha, beta, dim),
                     initial_dim(state, alpha, beta), tol)

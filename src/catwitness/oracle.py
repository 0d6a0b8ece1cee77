"""Brute-force verification path in a truncated Fock space.

Everything here is built from associated Laguerre recurrences and explicit
matrix algebra, independently of the closed forms in
:mod:`catwitness.states` (which it only uses for type definitions), so the
two routes can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-6
CONVERGENCE_TOL = 1e-9


class TruncationError(ValueError):
    """Raised when the Fock cutoff loses too much trace weight."""

    def __init__(self, dim: int, leakage: float):
        self.dim = dim
        self.leakage = leakage
        super().__init__(f"dim={dim} leaks {leakage:.3e} of the trace")


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


def _laguerre_table(dim: int, x: float) -> np.ndarray:
    """L_n^{(k)}(x) for all 0 <= n, k < dim; recurrence run per column k."""
    table = np.empty((dim, dim))
    for k in range(dim):
        table[0, k] = 1.0
        if dim > 1:
            table[1, k] = 1.0 + k - x
        for m in range(1, dim - 1):
            table[m + 1, k] = ((2 * m + k + 1 - x) * table[m, k]
                               - (m + k) * table[m - 1, k]) / (m + 1)
    return table


def displacement_matrix(alpha: complex, dim: int) -> FockMatrix:
    """Fock-basis matrix of D(alpha), <m|D|n> from associated Laguerre forms.

    Factorial ratios are assembled in log space so large cutoffs don't
    overflow.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    alpha = complex(alpha)
    x = abs(alpha) ** 2
    if x == 0.0:
        return FockMatrix(dim, np.eye(dim, dtype=complex))
    lag = _laguerre_table(dim, x)
    lg = gammaln(np.arange(1, dim + 1))  # log(n!)
    log_mod = math.log(abs(alpha))
    phase = alpha / abs(alpha)
    out = np.empty((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(m + 1):
            k = m - n
            mag = math.exp(0.5 * (lg[n] - lg[m]) + k * log_mod - x / 2.0)
            val = mag * phase ** k * lag[n, k]
            out[m, n] = val
            if m != n:
                # <n|D(alpha)|m> = conj(<m|D(-alpha)|n>): the same magnitude
                # with the phase of -alpha, conjugated
                out[n, m] = mag * (-phase.conjugate()) ** k * lag[n, k]
    return FockMatrix(dim, out)


def _coherent_vector(xi: complex, dim: int) -> np.ndarray:
    """Truncated Fock expansion of |xi>: e^{-|xi|^2/2} xi^n / sqrt(n!)."""
    xi = complex(xi)
    n = np.arange(dim)
    if xi == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    log_mag = -abs(xi) ** 2 / 2.0 + n * math.log(abs(xi)) - 0.5 * gammaln(n + 1)
    return np.exp(log_mag) * (xi / abs(xi)) ** n


def _damping_kraus(gamma_t: float, dim: int) -> list[np.ndarray]:
    """Kraus operators of the zero-temperature amplitude-damping channel."""
    eta = math.exp(-gamma_t)
    ops = []
    lg = gammaln(np.arange(1, dim + 1))
    for k in range(dim):
        a = np.zeros((dim, dim))
        for n in range(k, dim):
            log_binom = lg[n] - lg[k] - lg[n - k]
            a[n - k, n] = math.exp(0.5 * (log_binom
                                          + (n - k) * math.log(eta)
                                          + k * math.log1p(-eta))) \
                if eta < 1.0 else (1.0 if k == 0 else 0.0)
        ops.append(a)
    return ops


def apply_damping(rho: FockMatrix, gamma_t: float) -> FockMatrix:
    """Amplitude-damping Kraus sum on a truncated density matrix."""
    if gamma_t == 0.0:
        return rho
    out = np.zeros_like(rho.entries)
    for a in _damping_kraus(gamma_t, rho.dim):
        out += a @ rho.entries @ a.T
    return FockMatrix(rho.dim, out)


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


def oracle_chi(state: SingleModeState, alpha: complex,
               tol: float = CONVERGENCE_TOL) -> complex:
    """chi(alpha) by direct tr{D(alpha) rho}, doubling dim until converged."""
    dim = initial_dim(state, alpha)
    prev = None
    while dim <= 4096:
        try:
            rho = state_to_matrix(state, dim)
        except TruncationError:
            dim *= 2
            continue
        val = expval(displacement_matrix(alpha, dim), rho)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        dim *= 2
    raise TruncationError(dim, float("nan"))


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
        total = 0.0 + 0.0j
        vecs = [(c, _coherent_vector(a, dim), _coherent_vector(b, dim))
                for c, a, b in state.terms]
        for c_k, u_k, z_k in vecs:
            for c_l, u_l, z_l in vecs:
                total += (c_k * c_l.conjugate()
                          * (u_l.conjugate() @ d1 @ u_k)
                          * (z_l.conjugate() @ d2 @ z_k))
        return total
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
    """Two-mode chi by truncated matrix elements, doubling dim until converged."""
    dim = initial_dim(state, alpha, beta)
    prev = None
    while dim <= 4096:
        val = _chi2_at_dim(state, alpha, beta, dim)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        dim *= 2
    raise TruncationError(dim, float("nan"))

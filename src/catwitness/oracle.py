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


@functools.lru_cache(maxsize=64)
def _log_factorials(dim: int) -> np.ndarray:
    """log n! for n < dim from math.lgamma, cached per cutoff and read-only,
    so every caller can share it."""
    table = np.array([math.lgamma(n + 1) for n in range(dim)])
    table.flags.writeable = False
    return table


def displacement_matrix(alpha: complex | np.ndarray, dim: int) -> np.ndarray:
    """Fock-basis matrix of D(alpha), <m|D|n> from associated Laguerre forms.

    The recurrence in n runs for all k at once on the normalised values
    h[n, k] = sqrt(n!/(n+k)!) |alpha|^k e^{-|alpha|^2/2} L_n^{(k)}(|alpha|^2),
    |h| <= 1 as elements of a unitary, so it stays finite at any cutoff.
    Amplitudes of shape (...) give a (..., dim, dim) stack from one
    recurrence over the whole stack; a scalar gives one (dim, dim) matrix.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _displacement_stack(np.asarray(alpha, dtype=complex), dim)


def _polar(z: np.ndarray):
    """|z|, log|z| and z/|z| of a 1-d complex array as (K, 1) columns, by
    Python's scalar abs, math.log and complex division, so that each entry
    is rounded as a one-amplitude scalar computation is (np.abs, np.log and
    ndarray complex division can differ in the last bit). A zero entry
    stands in as |z| = 1 with phase 0; callers overwrite its result."""
    z = z.tolist()
    amp = [abs(a) or 1.0 for a in z]
    return (np.array(amp)[:, None], np.array([math.log(r) for r in amp])[:, None],
            np.array([a / r for a, r in zip(z, amp)])[:, None])


def _displacement_stack(alpha: np.ndarray, dim: int) -> np.ndarray:
    shape, alpha = alpha.shape, alpha.reshape(-1)
    amp, log_amp, phase = _polar(alpha)
    n = np.arange(dim)
    # h[n, b, k]: each step of the recurrence reads and writes whole
    # contiguous (B, dim) rows; entries with n + k >= dim are never read
    h = np.zeros((dim, alpha.size, dim))
    x = amp ** 2
    h[0] = np.exp(n * log_amp - x / 2.0 - 0.5 * _log_factorials(dim))
    _laguerre_rows(h, x)
    rows, cols = np.tril_indices(dim)
    k = rows - cols
    mag = h.transpose(1, 0, 2)[:, cols, k]
    out = np.empty((alpha.size, dim, dim), dtype=complex)
    out[:, rows, cols] = mag * (phase ** n)[:, k]
    # <n|D(alpha)|m> = conj(<m|D(-alpha)|n>): the same magnitude with the
    # phase of -alpha, conjugated
    out[:, cols, rows] = mag * ((-phase.conjugate()) ** n)[:, k]
    out[alpha == 0] = np.eye(dim)
    return out.reshape(shape + (dim, dim))


def _laguerre_rows(h: np.ndarray, x: np.ndarray) -> None:
    """Rows 1.. of h[n, b, k] from row 0, in place:
    h[m+1] = ((2m+1-x+k) h[m] - root[m] h[m-1]) / root[m+1] with
    root[m, k] = sqrt(m (m+k)), from two tables built once, so that a step
    is four ufunc calls on preallocated rows."""
    dim = h.shape[0]
    n = np.arange(dim)
    coef = ((2 * n[:-1] + 1)[:, None, None] - x) + n  # (dim-1, B, dim)
    root = list(np.sqrt(n[:, None] * (n[:, None] + n)))  # root[0] = 0 drops h[-1]
    hn, t = list(h), np.empty_like(h[0])
    for m, c in enumerate(coef):
        nxt = hn[m + 1]
        np.multiply(c, hn[m], out=t)
        np.multiply(root[m], hn[m - 1], out=nxt)
        np.subtract(t, nxt, out=nxt)
        np.divide(nxt, root[m + 1], out=nxt)


def _coherent_vectors(xi, dim: int) -> np.ndarray:
    """Truncated Fock expansions e^{-|xi|^2/2} xi^n / sqrt(n!) of a sequence
    of amplitudes, one row each: (K, dim) from one exp."""
    xi = np.array(xi, dtype=complex)
    amp, log_amp, phase = _polar(xi)
    n = np.arange(dim)
    log_mag = -amp ** 2 / 2.0 + n * log_amp - 0.5 * _log_factorials(dim)
    vec = np.exp(log_mag) * phase ** n
    vec[xi == 0] = n == 0
    return vec


def apply_damping(rho: np.ndarray, gamma_t: float) -> np.ndarray:
    """Amplitude-damping Kraus sum on a truncated density matrix.

    The Kraus operator A_k has one shifted diagonal, <n-k|A_k|n> = a[k, n]
    = sqrt(C(n, k) eta^(n-k) (1-eta)^k), so A_k rho A_k^T is rho's
    lower-right block scaled by outer(a[k, k:], a[k, k:]), moved to the top
    left.
    """
    eta = math.exp(-gamma_t)
    if eta == 1.0:
        return rho
    dim = rho.shape[0]
    n = np.arange(dim)
    kc = n[:, None]
    lg = _log_factorials(dim)
    log_sq = (lg - lg[kc] - lg[np.abs(n - kc)]
              + (n - kc) * math.log(eta) + kc * math.log1p(-eta))
    a = np.exp(0.5 * np.where(n >= kc, log_sq, -np.inf))
    out = np.zeros_like(rho)
    for k in range(dim):
        out[:dim - k, :dim - k] += np.outer(a[k, k:], a[k, k:]) * rho[k:, k:]
    return out


def state_to_matrix(state: SingleModeState, dim: int) -> np.ndarray:
    """Density matrix of a single-mode state in the truncated Fock basis.

    Raises :class:`TruncationError` when the cutoff loses more than 1e-6 of
    the trace. Thermal decoherence (Decohered with n_th > 0) has no
    independent matrix realization here; only the pure-loss channel is
    applied as a Kraus sum. Two-mode states have no dense matrix:
    :func:`oracle_chi2` evaluates them per mode.
    """
    rho = _state_to_matrix(state, dim)
    leakage = abs(1.0 - np.trace(rho).real)
    if leakage > TRACE_TOL:
        raise TruncationError(dim, leakage)
    return rho


def _state_to_matrix(state, dim: int) -> np.ndarray:
    if isinstance(state, CoherentSuperposition):
        c, xi = zip(*state.terms)
        vec = (np.array(c)[:, None] * _coherent_vectors(xi, dim)).sum(axis=0)
        return np.outer(vec, vec.conjugate())
    if isinstance(state, FockState):
        if state.n >= dim:
            raise TruncationError(dim, 1.0)
        return np.diag(np.arange(dim) == state.n).astype(complex)
    if isinstance(state, ThermalState):
        if state.n_th == 0.0:
            return _state_to_matrix(FockState(0), dim)
        n = np.arange(dim)
        p = state.n_th ** n / (1.0 + state.n_th) ** (n + 1)
        return np.diag(p).astype(complex)
    if isinstance(state, Mixture):
        return functools.reduce(np.add, (w * _state_to_matrix(s, dim)
                                         for w, s in state.components))
    if isinstance(state, Decohered):
        if state.n_th > 0:
            raise ValueError("no independent Fock-space path for thermal "
                             "decoherence (n_th > 0); use the closed form")
        return apply_damping(_state_to_matrix(state.inner, dim), state.gamma_t)
    raise TypeError(f"cannot realize {type(state).__name__} as a single-mode "
                    "matrix; two-mode states go through oracle_chi2")


def expval(operator: np.ndarray, rho: np.ndarray) -> complex:
    """tr{A rho} of two square matrices of one shape."""
    if operator.shape != rho.shape:
        raise ValueError(f"shape mismatch: {operator.shape} vs {rho.shape}")
    return complex(np.einsum("ij,ji->", operator, rho))


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


def _leading_blocks(amplitudes: np.ndarray):
    """dim -> the (..., dim, dim) stack D(amplitudes) for one convergence
    run. <m|D|n> does not depend on the cutoff, so D at dim is the leading
    block of any larger build. The first cutoff that gets this far is
    always followed by its doubling (one value never converges), so the
    first build is made at twice its cutoff when that stays within
    MAX_DIM; later cutoffs are built at their own size."""
    built = None

    def at_dim(dim):
        nonlocal built
        if built is None or built.shape[-1] < dim:
            size = 2 * dim if built is None and 2 * dim <= MAX_DIM else dim
            built = displacement_matrix(amplitudes, size)
        return built[..., :dim, :dim]

    return at_dim


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

    blocks = _leading_blocks(np.array(alpha, dtype=complex))

    def at_dim(dim):
        rho = state_to_matrix(state, dim)  # may leak: no D(alpha) built then
        return expval(blocks(dim), rho)

    return _converge(at_dim, initial_dim(state, alpha), tol)


def _chi2_structured(state, d1, d2, dim) -> complex:
    """tr{D(alpha) x D(beta) rho} at fixed per-mode cutoff from d1 = D(alpha)
    and d2 = D(beta), per pure/product component, so the dim^2 x dim^2
    Kronecker matrix is never formed."""
    if isinstance(state, PairSuperposition):
        # sum_{k,l} c_k c_l* <u_l|d1|u_k> <z_l|d2|z_k> = c^dag (G1 o G2) c
        c, a, b = zip(*state.terms)
        c = np.array(c, dtype=complex)
        u, z = _coherent_vectors(a, dim), _coherent_vectors(b, dim)
        gram = (u.conj() @ d1 @ u.T) * (z.conj() @ d2 @ z.T)
        return complex(c.conj() @ gram @ c)
    if isinstance(state, ProductState):
        return (expval(d1, _state_to_matrix(state.left, dim))
                * expval(d2, _state_to_matrix(state.right, dim)))
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
    blocks = _leading_blocks(np.array([alpha, beta], dtype=complex))

    def at_dim(dim):
        d1, d2 = blocks(dim)
        return _chi2_structured(state, d1, d2, dim)

    return _converge(at_dim, initial_dim(state, alpha, beta), tol)

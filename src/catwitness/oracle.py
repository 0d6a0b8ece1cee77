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
    _Mixture,
)

TRACE_TOL = 1e-6
CONVERGENCE_TOL = 1e-9
MAX_DIM = 4096  # largest per-mode cutoff built: twice the first one
_STACKED = "a stack of {} states has no oracle route; take one member"


class TruncationError(ValueError):
    """Raised when the Fock cutoff loses too much trace weight, when its
    doubling passes MAX_DIM, or when the two give no finite, converged
    value."""

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


def _polar(z: np.ndarray):
    """|z|, log|z| and z/|z| of a 1-d complex array as (K, 1) columns, by
    Python's scalar abs, math.log and complex division: np.abs, np.log and
    ndarray division round 15-62% of entries otherwise in the last bit and
    are no faster on a run's 1-4 amplitudes (5.9 against 5.3-7.5 us, 2-CPU
    Xeon). A zero entry stands in as |z| = 1 with phase 0; callers
    overwrite its result."""
    z = z.tolist()
    amp = [abs(a) or 1.0 for a in z]
    return (np.array(amp)[:, None], np.array([math.log(r) for r in amp])[:, None],
            np.array([a / r for a, r in zip(z, amp)])[:, None])


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
    alpha = np.asarray(alpha, dtype=complex)
    shape, alpha = alpha.shape, alpha.reshape(-1)
    size = alpha.size
    amp, log_amp, phase = _polar(alpha)
    n = np.arange(dim)
    # h[n, b, k] = |<n+k|D|n>|: each step of the recurrence reads and
    # writes whole contiguous (B, dim) rows; entries with n + k >= dim are
    # never used
    h = np.zeros((dim, size, dim))
    x = amp ** 2
    h[0] = np.exp(n * log_amp - x / 2.0 - 0.5 * _log_factorials(dim))
    _laguerre_rows(h, x)
    # upper[b, n, m] = h[n, b, m - n], a strided view that holds |D| on and
    # above the diagonal (m >= n) and unused entries of h below it; |D| is
    # symmetric, so its lower triangle is the transposed view
    s = h.itemsize
    upper = np.ndarray((size, dim, dim), float, h, 0,
                       (dim * s, (size * dim - 1) * s, s))
    mag = np.where(np.tri(dim, dtype=bool), upper.swapaxes(1, 2), upper)
    # <m|D|n> has the phase of alpha^(m-n) below the diagonal and, as
    # <n|D(alpha)|m> = conj(<m|D(-alpha)|n>), of (-alpha*)^(n-m) above it:
    # one Toeplitz view of [(-phase*)^(dim-1) .. (-phase*)^1, phase^0 ..]
    powers = np.concatenate(((-phase.conjugate()) ** n[:0:-1], phase ** n),
                            axis=1)
    sb, sk = powers.strides
    out = mag * np.ndarray((size, dim, dim), complex, powers, (dim - 1) * sk,
                           (sb, sk, -sk))
    if not alpha.all():  # _polar's stand-in for a zero amplitude
        out[alpha == 0] = np.eye(dim)
    return out.reshape(shape + (dim, dim))


def _laguerre_rows(h: np.ndarray, x: np.ndarray) -> None:
    """Rows 1.. of h[n, b, k] from row 0, in place:
    h[m+1] = ((2m+1-x+k) h[m] - root[m] h[m-1]) / root[m+1] with
    root[m, k] = sqrt(m (m+k)), as q[m] h[m] - r[m] h[m-1] from the ratio
    tables q = (2m+1-x+k) / root[m+1] and r = root[m] / root[m+1] (over b
    too), built once, so that a step is three ufunc calls on flat rows of
    B dim. Each entry depends on (m, k, x) only, not on the cutoff."""
    dim, size = h.shape[:2]
    n = np.arange(dim)
    root = np.sqrt(n[:, None] * (n[:, None] + n))  # root[0] = 0 drops h[-1]
    q = (((2 * n[:-1] + 1)[:, None, None] - x) + n) / root[1:, None]
    r = np.broadcast_to((root[:-1] / root[1:])[:, None], q.shape)
    # explicit, as dim = 1 has no step; r's reshape is a view for one
    # amplitude and a copy for more
    flat = (dim - 1, size * dim)
    rows, t = list(h.reshape(dim, -1)), np.empty(size * dim)
    multiply, subtract = np.multiply, np.subtract
    for qm, rm, prev, cur, nxt in zip(q.reshape(flat), r.reshape(flat),
                                      rows[-1:] + rows, rows, rows[1:]):
        multiply(qm, cur, nxt)
        multiply(rm, prev, t)
        subtract(nxt, t, nxt)


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


def _kraus_table(dim: int, eta: float) -> np.ndarray:
    """a[k, n] = sqrt(C(n, k) eta^(n-k) (1-eta)^k) = <n-k|A_k|n>, the one
    shifted diagonal of each amplitude-damping Kraus operator A_k; 0 for
    n < k. lg[m] and m log(eta), m = n - k, are Toeplitz views (as D's
    phases are) of rows padded with inf and 0 where m < 0, so a = 0 there."""
    lg, n = _log_factorials(dim), np.arange(dim)
    pad = np.zeros((2, 2 * dim - 1))
    pad[0, :dim - 1] = np.inf
    pad[:, dim - 1:] = lg, n * math.log(eta)
    sr, s = pad.strides
    lg_m, m_log = np.ndarray((2, dim, dim), float, pad, (dim - 1) * s,
                             (sr, -s, s))
    return np.exp(0.5 * (lg - lg[:, None] - lg_m + m_log
                         + n[:, None] * math.log1p(-eta)))


def _shifted(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[i, k, ...] = table[k, i+k] x[i+k, ...], zero past i+k = dim, one
    strided view of the zero-padded products: with the Kraus table, the
    Kraus vectors A_k v of each column v of x; with its square, p'."""
    dim, rest = x.shape[0], x.shape[1:]
    prod = np.zeros((dim, 2 * dim) + rest, dtype=x.dtype)
    np.multiply(table.reshape(table.shape + (1,) * len(rest)), x,
                out=prod[:, :dim])
    sk, sj = prod.strides[:2]
    return np.ndarray((dim, dim) + rest, x.dtype, prod, 0,
                      (sj, sk + sj) + prod.strides[2:])


def _realize(state, dim: int):
    """(V, p) of shapes (dim, r) and (dim,) with rho = V V^dagger + diag(p)
    in the truncated Fock basis, the trace unchecked. A superposition of
    coherent states is one column of V, a Fock or thermal state is p, a
    mixture stacks the sqrt(w)-scaled columns and sums w p of its
    components, and pure loss maps V to its Kraus vectors A_k v (r dim
    columns) and a nonzero p to p'_n = sum_k a[k, n+k]^2 p[n+k]."""
    if isinstance(state, CoherentSuperposition):
        c, xi = _terms(state)
        return (c @ _coherent_vectors(xi, dim))[:, None], np.zeros(dim)
    no_columns = np.zeros((dim, 0), complex)
    if isinstance(state, FockState):  # n >= dim: p = 0, a leak of 1
        return no_columns, (np.arange(dim) == state.n).astype(float)
    if isinstance(state, ThermalState):
        # r^n underflows to 0 where n_th^n / (1 + n_th)^(n+1) is inf / inf
        r = state.n_th / (1.0 + state.n_th)
        return no_columns, r ** np.arange(dim) / (1.0 + state.n_th)
    if isinstance(state, Mixture):
        parts = [(w, *_realize(s, dim)) for w, s in state.components]
        return (np.hstack([math.sqrt(w) * v for w, v, _ in parts]),
                sum(w * p for w, _, p in parts))
    if isinstance(state, Decohered):
        if np.ndim(state.gamma_t):
            raise ValueError(_STACKED.format(np.size(state.gamma_t)))
        if state.n_th > 0:
            raise ValueError("no independent Fock-space path for thermal "
                             "decoherence (n_th > 0); use the closed form")
        v, p = _realize(state.inner, dim)
        eta = math.exp(-state.gamma_t)
        if eta == 1.0:
            return v, p
        a = _kraus_table(dim, eta)
        return (_shifted(a, v).reshape(dim, dim * v.shape[1]),
                _shifted(a * a, p).sum(axis=1) if np.count_nonzero(p) else p)
    raise TypeError(f"cannot realize {type(state).__name__} as a single-mode "
                    "matrix; two-mode states go through oracle_chi2")


def _at_cutoffs(state, d: int):
    """The state realized once, at 2d, as a function of D at a cutoff >= 2d:
    [tr{D rho} at d, at 2d] on the leading blocks V[:n], p[:n]; first a
    TruncationError at the first n of d, 2d where |V[:n]|^2 + sum(p[:n])
    leaks. Of a loss the d blocks are P_d rho_2d P_d, so the d checks test
    the lossy state's cutoff; its inner state's cutoff is checked by the
    2d leak alone, at TRACE_TOL."""
    v, p = _realize(state, 2 * d)
    for n in (d, 2 * d):
        leakage = abs(1.0 - (np.vdot(v[:n], v[:n]).real + p[:n].sum()))
        if leakage > TRACE_TOL:
            raise TruncationError(n, leakage)
    return lambda operator: [_contract(operator[:n, :n], v[:n], p[:n])
                             for n in (d, 2 * d)]


def _contract(operator: np.ndarray, v: np.ndarray, p: np.ndarray) -> complex:
    """tr{A rho} = vdot(V, A V) + diag(A).p for rho = V V^dagger + diag(p),
    so no dim x dim density matrix is formed; the term of a V with no
    columns or of a zero p is not computed. The one single-mode
    contraction of oracle_chi and of oracle_chi2's product states."""
    value = np.vdot(v, operator @ v) if v.shape[1] else 0j
    if np.count_nonzero(p):
        value += operator.diagonal() @ p
    return complex(value)


# ---------------------------------------------------------------------------
# Characteristic functions at the state's cutoff and its doubling
# ---------------------------------------------------------------------------

def _terms(state) -> np.ndarray:
    """Contiguous rows c, x^1, ... of one superposition's terms."""
    t = np.array(state.terms, dtype=complex)
    if t.ndim > 2:
        raise ValueError(_STACKED.format(t[..., 0, 0].size))
    return t.T.copy()


def initial_dim(state) -> int:
    """The first cutoff d from the state alone, at which d and 2d agree
    within tol = CONVERGENCE_TOL. D is unitary with an exact leading block,
    so at any alpha tr{D rho} at d is within 2 |psi_tail| <= tol / 5 of its
    limit when (sum |c_k|)^2 times the Poisson(|xi|_max^2) tail is below
    (tol / 10)^2, and within r^d < tol / 10 for a thermal p (|n> needs
    n + 1). Loss never raises photon numbers; mixtures, products and pairs
    take the max over parts (two modes at most double the error)."""
    tol = CONVERGENCE_TOL
    if isinstance(state, (CoherentSuperposition, PairSuperposition)):
        # the Poisson(m) tail from d on is at most p_d / (1 - m / (d + 1))
        # for d > m, and below 1/2 for no d <= m; log p_d is stepped in d
        t = abs(_terms(state))
        m, log_bound = t[1:].max() ** 2, 2 * math.log(tol / 10 / t[0].sum())
        d, log_m = math.floor(m) + 1, math.log(m) if m else -math.inf
        log_p = d * log_m - m - math.lgamma(d + 1)
        while log_p - math.log1p(-m / (d + 1)) >= log_bound:
            d += 1
            log_p += log_m - math.log(d)
        return d
    if isinstance(state, FockState):
        return state.n + 1
    if isinstance(state, ThermalState):
        r = state.n_th / (1.0 + state.n_th)
        return math.floor(math.log(tol / 10) / math.log(r)) + 1 if r else 1
    if isinstance(state, _Mixture):
        return max(initial_dim(s) for _, s in state.components)
    if isinstance(state, Decohered):
        return initial_dim(state.inner)
    if isinstance(state, ProductState):
        return max(initial_dim(state.left), initial_dim(state.right))
    raise TypeError(f"unknown state {type(state).__name__}")


def _converge(state, amplitudes, prepare) -> complex:
    """prepare(state, d) on one build of D(amplitudes) at 2d, d the state's
    initial_dim: the 2d value, when it and the d value are finite and agree
    within CONVERGENCE_TOL. In this order: the cap on 2d, prepare (every
    realization and leak check), the build, whose leading blocks are D at
    smaller cutoffs (<m|D|n> does not depend on the cutoff), the check."""
    d = initial_dim(state)
    if 2 * d > MAX_DIM:
        raise TruncationError(2 * d, math.nan,
                              f"first cutoff dim={d} needs dim={2 * d}, "
                              f"above MAX_DIM={MAX_DIM}")
    evaluate = prepare(state, d)
    values = evaluate(displacement_matrix(amplitudes, 2 * d))
    for dim, val in zip((d, 2 * d), values):
        if not cmath.isfinite(val):
            raise TruncationError(dim, math.nan,
                                  f"dim={dim} gives the non-finite value {val}")
    delta = abs(values[1] - values[0])
    if delta >= CONVERGENCE_TOL:
        raise TruncationError(2 * d, math.nan,
                              f"dim={d} and {2 * d} differ by {delta:.3e} >= "
                              f"CONVERGENCE_TOL={CONVERGENCE_TOL:.1e}")
    return values[1]


def oracle_chi(state: SingleModeState, alpha: complex) -> complex:
    """chi(alpha) by direct tr{D(alpha) rho}, as vdot(V, D V) + diag(D).p
    for rho = V V^dagger + diag(p), at the state's cutoff checked against
    its doubling; elementwise over an ndarray."""
    if isinstance(alpha, np.ndarray):
        return np.vectorize(lambda a: oracle_chi(state, a),
                            otypes=[complex])(alpha)
    return _converge(state, alpha, _at_cutoffs)


def _chi2_structured(state, d: int):
    """tr{D(alpha) x D(beta) rho} at per-mode cutoffs d and 2d as a function
    of (D(alpha), D(beta)) at 2d, per pure/product component, with no
    dim^2 x dim^2 Kronecker matrix: a pair's coherent vectors built once, at
    2d, and each product factor realized once, at 2 d_f for its own first
    cutoff d_f <= d, so the product checks f_L f_R at d_f against 2 d_f."""
    if isinstance(state, PairSuperposition):
        c, a, b = _terms(state)
        u, z = _coherent_vectors(a, 2 * d), _coherent_vectors(b, 2 * d)
        return lambda built: [_pair_contract(built[:, :n, :n], c, u[:, :n],
                                             z[:, :n]) for n in (d, 2 * d)]
    if isinstance(state, ProductState):
        left, right = (_at_cutoffs(s, initial_dim(s))
                       for s in (state.left, state.right))
        return lambda built: [x * y for x, y in zip(left(built[0]),
                                                    right(built[1]))]
    if isinstance(state, TwoModeMixture):
        weights, parts = zip(*[(w, _chi2_structured(s, d))
                               for w, s in state.components])
        return lambda built: [sum(w * val for w, val in zip(weights, vals))
                              for vals in zip(*(f(built) for f in parts))]
    raise TypeError(f"cannot evaluate {type(state).__name__}")


def _pair_contract(operators, c, u, z) -> complex:
    """sum_{k,l} c_k c_l* <u_l|Da|u_k> <z_l|Db|z_k> = c^dag (Ga o Gb) c for
    operators (Da, Db) at one cutoff n and a pair's coherent rows u, z cut
    to n: the pair superposition's counterpart of _contract."""
    return complex(c.conj() @ ((u.conj() @ operators[0] @ u.T)
                               * (z.conj() @ operators[1] @ z.T)) @ c)


def oracle_chi2(state: TwoModeState, alpha: complex, beta: complex) -> complex:
    """Two-mode chi by truncated matrix elements, at the state's per-mode
    cutoff checked against its doubling; elementwise over ndarrays."""
    if isinstance(alpha, np.ndarray) or isinstance(beta, np.ndarray):
        return np.vectorize(lambda a, b: oracle_chi2(state, a, b),
                            otypes=[complex])(alpha, beta)
    return _converge(state, (alpha, beta), _chi2_structured)

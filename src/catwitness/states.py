"""Analytic bosonic states and exact characteristic-function evaluation.

Single- and two-mode states are immutable descriptors that expose the
symmetric-ordered characteristic function chi(alpha) = <D(alpha)> and its
normally-ordered variant chi_N(alpha) = exp(|alpha|^2/2) chi(alpha).
Density matrices never appear here; the brute-force Fock-space path lives
in :mod:`catwitness.oracle`. chi, chi_normal and chi2 take complex scalars
(scalar code) or ndarrays (an array of the broadcast shape, one per point).

All states are kept in the frame rotating at the mechanical frequency, so
free evolution is already factored out of every formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

NORM_TOL = 1e-10
WEIGHT_TOL = 1e-12
DEGENERATE_NORM = 1e-14


def _check_finite(z: complex, name: str = "amplitude") -> complex:
    if isinstance(z, np.ndarray):
        bad = ~np.isfinite(z)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {complex(z[bad][0])}")
        return z.astype(complex)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z}")
    return z


def _exp(x):
    """math.exp, or np.exp on an array that raises OverflowError likewise."""
    if not isinstance(x, np.ndarray):
        return math.exp(x)
    with np.errstate(over="ignore"):
        out = np.exp(x)
    if np.isinf(out).any():
        raise OverflowError("math range error")
    return out


def _laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the recurrence scipy's eval_laguerre
    runs for integer n, in the same order, so both give the same floats.
    x is a float (plain Python arithmetic) or an array (in-place ufuncs)."""
    array = isinstance(x, np.ndarray)
    if n == 0:
        return np.ones_like(x) if array else 1.0
    d = -x
    p = d + 1.0
    if not array:
        for k in range(1, n):
            d = -x / (k + 1) * p + (k / (k + 1)) * d
            p = d + p
        return p
    t = np.empty_like(x)
    for k in range(1, n):
        np.divide(x, -(k + 1), out=t)  # -x / (k + 1), exactly
        t *= p
        d *= k / (k + 1)
        d += t
        p += d
    return p


def _complex(x):
    return x.astype(complex) if isinstance(x, np.ndarray) else complex(x)


def coherent_overlap(xi: complex, xi_prime: complex) -> complex:
    """Inner product <xi|xi'> of two coherent states."""
    xi = _check_finite(xi)
    xi_prime = _check_finite(xi_prime)
    return cmath.exp(-(abs(xi) ** 2 + abs(xi_prime) ** 2) / 2.0
                     + xi.conjugate() * xi_prime)


def displaced_matrix_element(xi_a: complex, alpha: complex,
                             xi_b: complex) -> complex:
    """<xi_a| D(alpha) |xi_b>, using D(alpha)|xi> = e^{i Im(alpha xi*)} |xi+alpha>."""
    xi_a = _check_finite(xi_a)
    alpha = _check_finite(alpha)
    xi_b = _check_finite(xi_b)
    phase = cmath.exp(1j * (alpha * xi_b.conjugate()).imag)
    return phase * coherent_overlap(xi_a, xi_b + alpha)


def _coherent_sum(terms, alphas) -> complex:
    """sum_{k,l} c_k c_l* prod_m <x_l^m| D(alpha_m) |x_k^m> over the terms
    (c, x^1, ..., x^M) of an M-mode coherent superposition.

    With D(alpha)|x> = e^{i Im(alpha x*)} |x + alpha> and
    <x|y> = exp(-|x|^2/2 - |y|^2/2 + x* y), each term pair is one
    exponential of a ket part, a bra part and the cross term x_l* y_k.
    All alphas = 0 gives the squared norm. Amplitudes and coefficients
    must already be finite (validated by the callers).
    """
    if any(isinstance(a, np.ndarray) for a in alphas):
        return _coherent_sum_array(terms, alphas)
    kets, bras = [], []
    for c, *xs in terms:
        ys = [x + a for x, a in zip(xs, alphas)]
        phase = sum((a * x.conjugate()).imag for x, a in zip(xs, alphas))
        kets.append((c, complex(-0.5 * sum(abs(y) ** 2 for y in ys), phase),
                     ys))
        bras.append((c.conjugate(), -0.5 * sum(abs(x) ** 2 for x in xs),
                     [x.conjugate() for x in xs]))
    total = 0j
    for c_k, e_k, ys in kets:
        for cc_l, e_l, xcs in bras:
            total += c_k * cc_l * cmath.exp(sum(map(mul, xcs, ys), e_k + e_l))
    return total


def _coherent_sum_array(terms, alphas) -> np.ndarray:
    """_coherent_sum at each point of the broadcast alpha arrays, the P
    points on a leading axis: one (P, K, K) exponent and one exp."""
    a = np.stack(np.broadcast_arrays(*alphas), -1)[..., None, :]
    t = np.array(terms, dtype=complex)
    c, x = t[:, 0], t[:, 1:]
    y = x + a  # (..., K, M)
    e_k = -0.5 * (abs(y) ** 2).sum(-1) + 1j * (a * x.conj()).imag.sum(-1)
    e_l = -0.5 * (abs(x) ** 2).sum(-1)
    expo = y @ x.conj().T + e_k[..., None] + e_l
    return c @ np.exp(expo) @ c.conj()


class SingleModeState:
    """Base class for single-mode state descriptors."""

    def chi(self, alpha: complex) -> complex:
        """Symmetric-ordered characteristic function tr{D(alpha) rho}."""
        raise NotImplementedError

    def chi_normal(self, alpha: complex) -> complex:
        """Normally-ordered characteristic function e^{|alpha|^2/2} chi(alpha)."""
        alpha = _check_finite(alpha)
        return _exp(abs(alpha) ** 2 / 2.0) * self.chi(alpha)


class TwoModeState:
    """Base class for two-mode state descriptors."""

    def chi2(self, alpha: complex, beta: complex) -> complex:
        """Two-mode characteristic function tr{D(alpha) x D(beta) rho}."""
        raise NotImplementedError


@dataclass(frozen=True)
class CoherentSuperposition(SingleModeState):
    """Pure superposition sum_k c_k |xi_k>, renormalized at construction."""

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        terms = tuple((_check_finite(c, "coefficient"), _check_finite(xi))
                      for c, xi in self.terms)
        if not terms:
            raise ValueError("superposition needs at least one term")
        norm_sq = _coherent_sum(terms, (0j,)).real
        if norm_sq < DEGENERATE_NORM:
            raise ValueError(f"degenerate superposition, squared norm {norm_sq:g}")
        scale = 1.0 / math.sqrt(norm_sq)
        object.__setattr__(self, "terms",
                           tuple((c * scale, xi) for c, xi in terms))

    def chi(self, alpha: complex) -> complex:
        return _coherent_sum(self.terms, (_check_finite(alpha),))


@dataclass(frozen=True)
class FockState(SingleModeState):
    """Number state |n>; chi_N is the Laguerre polynomial L_n(|alpha|^2)."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"Fock index must be a non-negative integer, got {self.n}")

    def chi(self, alpha: complex) -> complex:
        alpha = _check_finite(alpha)
        x = abs(alpha) ** 2
        return _complex(_exp(-x / 2.0) * _laguerre(self.n, x))

    def chi_normal(self, alpha: complex) -> complex:
        return _complex(_laguerre(self.n, abs(_check_finite(alpha)) ** 2))


@dataclass(frozen=True)
class ThermalState(SingleModeState):
    """Thermal state with mean occupation n_th; guaranteed-classical control,
    chi_N = exp(-n_th |alpha|^2)."""

    n_th: float

    def __post_init__(self):
        _check_rate(self.n_th, "n_th")

    def chi(self, alpha: complex) -> complex:
        alpha = _check_finite(alpha)
        return _complex(_exp(-(2 * self.n_th + 1) * abs(alpha) ** 2 / 2.0))

    def chi_normal(self, alpha: complex) -> complex:
        return _complex(_exp(-self.n_th * abs(_check_finite(alpha)) ** 2))


@dataclass(frozen=True)
class Mixture(SingleModeState):
    """Convex mixture of single-mode states; chi is linear in the components."""

    components: tuple[tuple[float, SingleModeState], ...]

    def __post_init__(self):
        _check_weights(self.components)

    def chi(self, alpha: complex) -> complex:
        return sum(w * s.chi(alpha) for w, s in self.components)

    def chi_normal(self, alpha: complex) -> complex:
        return sum(w * s.chi_normal(alpha) for w, s in self.components)


def _check_weights(components):
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = [w for w, _ in components]
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be non-negative")
    if abs(sum(weights) - 1.0) > WEIGHT_TOL:
        raise ValueError(f"mixture weights sum to {sum(weights)!r}, expected 1")


@dataclass(frozen=True)
class Decohered(SingleModeState):
    """State after time gamma_t of damping into a bath with occupation n_th.

    chi(alpha, t) = exp(-(n_th + 1/2) (1 - e^{-gamma t}) |alpha|^2)
                    * chi(alpha e^{-gamma t / 2})
    evaluated on the wrapped state's chi, so one Gaussian factor carries
    both the bath and the symmetric ordering and stays finite where
    chi_N's e^{|alpha|^2/2} would overflow; chi_N is the same map on the
    wrapped chi_N, with n_th in place of n_th + 1/2.
    """

    inner: SingleModeState
    gamma_t: float
    n_th: float

    def __post_init__(self):
        _check_rate(self.gamma_t, "gamma_t")
        _check_rate(self.n_th, "n_th")

    def chi(self, alpha: complex) -> complex:
        return _damp(self.inner.chi, alpha, self.gamma_t, self.n_th + 0.5)

    def chi_normal(self, alpha: complex) -> complex:
        return _damp(self.inner.chi_normal, alpha, self.gamma_t, self.n_th)


def _check_rate(value, name: str):
    """value must be finite and >= 0; an array is checked elementwise and
    its first offending element is named."""
    if isinstance(value, np.ndarray):
        ok = (value >= 0) & (value < math.inf)  # NaN fails both
        if ok.all():
            return
        value = float(value[~ok][0])
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be >= 0, got {value}")


def _damp(fn, alpha, gamma_t, n):
    """Decohered's channel map on the characteristic function fn of the
    initial state, with n = n_th + 1/2 for chi and n = n_th for chi_N;
    gamma_t is a float or an array of times, all served by one fn call."""
    alpha = _check_finite(alpha)
    if isinstance(gamma_t, np.ndarray):
        loss, shrink = -np.expm1(-gamma_t), np.exp(-gamma_t / 2.0)
    else:
        loss, shrink = -math.expm1(-gamma_t), math.exp(-gamma_t / 2.0)
    return _exp(-n * loss * abs(alpha) ** 2) * fn(alpha * shrink)


def damped_chi_normal(state: SingleModeState, alpha: complex, gamma_t,
                      n_th: float):
    """chi_N(alpha) of decohere(state, t, n_th) at each time t of gamma_t
    (a float or an array), with one chi_N call of the state."""
    _check_rate(gamma_t, "gamma_t")
    _check_rate(n_th, "n_th")
    return _damp(state.chi_normal, alpha, gamma_t, n_th)


@dataclass(frozen=True)
class PairSuperposition(TwoModeState):
    """Pure two-mode superposition sum_k c_k |xi_k, zeta_k>, renormalized."""

    terms: tuple[tuple[complex, complex, complex], ...]

    def __post_init__(self):
        terms = tuple((_check_finite(c, "coefficient"), _check_finite(a),
                       _check_finite(b)) for c, a, b in self.terms)
        if not terms:
            raise ValueError("superposition needs at least one term")
        norm_sq = _coherent_sum(terms, (0j, 0j)).real
        if norm_sq < DEGENERATE_NORM:
            raise ValueError(f"degenerate superposition, squared norm {norm_sq:g}")
        scale = 1.0 / math.sqrt(norm_sq)
        object.__setattr__(self, "terms",
                           tuple((c * scale, a, b) for c, a, b in terms))

    def chi2(self, alpha: complex, beta: complex) -> complex:
        return _coherent_sum(self.terms,
                             (_check_finite(alpha), _check_finite(beta)))


@dataclass(frozen=True)
class ProductState(TwoModeState):
    """Uncorrelated two-mode state rho_left x rho_right."""

    left: SingleModeState
    right: SingleModeState

    def chi2(self, alpha: complex, beta: complex) -> complex:
        return self.left.chi(alpha) * self.right.chi(beta)


@dataclass(frozen=True)
class TwoModeMixture(TwoModeState):
    """Convex mixture of two-mode states."""

    components: tuple[tuple[float, TwoModeState], ...]

    def __post_init__(self):
        _check_weights(self.components)

    def chi2(self, alpha: complex, beta: complex) -> complex:
        return sum(w * s.chi2(alpha, beta) for w, s in self.components)


VACUUM = FockState(0)


def chi(state: SingleModeState, alpha: complex) -> complex:
    """Symmetric-ordered characteristic function of a single-mode state."""
    return state.chi(alpha)


def chi_normal(state: SingleModeState, alpha: complex) -> complex:
    """Normally-ordered characteristic function of a single-mode state."""
    return state.chi_normal(alpha)


def chi2(state: TwoModeState, alpha: complex, beta: complex) -> complex:
    """Two-mode characteristic function tr{D(alpha) x D(beta) rho}."""
    return state.chi2(alpha, beta)


def cat_state(xi0: complex, theta: float) -> CoherentSuperposition:
    """Superposition (|0> + e^{i theta} |xi0>) / sqrt(4 p_plus).

    p_plus = (1 + cos(theta) exp(-|xi0|^2/2)) / 2; the destructive-degenerate
    point p_plus ~ 0 is rejected.
    """
    xi0 = _check_finite(xi0)
    p_plus = (1.0 + math.cos(theta) * math.exp(-abs(xi0) ** 2 / 2.0)) / 2.0
    if p_plus <= DEGENERATE_NORM:
        raise ValueError(f"degenerate cat-state normalization, p_plus={p_plus:g}")
    scale = 1.0 / math.sqrt(4.0 * p_plus)
    return CoherentSuperposition(((scale, 0.0),
                                  (scale * cmath.exp(1j * theta), xi0)))


def entangled_cat(xi0: complex, sign: int = +1) -> PairSuperposition:
    """Two-mode superposition (|xi0,xi0> + sign |-xi0,-xi0>), normalized."""
    xi0 = _check_finite(xi0)
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    norm_sq = 2.0 + 2.0 * sign * math.exp(-4.0 * abs(xi0) ** 2)
    if norm_sq < DEGENERATE_NORM:
        raise ValueError("entangled cat state vanishes for sign=-1 at xi0=0")
    scale = 1.0 / math.sqrt(norm_sq)
    return PairSuperposition(((scale, xi0, xi0),
                              (sign * scale, -xi0, -xi0)))


def decohere(state: SingleModeState, gamma_t: float, n_th: float) -> Decohered:
    """Wrap a state in the damping-channel evolution of chi_N."""
    return Decohered(state, gamma_t, n_th)


# ---------------------------------------------------------------------------
# JSON schema: {"kind": ..., ...} with complex numbers as [re, im] pairs.
# ---------------------------------------------------------------------------

def _c2j(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _j2f(v, key: str) -> float:
    """A JSON number as a float; strings and booleans are rejected."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ValueError(f"{key!r} must be a JSON number, got {v!r}")
    return float(v)


def _j2c(v, key: str) -> complex:
    """A JSON number or an [re, im] pair of them as a complex."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_j2f(v[0], key), _j2f(v[1], key))
    return complex(_j2f(v, key))


def state_to_json(state) -> dict:
    """Serialize a state descriptor to its JSON-schema dict."""
    if isinstance(state, CoherentSuperposition):
        return {"kind": "coherent_superposition",
                "terms": [{"coeff": _c2j(c), "amplitude": _c2j(xi)}
                          for c, xi in state.terms]}
    if isinstance(state, FockState):
        return {"kind": "fock", "n": state.n}
    if isinstance(state, ThermalState):
        return {"kind": "thermal", "n_th": state.n_th}
    if isinstance(state, Mixture) or isinstance(state, TwoModeMixture):
        return {"kind": "mixture",
                "components": [{"weight": w, "state": state_to_json(s)}
                               for w, s in state.components]}
    if isinstance(state, Decohered):
        return {"kind": "decohered", "inner": state_to_json(state.inner),
                "gamma_t": state.gamma_t, "n_th": state.n_th}
    if isinstance(state, PairSuperposition):
        return {"kind": "pair_superposition",
                "terms": [{"coeff": _c2j(c), "amp1": _c2j(a), "amp2": _c2j(b)}
                          for c, a, b in state.terms]}
    if isinstance(state, ProductState):
        return {"kind": "product", "left": state_to_json(state.left),
                "right": state_to_json(state.right)}
    raise TypeError(f"cannot serialize {type(state).__name__}")


def state_from_json(data: dict):
    """Parse a state descriptor from its JSON-schema dict."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("state JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "coherent_superposition":
        return CoherentSuperposition(tuple(
            (_j2c(t["coeff"], "coeff"), _j2c(t["amplitude"], "amplitude"))
            for t in data["terms"]))
    if kind == "fock":
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"fock 'n' must be a JSON integer, got {n!r}")
        return FockState(n)
    if kind == "thermal":
        return ThermalState(_j2f(data["n_th"], "n_th"))
    if kind == "cat":
        return cat_state(_j2c(data["xi0"], "xi0"),
                         _j2f(data.get("theta", 0.0), "theta"))
    if kind == "decohered":
        return Decohered(state_from_json(data["inner"]),
                         _j2f(data["gamma_t"], "gamma_t"),
                         _j2f(data["n_th"], "n_th"))
    if kind == "pair_superposition":
        return PairSuperposition(tuple(
            (_j2c(t["coeff"], "coeff"), _j2c(t["amp1"], "amp1"),
             _j2c(t["amp2"], "amp2")) for t in data["terms"]))
    if kind == "product":
        return ProductState(state_from_json(data["left"]),
                            state_from_json(data["right"]))
    if kind == "mixture":
        components = tuple((_j2f(c["weight"], "weight"),
                            state_from_json(c["state"]))
                           for c in data["components"])
        if all(isinstance(s, TwoModeState) for _, s in components):
            return TwoModeMixture(components)
        if all(isinstance(s, SingleModeState) for _, s in components):
            return Mixture(components)
        raise ValueError("mixture mixes single- and two-mode components")
    raise ValueError(f"unknown state kind {kind!r}")

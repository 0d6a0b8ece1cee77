"""Analytic bosonic states and exact characteristic-function evaluation.

Single- and two-mode states are immutable descriptors that expose the
symmetric-ordered characteristic function chi(alpha) = <D(alpha)> and its
normally-ordered variant chi_N(alpha) = exp(|alpha|^2/2) chi(alpha).
Density matrices never appear here; the brute-force Fock-space path lives
in :mod:`catwitness.oracle`. Each family implements one s-ordered hook,
_ordered, under the chi, chi_normal and chi2 of the base classes: an ndarray
gives an array of the broadcast shape, one value per point, and a complex
scalar gives a complex scalar (a numpy complex128, an instance of complex).

All states are kept in the frame rotating at the mechanical frequency, so
free evolution is already factored out of every formula.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12
DEGENERATE_NORM = 1e-14
EXP_MAX = float(np.log(np.finfo(float).max))  # exp(EXP_MAX) is finite


def _check_scalar(z, name: str = "amplitude") -> complex:
    """A finite complex scalar parameter: a setting, xi0, a test point."""
    try:
        z = complex(z)
    except TypeError:
        raise ValueError(f"{name} must be a scalar, got {z!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z}")
    return z


def _check_points(z, name: str = "amplitude") -> np.ndarray:
    """Evaluation points (or another array input) as a complex array, 0-d
    for a scalar, all finite; the first offending entry is named."""
    z = np.asarray(z, dtype=complex)
    ok = np.isfinite(z)
    if not ok.all():
        raise ValueError(f"{name} must be finite, got {complex(z[~ok][0])}")
    return z


def _gauss(k, x):
    """e^{-k x} <= 1 at x = |a|^2 for a rate k >= 0, a float or an array:
    exactly 1 where k = 0, as the Gaussian is absent there, also where
    |a|^2 overflowed to inf and 0 * x would be NaN."""
    if np.isinf(x).any():
        x = np.where(np.not_equal(k, 0), x, 0.0)
    return np.exp(-k * x)


def _complex(x):
    """x as complex: a complex scalar for a 0-d input, else an array."""
    return np.asarray(x, dtype=complex)[()]


def _laguerre(n: int, x):
    """Laguerre polynomial L_n(x) by the recurrence scipy's eval_laguerre
    runs for integer n, in the same order, so both give the same floats."""
    if n == 0:
        return np.ones_like(x)
    d = -x
    p = d + 1.0
    t = np.empty_like(x)
    for k in range(1, n):
        np.divide(x, -(k + 1), out=t)  # -x / (k + 1), exactly
        t *= p
        d *= k / (k + 1)
        d += t
        p += d
    return p


def _superposition(terms, modes: int):
    """Term arrays (c, x*^T, g) of sum_k c_k |x_k^1, ..., x_k^modes>, after
    one finiteness pass: coefficients (K,), conjugate amplitudes (modes, K)
    and the Gram exponent g (K, K), the _coherent_sum exponent at a = 0,
    whose diagonal has real part 0 exactly (so that one coherent term has
    |chi_N| = 1 to an ulp); and the squared norm c e^g c*."""
    if not terms:
        raise ValueError("superposition needs at least one term")
    t = np.array(terms, dtype=complex)
    if t.shape[1:] != (modes + 1,):
        raise ValueError(f"a term is a coefficient and {modes} amplitude(s)")
    ok = np.isfinite(t)
    if not ok.all():
        k, j = np.argwhere(~ok)[0]
        raise ValueError(f"{'amplitude' if j else 'coefficient'} must be "
                         f"finite, got {complex(t[k, j])}")
    c, x = t[:, 0], t[:, 1:]
    xct = x.conj().T
    g = x @ xct
    e = -0.5 * g.diagonal().real
    g += e[:, None] + e
    return (c, xct, g), (c @ np.exp(g) @ c.conj()).real


def _coherent_sum(arrays, a, s):
    """sum_{k,l} c_k c_l* prod_m <x_l^m| D(a_m) |x_k^m> at each point of
    a (..., M), over the term arrays (c, x*^T, g) of _superposition, times
    e^{s|a|^2/2}: the s-ordered function, chi at s = 0 and chi_N at s = 1.

    By D(a)|x> = e^{i Im(a x*)} |x + a>, each term pair is e to the power
    g_kl + a.x_l* - (a.x_k*)* - |a|^2/2, kept combined as its parts alone
    overflow at macroscopic amplitudes: one (P, M) x (M, K) product a.x*,
    one (P, K, K) exponent and exp, and two 2-D products."""
    c, xct, g = arrays
    shape, a = a.shape[:-1], a.reshape(-1, xct.shape[0])
    p = a @ xct  # (P, K)
    expo = p[:, None, :] - p.conj()[:, :, None]
    expo += g
    if s != 1:
        expo.real -= (1 - s) / 2 * (abs(a) ** 2).sum(-1)[:, None, None]
    if (expo.real > EXP_MAX).any():  # as math.exp, not a warning and inf
        raise OverflowError("math range error")
    e = np.exp(expo, out=expo).reshape(-1, len(c))
    return ((e @ c.conj()).reshape(-1, len(c)) @ c).reshape(shape)


def _normalize(state, arrays, norm_sq):
    """Renormalize a superposition to the term arrays and squared norm of
    _superposition, keeping the arrays for _coherent_sum."""
    if norm_sq < DEGENERATE_NORM:
        raise ValueError(f"degenerate superposition, squared norm {norm_sq:g}")
    c = arrays[0] * (1.0 / math.sqrt(norm_sq))
    terms = zip(c.tolist(), *arrays[1].conj().tolist())
    object.__setattr__(state, "terms", tuple(terms))
    object.__setattr__(state, "_arrays", (c, *arrays[1:]))
    return state


def _from_arrays(cls, arrays, norm_sq):
    """A cls superposition from the term arrays and norm of _superposition."""
    return _normalize(object.__new__(cls), arrays, norm_sq)


class SingleModeState:
    """Base class for single-mode state descriptors. A family implements
    _ordered(a, s), Cahill and Glauber's s-ordered e^{s|a|^2/2} chi(a), on
    points already checked here, with the Gaussian folded into its own
    exponent so that chi_N (s = 1) stays finite where e^{|a|^2/2} is not."""

    def chi(self, alpha: complex) -> complex:
        """Symmetric-ordered characteristic function tr{D(alpha) rho}."""
        return _complex(self._ordered(_check_points(alpha), 0))

    def chi_normal(self, alpha: complex) -> complex:
        """Normally-ordered characteristic function e^{|alpha|^2/2} chi(alpha)."""
        return _complex(self._ordered(_check_points(alpha), 1))


class TwoModeState:
    """Base class for two-mode state descriptors; _ordered takes a (..., 2)."""

    def chi2(self, alpha: complex, beta: complex) -> complex:
        """Two-mode characteristic function tr{D(alpha) x D(beta) rho}."""
        a = np.empty(np.broadcast(alpha, beta).shape + (2,), dtype=complex)
        a[..., 0], a[..., 1] = alpha, beta
        return _complex(self._ordered(_check_points(a), 0))


@dataclass(frozen=True)
class CoherentSuperposition(SingleModeState):
    """Pure superposition sum_k c_k |xi_k>, renormalized at construction."""

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        _normalize(self, *_superposition(self.terms, 1))

    def _ordered(self, a, s):
        return _coherent_sum(self._arrays, a[..., None], s)


@dataclass(frozen=True)
class FockState(SingleModeState):
    """Number state |n>; chi_N is the Laguerre polynomial L_n(|alpha|^2)."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"Fock index must be a non-negative integer, got {self.n}")

    def _ordered(self, a, s):
        x = abs(a) ** 2
        p = _laguerre(self.n, x)
        return p if s == 1 else p * _gauss((1 - s) / 2, x)  # chi_N: L_n alone


@dataclass(frozen=True)
class ThermalState(SingleModeState):
    """Thermal state with mean occupation n_th; guaranteed-classical control,
    chi_N = exp(-n_th |alpha|^2)."""

    n_th: float

    def __post_init__(self):
        _check_rate(self.n_th, "n_th")

    def _ordered(self, a, s):
        return _gauss(self.n_th + (1 - s) / 2, abs(a) ** 2)


@dataclass(frozen=True)
class Mixture(SingleModeState):
    """Convex mixture of single-mode states; chi is linear in the components."""

    components: tuple[tuple[float, SingleModeState], ...]

    def __post_init__(self):
        _check_weights(self.components)

    def _ordered(self, a, s):
        return sum(w * c._ordered(a, s) for w, c in self.components)


def _check_weights(components):
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = [w for w, _ in components]
    if not all(w >= 0 for w in weights):  # NaN fails too
        raise ValueError("mixture weights must be non-negative")
    if abs(sum(weights) - 1.0) > WEIGHT_TOL:
        raise ValueError(f"mixture weights sum to {sum(weights)!r}, expected 1")


@dataclass(frozen=True)
class Decohered(SingleModeState):
    """State after time gamma_t of damping into a bath with occupation n_th.

    chi(alpha; s, t) = exp(-(n_th + (1 - s)/2) (1 - e^{-gamma t}) |alpha|^2)
                       * chi(alpha e^{-gamma t / 2}; s)
    on the wrapped state's s-ordered function, so one Gaussian factor
    carries both the bath and the ordering and stays finite where chi_N's
    e^{|alpha|^2/2} would overflow.

    gamma_t may also be an array of times: chi and chi_N then give one
    value per time, from one evaluation of the wrapped state.
    """

    inner: SingleModeState
    gamma_t: float | np.ndarray
    n_th: float

    def __post_init__(self):
        _check_rate(self.gamma_t, "gamma_t")
        _check_rate(self.n_th, "n_th")

    def _ordered(self, a, s):
        loss, shrink = -np.expm1(-self.gamma_t), np.exp(-self.gamma_t / 2.0)
        g = _gauss((self.n_th + (1 - s) / 2) * loss, abs(a) ** 2)
        # a 0-d a times shrink is a numpy scalar, whose abs rounds unlike
        # the array loop's; the wrapped state gets an array, as from chi
        return g * self.inner._ordered(np.asarray(a * shrink), s)


def _check_rate(value, name: str):
    """value, a float or an array, must be finite and >= 0 throughout;
    the first offending element is named."""
    value = np.asarray(value, dtype=float)
    bad = ~((value >= 0) & (value < math.inf))  # NaN fails both
    if bad.any():
        raise ValueError(f"{name} must be >= 0, got {float(value[bad][0])}")


@dataclass(frozen=True)
class PairSuperposition(TwoModeState):
    """Pure two-mode superposition sum_k c_k |xi_k, zeta_k>, renormalized."""

    terms: tuple[tuple[complex, complex, complex], ...]

    def __post_init__(self):
        _normalize(self, *_superposition(self.terms, 2))

    def _ordered(self, a, s):
        return _coherent_sum(self._arrays, a, s)


@dataclass(frozen=True)
class ProductState(TwoModeState):
    """Uncorrelated two-mode state rho_left x rho_right."""

    left: SingleModeState
    right: SingleModeState

    def _ordered(self, a, s):
        return self.left._ordered(a[..., 0], s) * self.right._ordered(a[..., 1], s)


@dataclass(frozen=True)
class TwoModeMixture(TwoModeState):
    """Convex mixture of two-mode states."""

    components: tuple[tuple[float, TwoModeState], ...]

    def __post_init__(self):
        _check_weights(self.components)

    def _ordered(self, a, s):
        return sum(w * c._ordered(a, s) for w, c in self.components)


VACUUM = FockState(0)


def chi(state: SingleModeState, alpha: complex) -> complex:
    """state.chi(alpha); kept, unexported, while perfbench's self-test
    names it. Call the method instead."""
    return state.chi(alpha)


def cat_state(xi0: complex, theta: float) -> CoherentSuperposition:
    """Superposition (|0> + e^{i theta} |xi0>) / sqrt(4 p_plus).

    p_plus = (1 + cos(theta) exp(-|xi0|^2/2)) / 2; the destructive-degenerate
    point p_plus ~ 0 is rejected.
    """
    xi0 = _check_scalar(xi0, "xi0")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    p_plus = (1.0 + math.cos(theta) * math.exp(-abs(xi0) ** 2 / 2.0)) / 2.0
    if p_plus <= DEGENERATE_NORM:
        raise ValueError(f"degenerate cat-state normalization, p_plus={p_plus:g}")
    scale = 1.0 / math.sqrt(4.0 * p_plus)
    return CoherentSuperposition(((scale, 0.0),
                                  (scale * cmath.exp(1j * theta), xi0)))


def entangled_cat(xi0: complex, sign: int = +1) -> PairSuperposition:
    """Two-mode superposition (|xi0,xi0> + sign |-xi0,-xi0>), normalized."""
    xi0 = _check_scalar(xi0, "xi0")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    norm_sq = 2.0 + 2.0 * sign * math.exp(-4.0 * abs(xi0) ** 2)
    if norm_sq < DEGENERATE_NORM:
        raise ValueError("entangled cat state vanishes for sign=-1 at xi0=0")
    scale = 1.0 / math.sqrt(norm_sq)
    return PairSuperposition(((scale, xi0, xi0),
                              (sign * scale, -xi0, -xi0)))


def decohere(state: SingleModeState, gamma_t: float | np.ndarray,
             n_th: float) -> Decohered:
    """Wrap a state in the damping-channel evolution of chi_N; gamma_t is
    a time or an array of times."""
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

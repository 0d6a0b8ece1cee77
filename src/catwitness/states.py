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
import contextlib
import math
import operator
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12
DEGENERATE_NORM = 1e-14
EXP_MAX = float(np.log(np.finfo(float).max))  # exp(EXP_MAX) is finite
LAGUERRE_SAFE = 1400.0  # x e^{x/2} is finite, and |L_n(x)| <= e^{x/2}
LN2 = math.log(2.0)
SPLIT_TERMS = 8  # the measured K from which _coherent_sum splits the phases
_AS_IS = contextlib.nullcontext()  # numpy's warnings as they are


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
    if np.count_nonzero(ok := np.isfinite(z)) < z.size:  # faster than .all()
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
    """L_n(x) at a numpy float or array x as (p, e), L_n(x) = p 2^e, by the
    recurrence scipy's eval_laguerre runs for integer n, in the same order:
    where no x exceeds LAGUERRE_SAFE, e is the int 0 and p scipy's float.
    Elsewhere e is an int array, and the running values are rescaled by a
    power of two before every step, numpy's warnings off as x may be inf;
    the scaling is exact, so p 2^e is the same value wherever it is finite,
    and no step overflows past that range."""
    scaled = (x > LAGUERRE_SAFE).any()
    e = np.zeros(np.shape(x), dtype=np.int64) if scaled else 0
    if n == 0:
        return np.ones_like(x), e
    d = -x
    p = d + 1.0
    t = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore") if scaled else _AS_IS:
        for k in range(1, n):
            if scaled:
                ex = np.frexp(np.maximum(abs(p), abs(d)))[1]
                p, d, e = np.ldexp(p, -ex), np.ldexp(d, -ex), e + ex
            np.divide(x, -(k + 1), out=t)  # -x / (k + 1), exactly
            t *= p
            d *= k / (k + 1)
            d += t
            p += d
    return p, e


def _superposition(terms, modes: int):
    """Term arrays (t, w, x*^T, g) of sum_k c_k |x_k^1, ..., x_k^modes>
    after one finiteness pass: t (K, modes + 1), w_kl = c_k c_l*, x*^T
    (modes, K) and g (K, K), the _coherent_sum exponent at a = 0, real part
    0 on the diagonal; the squared norm sum w e^g. From K = SPLIT_TERMS on,
    g is kept real, its phases e^{i Im g} folded into w, for the split
    order of _coherent_sum. Stacked terms lead each."""
    if not len(terms):
        raise ValueError("superposition needs at least one term")
    t = np.array(terms, dtype=complex)  # a copy: terms is built from it later
    if t.ndim < 2 or t.shape[-1] != modes + 1:
        raise ValueError(f"a term is a coefficient and {modes} amplitude(s)")
    if np.count_nonzero(ok := np.isfinite(t)) < t.size:
        bad = tuple(np.argwhere(~ok)[0])
        raise ValueError(f"{'amplitude' if bad[-1] else 'coefficient'} must "
                         f"be finite, got {complex(t[bad])}")
    tct = t.conj().swapaxes(-1, -2)  # the row c*, then x*^T
    c, x, xct = t[..., :1], t[..., 1:], tct[..., 1:, :]  # c a column (..., K, 1)
    g = x @ xct
    e = -0.5 * g.diagonal(0, -2, -1).real
    g += e[..., :, None] + e[..., None, :]
    w = c * tct[..., :1, :]
    if t.shape[-2] >= SPLIT_TERMS:  # the constant phases into the weights
        w, g = w * np.exp(1j * g.imag), g.real
    return (t, w, xct, g), (w * np.exp(g)).sum((-2, -1)).real[()]


def _coherent_sum(arrays, a, s):
    """sum_{k,l} c_k c_l* prod_m <x_l^m| D(a_m) |x_k^m> at each point of
    a (..., M), over the arrays (w, x*^T, g) that _normalize keeps, times
    e^{s|a|^2/2}: chi at s = 0, chi_N at s = 1. A stack (leading axes S on
    every array) takes points led by S or 1, or with fewer axes, shared.

    By D(a)|x> = e^{i Im(a x*)} |x + a>, each term pair is e to the power
    E_kl = g_kl + p_l - p_k* - |a|^2/2 with p = a.x*, its real part kept
    combined as its parts alone overflow at macroscopic amplitudes. One
    (S, P, M) x (S, M, K) product gives p. Below SPLIT_TERMS terms (g
    complex), one (S, P, K, K) complex exponent and exp and one
    (S, P, K^2) x (S, K^2, 1) product with the weights follow. From
    SPLIT_TERMS on (g real, w holding e^{i Im g}), as Im E_kl = Im g_kl +
    Im p_k + Im p_l, the sum is z^T (e^{Re E} o w) z with one unit phase
    z_k = e^{i Im p_k} per term: a real exp per term pair, a complex one
    per term, and the phases cannot overflow."""
    w, xct, g = arrays
    lead, (m, k) = xct.shape[:-2], xct.shape[-2:]
    if a.ndim <= len(lead):  # shared points
        a = a.reshape((1,) * (len(lead) + 1 - a.ndim) + a.shape)
    if lead and any(got not in (1, want) for got, want in zip(a.shape, lead)):
        raise ValueError(f"points with leading axes {a.shape[:len(lead)]} "
                         f"do not match a stack of shape {lead}")
    if len(shape := a.shape[len(lead):-1]) != 1:
        a = a.reshape(a.shape[:len(lead)] + (-1, m))
    p = a @ xct  # (S, P, K)
    q = p.real if (split := g.dtype.kind == "f") else p  # Re E alone, or E
    expo = q[..., None, :] - q.conj()[..., :, None]
    expo += g[..., None, :, :]
    re = expo.real
    if s != 1:
        re -= (1 - s) / 2 * (abs(a) ** 2).sum(-1)[..., None, None]
    if re.max(initial=-math.inf) > EXP_MAX:  # as math.exp, not a warning and inf
        raise OverflowError("math range error")
    e = np.exp(expo, out=expo)
    if split:
        z = np.exp(1j * p.imag)[..., None]  # a column (S, P, K, 1)
        out = (z * ((e * w[..., None, :, :]) @ z)).sum(-2)
    else:
        out = e.reshape(e.shape[:-2] + (k * k,)) @ w.reshape(lead + (k * k, 1))
    return out.reshape(out.shape[:-2] + shape)


def _tuples(rows, norm_sq):
    """Term rows (one list deeper per stack axis) as tuples, renormalized."""
    if isinstance(rows[0][0], list):
        return tuple(map(_tuples, rows, norm_sq))
    scale = 1.0 / math.sqrt(norm_sq)
    return tuple((row[0] * scale, *row[1:]) for row in rows)


def _normalize(state, arrays, norm_sq):
    """Renormalize to the arrays and norm of _superposition, per member."""
    t, w, xct, g = arrays
    if np.count_nonzero(bad := norm_sq < DEGENERATE_NORM):
        raise ValueError("degenerate superposition, squared norm "
                         f"{np.asarray(norm_sq)[bad][0]:g}")
    norm = norm_sq[..., None, None] if norm_sq.ndim else norm_sq
    for name, value in (("_raw", t), ("_norm_sq", norm_sq), ("_terms", None),
                        ("_arrays", (w / norm, xct, g))):
        object.__setattr__(state, name, value)
    return state


class _Terms:
    """An immutable object that builds its terms, by _read_terms, on first
    read, and is compared, hashed and shown by them."""

    __slots__ = ("_terms",)

    @property
    def terms(self):
        if self._terms is None:
            object.__setattr__(self, "_terms", self._read_terms())
        return self._terms

    def __eq__(self, other):
        return (self.terms == other.terms if other.__class__ is self.__class__
                else NotImplemented)

    def __hash__(self):
        return hash((self.terms,))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(terms={self.terms!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable")

    __delattr__ = __setattr__  # called as (self, name)

    def __setstate__(self, state):  # copies and pickles restore the slots
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class SingleModeState:
    """Base class for single-mode state descriptors. A family implements
    _ordered(a, s), Cahill and Glauber's s-ordered e^{s|a|^2/2} chi(a), on
    points already checked here, with the Gaussian folded into its own
    exponent so that chi_N (s = 1) stays finite where e^{|a|^2/2} is not."""

    __slots__ = ()

    def chi(self, alpha: complex) -> complex:
        """Symmetric-ordered characteristic function tr{D(alpha) rho}."""
        return _complex(self._ordered(_check_points(alpha), 0))

    def chi_normal(self, alpha: complex) -> complex:
        """Normally-ordered characteristic function e^{|alpha|^2/2} chi(alpha)."""
        return _complex(self._ordered(_check_points(alpha), 1))


class TwoModeState:
    """Base class for two-mode state descriptors; _ordered takes a (..., 2)."""

    __slots__ = ()

    def chi2(self, alpha: complex, beta: complex) -> complex:
        """Two-mode characteristic function tr{D(alpha) x D(beta) rho}."""
        a = np.empty(np.broadcast(alpha, beta).shape + (2,), dtype=complex)
        a[..., 0], a[..., 1] = alpha, beta
        return _complex(self._ordered(_check_points(a), 0))


class _Superposition(_Terms):
    """A pure superposition kept as the kernel arrays (w, x*^T, g) and its
    raw terms and norm; terms, renormalized, is built from them on read."""

    __slots__ = ("_raw", "_norm_sq", "_arrays")

    def __init__(self, terms):
        _normalize(self, *_superposition(terms, self._MODES))

    def _read_terms(self):
        return _tuples(self._raw.tolist(), self._norm_sq.tolist())


class CoherentSuperposition(_Superposition, SingleModeState):
    """Pure superposition sum_k c_k |xi_k>, renormalized at construction."""

    __slots__ = ()
    _MODES = 1

    def _ordered(self, a, s):
        return _coherent_sum(self._arrays, a[..., None], s)


@dataclass(frozen=True)
class FockState(SingleModeState):
    """Number state |n>; chi_N is the Laguerre polynomial L_n(|alpha|^2)."""

    n: int

    def __post_init__(self):  # an np.int64 and the like as an int
        object.__setattr__(self, "n", _check_count(self.n, "Fock index"))

    def _ordered(self, a, s):
        x, k = abs(a) ** 2, (1 - s) / 2
        p, e = _laguerre(self.n, x)
        if isinstance(e, int):  # unscaled: no step overflowed
            return p if s == 1 else p * np.exp(-k * x)  # chi_N: L_n alone
        with np.errstate(over="ignore", invalid="ignore"):
            if k:  # e^{-kx} meets 2^e before either leaves the float range
                p = np.where(x > LAGUERRE_SAFE, p * np.exp(e * LN2 - k * x),
                             np.ldexp(p, e) * np.exp(-k * x))
                # 0 where |chi| <= (1 + x)^n e^{-kx} rounds to 0, as at inf
                p = np.where(self.n * np.log1p(x) <= k * x - 746.0, 0.0, p)
            else:
                p = np.ldexp(p, e)
        if not np.isfinite(p).all():
            raise OverflowError("math range error")
        return p


@dataclass(frozen=True)
class ThermalState(SingleModeState):
    """Thermal state with mean occupation n_th; guaranteed-classical control,
    chi_N = exp(-n_th |alpha|^2)."""

    n_th: float

    def __post_init__(self):
        object.__setattr__(self, "n_th", _check_rate(self.n_th, "n_th"))

    def _ordered(self, a, s):
        return _gauss(self.n_th + (1 - s) / 2, abs(a) ** 2)


class _Mixture:
    """Convex mixture of states of its mode count, chi linear in them."""

    def __post_init__(self):
        mode = TwoModeState if isinstance(self, TwoModeState) else SingleModeState
        if not self.components:
            raise ValueError("mixture needs at least one component")
        for w, c in self.components:  # NaN fails w >= 0 too
            if not isinstance(c, (SingleModeState, TwoModeState)):
                raise ValueError("mixture components must be states, "
                                 f"got {type(c).__name__}")
            if not isinstance(c, mode):
                raise ValueError("mixture mixes single- and two-mode components")
            if np.asarray(w).dtype.kind not in "iuf" or np.ndim(w) or not w >= 0:
                raise ValueError(f"mixture weights must be non-negative, got {w!r}")
        components = tuple((float(w), c) for w, c in self.components)
        if abs((total := sum(w for w, _ in components)) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", components)

    def _ordered(self, a, s):
        return sum(w * c._ordered(a, s) for w, c in self.components)


@dataclass(frozen=True)
class Mixture(_Mixture, SingleModeState):
    """Convex mixture of single-mode states."""

    components: tuple[tuple[float, SingleModeState], ...]


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
        _check_single_mode(self, self.inner)
        for name in ("gamma_t", "n_th"):
            object.__setattr__(self, name, _check_rate(getattr(self, name), name))

    def _ordered(self, a, s):
        loss, shrink = -np.expm1(-self.gamma_t), np.exp(-self.gamma_t / 2.0)
        g = _gauss((self.n_th + (1 - s) / 2) * loss, abs(a) ** 2)
        # a 0-d a times shrink is a numpy scalar, whose abs rounds unlike
        # the array loop's; the wrapped state gets an array, as from chi
        return g * self.inner._ordered(np.asarray(a * shrink), s)


def _check_count(value, name: str) -> int:
    ok = not isinstance(value, bool) and hasattr(value, "__index__")
    if not ok or (n := operator.index(value)) < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value}")
    return n


def _check_single_mode(owner, component):
    if not isinstance(component, SingleModeState):
        raise ValueError(f"{type(owner).__name__} takes single-mode states, "
                         f"got {type(component).__name__}")


def _check_rate(value, name: str):
    """value, a real number or an array, as float(s), finite and >= 0; the
    first offending element is named. A bool or str is refused."""
    if np.asarray(value).dtype.kind not in "iuf":
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    value = np.array(value, dtype=float)  # a copy of an array
    bad = ~((value >= 0) & (value < math.inf))  # NaN fails both
    if bad.any():
        raise ValueError(f"{name} must be >= 0, got {float(value[bad][0])}")
    return value if value.ndim else float(value)


class PairSuperposition(_Superposition, TwoModeState):
    """Pure two-mode superposition sum_k c_k |xi_k, zeta_k>, renormalized."""

    __slots__ = ()
    _MODES = 2

    def _ordered(self, a, s):
        return _coherent_sum(self._arrays, a, s)


@dataclass(frozen=True)
class ProductState(TwoModeState):
    """Uncorrelated two-mode state rho_left x rho_right."""

    left: SingleModeState
    right: SingleModeState

    def __post_init__(self):
        _check_single_mode(self, self.left)
        _check_single_mode(self, self.right)

    def _ordered(self, a, s):
        return self.left._ordered(a[..., 0], s) * self.right._ordered(a[..., 1], s)


@dataclass(frozen=True)
class TwoModeMixture(_Mixture, TwoModeState):
    """Convex mixture of two-mode states."""

    components: tuple[tuple[float, TwoModeState], ...]


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
    """Two-mode superposition (|xi0,xi0> + sign |-xi0,-xi0>), normalized;
    an array xi0 gives a stack of them (see _coherent_sum)."""
    stack = getattr(xi0, "ndim", 0)  # an array as points, a scalar as a parameter
    xi0 = (_check_points if stack else _check_scalar)(xi0, "xi0")
    if getattr(xi0, "size", 1) == 0:
        raise ValueError(f"xi0 is empty, shape {xi0.shape}")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    norm_sq = 2.0 + 2.0 * sign * np.exp(-4.0 * abs(xi0) ** 2)
    if sign < 0 and np.count_nonzero(norm_sq < DEGENERATE_NORM):
        raise ValueError("entangled cat state vanishes for sign=-1 at xi0=0")
    if not stack:  # the terms as Python numbers, not numpy scalars
        scale = 1.0 / math.sqrt(norm_sq)
        return PairSuperposition(((scale, xi0, xi0), (sign * scale, -xi0, -xi0)))
    scale = 1.0 / np.sqrt(norm_sq)
    t = np.array([[scale, xi0, xi0], [sign * scale, -xi0, -xi0]])
    return PairSuperposition(t.transpose(*range(2, t.ndim), 0, 1))


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
    # a stack nests its terms deeper, or decoheres for an array of times
    stack = (np.shape(getattr(state, "terms", ()))[:-2]
             or np.shape(getattr(state, "gamma_t", 0.0)))
    if stack:
        raise ValueError(f"a stack of {math.prod(stack)} states has no "
                         "single JSON form; take one member")
    if isinstance(state, CoherentSuperposition):
        return {"kind": "coherent_superposition",
                "terms": [{"coeff": _c2j(c), "amplitude": _c2j(xi)}
                          for c, xi in state.terms]}
    if isinstance(state, FockState):
        return {"kind": "fock", "n": state.n}
    if isinstance(state, ThermalState):
        return {"kind": "thermal", "n_th": state.n_th}
    if isinstance(state, _Mixture):
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
        two = components and isinstance(components[0][1], TwoModeState)
        return (TwoModeMixture if two else Mixture)(components)
    raise ValueError(f"unknown state kind {kind!r}")

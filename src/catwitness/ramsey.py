"""Qubit-probe protocols: Ramsey measurements, conditional state preparation,
characteristic-function reconstruction and the qubit-pair moment channel.

The rotating frame is used throughout: the free resonator evolution and the
geometric phase commute out of every expectation value, so a measurement is
specified by the total phase phi and the effective displacement alpha alone.
:func:`displacement_amplitude` and :func:`geometric_phase` map physical
coupling parameters onto those two numbers when needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .entanglement import _gram, min_eigenvalue
from .states import (
    CoherentSuperposition,
    Mixture,
    PairSuperposition,
    SingleModeState,
    TwoModeState,
    _check_scalar,
    _from_arrays,
    _superposition,
)

PSD_TOL = 1e-10
ZERO_PROB = 1e-14


@dataclass(frozen=True)
class RamseySetting:
    """One Ramsey measurement: total phase phi and effective displacement."""

    phi: float
    alpha: complex

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "alpha", _check_scalar(self.alpha))


@dataclass(frozen=True)
class CouplingParams:
    """Dispersive coupling lambda, mechanical frequency omega, interaction
    time tau (omega sets the time unit)."""

    lam: float
    omega: float
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lam must be > 0")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError("omega must be > 0")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError("tau must be >= 0")


def displacement_amplitude(p: CouplingParams) -> complex:
    """Effective displacement alpha = (lam/omega) (e^{-i omega tau} - 1)."""
    return (p.lam / p.omega) * (cmath.exp(-1j * p.omega * p.tau) - 1.0)


def geometric_phase(p: CouplingParams) -> float:
    """Geometric phase phi_g = (lam/omega)^2 (omega tau - sin omega tau)."""
    wt = p.omega * p.tau
    return (p.lam / p.omega) ** 2 * (wt - math.sin(wt))


def _probabilities(phi: float, chi: complex) -> tuple[float, float]:
    """(p_plus, p_minus) where chi(alpha) = chi, with Re{e^{i phi} chi}
    clipped to [-1, 1]."""
    z = min(1.0, max(-1.0, (cmath.exp(1j * phi) * chi).real))
    p_plus = (1.0 + z) / 2.0
    return p_plus, 1.0 - p_plus


def outcome_probabilities(state: SingleModeState,
                          s: RamseySetting) -> tuple[float, float]:
    """(p_plus, p_minus) = (1 +- Re{e^{i phi} chi(alpha)}) / 2."""
    return _probabilities(s.phi, state.chi(s.alpha))


def modular_expectation(state: SingleModeState, s: RamseySetting) -> float:
    """<Z>(phi, alpha) = p_plus - p_minus = Re{e^{i phi} chi(alpha)}."""
    p_plus, p_minus = outcome_probabilities(state, s)
    return p_plus - p_minus


def chi_from_measurements(state: SingleModeState, alpha: complex) -> complex:
    """Reconstruct chi(alpha) from the modular expectations at phi = 0 and
    -pi/2, which share one chi call."""
    chi = state.chi(_check_scalar(alpha))
    re, im = (p_plus - p_minus for p_plus, p_minus in
              (_probabilities(0.0, chi), _probabilities(-math.pi / 2.0, chi)))
    return complex(re, im)


def _displaced(terms, alpha: complex):
    """The terms of D(alpha) sum_k c_k |xi_k>, by
    D(alpha)|xi> = e^{i Im(alpha xi*)} |xi + alpha>."""
    return [(c * cmath.exp(1j * (alpha * xi.conjugate()).imag), xi + alpha)
            for c, xi in terms]


def _kraus(phi: float, phi0: float):
    """Mode operators <f|U_R|i> as (u, v) pairs meaning u*1 + v*D(alpha).

    Indexed [final][initial] with 0 = ground, 1 = excited, so that [0][0]
    is E_- and [1][0] is E_+. phi is the total phase of the Kraus
    operators; phi0 the first-pulse phase.
    """
    e_phi = cmath.exp(1j * phi)
    back = -cmath.exp(-1j * phi0)
    return (((0.5, -0.5 * e_phi), (0.5 * back, 0.5 * back * e_phi)),
            ((0.5, +0.5 * e_phi), (0.5 * back, -0.5 * back * e_phi)))


def _branch(cls, raw, outcome):
    """The normalized cls superposition of the raw terms of one outcome
    branch, and the branch probability, its squared norm."""
    modes = 1 if cls is CoherentSuperposition else 2
    arrays, prob = _superposition(raw, modes)
    if prob <= ZERO_PROB:
        raise ValueError(f"outcome {outcome} has probability {prob:g}")
    return _from_arrays(cls, arrays, prob), prob


def conditional_state(state: SingleModeState, s: RamseySetting,
                      outcome: int) -> tuple[SingleModeState, float]:
    """Post-measurement state and its probability for outcome +1 or -1.

    Supported for coherent superpositions and mixtures of them, the
    families closed under displacement; others raise TypeError.
    """
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if isinstance(state, CoherentSuperposition):
        u, v = _kraus(s.phi, 0.0)[(outcome + 1) // 2][0]
        raw = ([(u * c, xi) for c, xi in state.terms]
               + [(v * c, xi) for c, xi in _displaced(state.terms, s.alpha)])
        return _branch(CoherentSuperposition, raw, f"{outcome:+d}")
    if isinstance(state, Mixture):
        parts = []
        total = 0.0
        for w, component in state.components:
            sub, p = conditional_state(component, s, outcome)
            parts.append((w * p, sub))
            total += w * p
        if total <= ZERO_PROB:
            raise ValueError(f"outcome {outcome:+d} has probability {total:g}")
        return Mixture(tuple((wp / total, sub) for wp, sub in parts)), total
    raise TypeError(f"{type(state).__name__} is not closed under displacement; "
                    "conditional states are supported for coherent "
                    "superpositions and mixtures of them")


_U, _V = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])


def _correlations(state: TwoModeState, alpha: complex, beta: complex,
                  phi1, phi2):
    """<Z1 Z2> = <Q(phi1, alpha) x Q(phi2, beta)> at each phase pair of
    the arrays phi1, phi2, from one chi2 call at (u alpha, v beta), u and
    v = +-1."""
    chis = state.chi2(_U * _check_scalar(alpha), _V * _check_scalar(beta))
    phases = np.multiply.outer(phi1, _U) + np.multiply.outer(phi2, _V)
    return (np.exp(1j * phases) @ chis / 4.0).real


def two_qubit_correlation(state: TwoModeState, s1: RamseySetting,
                          s2: RamseySetting) -> float:
    """<Z1 Z2> = <Q(phi1, alpha) x Q(phi2, beta)>."""
    return float(_correlations(state, s1.alpha, s2.alpha, s1.phi, s2.phi))


def chi2_from_correlations(state: TwoModeState, alpha: complex,
                           beta: complex) -> complex:
    """Reconstruct chi(alpha, beta) from the four two-qubit correlations at
    phases 0 and -pi/2 per qubit, which share one chi2 call."""
    h = -math.pi / 2.0
    zz, hh, zh, hz = _correlations(state, alpha, beta, np.array([0, h, 0, h]),
                                   np.array([0, h, h, 0]))
    return complex(zz - hh, zh + hz)


# ---------------------------------------------------------------------------
# Two-mode conditional preparation
# ---------------------------------------------------------------------------

def prepare_conditional(psi: CoherentSuperposition, Theta: float, phi0: float,
                        s: RamseySetting, outcome: tuple[int, int],
                        bell: str = "phi_plus") -> tuple[PairSuperposition, float]:
    """Project both modes (each prepared in psi) after simultaneous Ramsey
    sequences with the qubits initially Bell-entangled.

    bell="phi_plus" uses (|gg> + e^{i Theta}|ee>)/sqrt(2) and, for
    Theta = 2 phi0 and outcome (-1, -1), yields the state
    proportional to [1 x 1 + e^{2 i phi} D(alpha) x D(alpha)] |psi, psi>.
    bell="psi_minus" uses (|ge> - e^{2 i phi0}|eg>)/sqrt(2), producing the
    [1 x D(alpha) -+ D(alpha) x 1] branch family.
    """
    if not isinstance(psi, CoherentSuperposition):
        raise TypeError("psi must be a CoherentSuperposition")
    if outcome[0] not in (+1, -1) or outcome[1] not in (+1, -1):
        raise ValueError(f"outcome must be a pair of +-1, got {outcome}")
    for name, value in (("Theta", Theta), ("phi0", phi0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if bell == "phi_plus":
        qubit = {(0, 0): 1.0 / math.sqrt(2),
                 (1, 1): cmath.exp(1j * Theta) / math.sqrt(2)}
    elif bell == "psi_minus":
        qubit = {(0, 1): 1.0 / math.sqrt(2),
                 (1, 0): -cmath.exp(2j * phi0) / math.sqrt(2)}
    else:
        raise ValueError(f"unknown bell variant {bell!r}")

    kraus = _kraus(s.phi, phi0)
    k1, k2 = (kraus[(f + 1) // 2] for f in outcome)
    # branch operator sum over qubit basis components, expanded in the
    # four displacement patterns (d1, d2) with d = 0 or 1 copies of D(alpha)
    coeffs = {(d1, d2): sum(amp * k1[i1][d1] * k2[i2][d2]
                            for (i1, i2), amp in qubit.items())
              for d1 in (0, 1) for d2 in (0, 1)}

    # per mode, the terms of psi under d = 0 or 1 copies of D(alpha)
    per_mode = (psi.terms, _displaced(psi.terms, s.alpha))
    raw = [(c * c_k * c_m, a1, a2) for (d1, d2), c in coeffs.items() if c != 0
           for c_k, a1 in per_mode[d1] for c_m, a2 in per_mode[d2]]
    return _branch(PairSuperposition, raw, outcome)


# ---------------------------------------------------------------------------
# Qubit-pair moment channel (the no-go structure)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitPairState:
    """4x4 density matrix of two qubits in the {gg, ge, eg, ee} basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {m.shape}")
        if abs(np.trace(m).real - 1.0) > PSD_TOL:
            raise ValueError(f"trace is {np.trace(m).real!r}, expected 1")
        if min_eigenvalue(m) < -PSD_TOL:
            raise ValueError("matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", m)


def moments4(state: TwoModeState, alpha: complex, beta: complex) -> np.ndarray:
    """Gram matrix <V_a^dag V_b> of V in {1x1, 1xD(beta), D(alpha)x1,
    D(alpha)xD(beta)}, ordered (gg, ge, eg, ee)."""
    return _gram(state.chi2, (0j, _check_scalar(alpha)),
                 (0j, _check_scalar(beta)))


def qubit_channel(rho: QubitPairState, m: np.ndarray) -> QubitPairState:
    """Reduced two-qubit state after dispersive coupling: rho (.) M^T."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"moments matrix must be 4x4, got {m.shape}")
    if np.max(np.abs(np.diag(m) - 1.0)) > PSD_TOL:
        raise ValueError("moments matrix diagonal must be all ones")
    if min_eigenvalue(m) < -PSD_TOL:
        raise ValueError("moments matrix is not positive semidefinite")
    return QubitPairState(rho.matrix * m.T)


def sample_outcomes(state: SingleModeState, s: RamseySetting, shots: int,
                    seed: int) -> dict[str, int]:
    """Seeded binomial sampling of Ramsey outcomes at finite shot count."""
    if shots < 0:
        raise ValueError("shots must be >= 0")
    p_plus, _ = outcome_probabilities(state, s)
    rng = np.random.default_rng(seed)
    n_plus = int(rng.binomial(shots, p_plus))
    return {"plus": n_plus, "minus": shots - n_plus}

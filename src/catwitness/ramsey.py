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
    _check_finite,
    _coherent_sum,
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
        object.__setattr__(self, "alpha", _check_finite(self.alpha))


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


def outcome_probabilities(state: SingleModeState,
                          s: RamseySetting) -> tuple[float, float]:
    """(p_plus, p_minus) = (1 +- Re{e^{i phi} chi(alpha)}) / 2."""
    z = (cmath.exp(1j * s.phi) * state.chi(s.alpha)).real
    z = min(1.0, max(-1.0, z))
    p_plus = (1.0 + z) / 2.0
    return p_plus, 1.0 - p_plus


def modular_expectation(state: SingleModeState, s: RamseySetting) -> float:
    """<Z>(phi, alpha) = p_plus - p_minus = Re{e^{i phi} chi(alpha)}."""
    p_plus, p_minus = outcome_probabilities(state, s)
    return p_plus - p_minus


def chi_from_measurements(state: SingleModeState, alpha: complex) -> complex:
    """Reconstruct chi(alpha) from two modular-variable measurements."""
    re = modular_expectation(state, RamseySetting(0.0, alpha))
    im = modular_expectation(state, RamseySetting(-math.pi / 2.0, alpha))
    return complex(re, im)


def _kraus_terms(terms, sign: int, phi: float, alpha: complex):
    """Unnormalized coherent-superposition image under E_sign(phi, alpha)."""
    out = [(0.5 * c, xi) for c, xi in terms]
    phase = 0.5 * sign * cmath.exp(1j * phi)
    out += [(phase * c * cmath.exp(1j * (alpha * xi.conjugate()).imag),
             xi + alpha) for c, xi in terms]
    return out


def conditional_state(state: SingleModeState, s: RamseySetting,
                      outcome: int) -> tuple[SingleModeState, float]:
    """Post-measurement state and its probability for outcome +1 or -1.

    Supported for coherent superpositions and mixtures of them, the
    families closed under displacement; others raise TypeError.
    """
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if isinstance(state, CoherentSuperposition):
        raw = _kraus_terms(state.terms, outcome, s.phi, s.alpha)
        prob = _coherent_sum(raw, (0j,)).real
        if prob <= ZERO_PROB:
            raise ValueError(f"outcome {outcome:+d} has probability {prob:g}")
        return CoherentSuperposition(tuple(raw)), prob
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


def two_qubit_correlation(state: TwoModeState, s1: RamseySetting,
                          s2: RamseySetting) -> float:
    """<Z1 Z2> = <Q(phi1, alpha) x Q(phi2, beta)>."""
    total = 0.0 + 0.0j
    for u in (+1, -1):
        for v in (+1, -1):
            total += (cmath.exp(1j * (u * s1.phi + v * s2.phi))
                      * state.chi2(u * s1.alpha, v * s2.alpha))
    return (total / 4.0).real


def chi2_from_correlations(state: TwoModeState, alpha: complex,
                           beta: complex) -> complex:
    """Reconstruct chi(alpha, beta) from four two-qubit correlations."""
    half_pi = math.pi / 2.0
    re = (two_qubit_correlation(state, RamseySetting(0.0, alpha),
                                RamseySetting(0.0, beta))
          - two_qubit_correlation(state, RamseySetting(-half_pi, alpha),
                                  RamseySetting(-half_pi, beta)))
    im = (two_qubit_correlation(state, RamseySetting(0.0, alpha),
                                RamseySetting(-half_pi, beta))
          + two_qubit_correlation(state, RamseySetting(-half_pi, alpha),
                                  RamseySetting(0.0, beta)))
    return complex(re, im)


# ---------------------------------------------------------------------------
# Two-mode conditional preparation
# ---------------------------------------------------------------------------

def _single_qubit_kraus(phi: float, phi0: float):
    """Mode operators <f|U_R|i> as (u, v) pairs meaning u*1 + v*D(alpha).

    Indexed [final][initial] with 0 = ground, 1 = excited. phi is the total
    phase of the Kraus operators; phi0 the first-pulse phase.
    """
    e_phi = cmath.exp(1j * phi)
    back = -cmath.exp(-1j * phi0)
    return {
        (0, 0): (0.5, -0.5 * e_phi),            # E_-
        (1, 0): (0.5, +0.5 * e_phi),            # E_+
        (0, 1): (0.5 * back, 0.5 * back * e_phi),
        (1, 1): (0.5 * back, -0.5 * back * e_phi),
    }


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
    if bell == "phi_plus":
        qubit = {(0, 0): 1.0 / math.sqrt(2),
                 (1, 1): cmath.exp(1j * Theta) / math.sqrt(2)}
    elif bell == "psi_minus":
        qubit = {(0, 1): 1.0 / math.sqrt(2),
                 (1, 0): -cmath.exp(2j * phi0) / math.sqrt(2)}
    else:
        raise ValueError(f"unknown bell variant {bell!r}")

    kraus = _single_qubit_kraus(s.phi, phi0)
    f1 = 0 if outcome[0] == -1 else 1
    f2 = 0 if outcome[1] == -1 else 1
    # branch operator sum over qubit basis components, expanded in the
    # four displacement patterns (d1, d2) with d = 0 or 1 copies of D(alpha)
    coeffs = {(0, 0): 0j, (0, 1): 0j, (1, 0): 0j, (1, 1): 0j}
    for (i1, i2), amp in qubit.items():
        u1, v1 = kraus[(f1, i1)]
        u2, v2 = kraus[(f2, i2)]
        coeffs[(0, 0)] += amp * u1 * u2
        coeffs[(0, 1)] += amp * u1 * v2
        coeffs[(1, 0)] += amp * v1 * u2
        coeffs[(1, 1)] += amp * v1 * v2

    alpha = s.alpha
    raw = []
    for (d1, d2), c in coeffs.items():
        if c == 0:
            continue
        for c_k, xi_k in psi.terms:
            for c_m, xi_m in psi.terms:
                coeff = c * c_k * c_m
                a1, a2 = xi_k, xi_m
                if d1:
                    coeff *= cmath.exp(1j * (alpha * a1.conjugate()).imag)
                    a1 = a1 + alpha
                if d2:
                    coeff *= cmath.exp(1j * (alpha * a2.conjugate()).imag)
                    a2 = a2 + alpha
                raw.append((coeff, a1, a2))

    prob = _coherent_sum(raw, (0j, 0j)).real
    if prob <= ZERO_PROB:
        raise ValueError(f"outcome {outcome} has probability {prob:g}")
    return PairSuperposition(tuple(raw)), prob


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
    return _gram(state.chi2, (0j, _check_finite(alpha)),
                 (0j, _check_finite(beta)))


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

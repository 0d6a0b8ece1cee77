"""Two-mode entanglement certification.

Builds the 9x9 matrix of moments over the operator set
{1, D(alpha_1), D(alpha_2)} x {1, D(beta_1), D(beta_2)}, applies the
partial transpose on the first mode's indices, and extracts minimal
eigenvalues and witness operators. A negative eigenvalue of the partially
transposed matrix certifies entanglement; an eigenvector belonging to it
yields a linear witness that needs only eight independent correlations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .nonclassicality import _hermitian, _triu, min_eigenvalue
from .states import TwoModeState, _check_points, _check_scalar

IMAG_TOL = 1e-10
COEFF_PRUNE = 1e-14


class Word(NamedTuple):
    """phase * D(amp1) x D(amp2); plain data, validated where a witness
    is built."""

    phase: complex
    amp1: complex
    amp2: complex


class Settings(NamedTuple):
    """The four displacement settings of the 9x9 moment matrix."""

    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex


def standard_settings(xi0: float, eps: float) -> Settings:
    """Settings tuned to the entangled cat of size xi0:
    alpha_1 = 2 xi0, alpha_2 = i eps / (2 xi0), beta = -alpha.

    eps is the relative phase that D(alpha_2) puts between the branches in
    the ket convention D(alpha)|xi> = e^{i Im(alpha xi*)} |xi + alpha>:
    e^{+i eps/2} on |xi0>, e^{-i eps/2} on |-xi0>, so the two branches'
    <D(alpha_2)> differ in phase by 2 eps. D(alpha_2) acts as that phase
    gate only while |alpha_2| = eps / (2 xi0) is small next to the
    coherent-state width, |alpha_2| <~ 1/2; outside that regime its
    moments are damped by exp(-|alpha_2|^2 / 2) and PPT detection of the
    cat is not promised.
    """
    if not xi0 > 0:
        raise ValueError(f"xi0 must be > 0, got {xi0}")
    a1 = complex(2.0 * xi0)
    a2 = 1j * eps / (2.0 * xi0)
    return Settings(a1, a2, -a1, -a2)


def _gram_words(mode1, mode2):
    """(phase, u, v) arrays with V_a^dag V_b = phase D(u) x D(v) for the
    word pairs a < b in np.triu_indices order, over the words
    V = D(x) x D(y), x in mode1 and y in mode2, word index
    a = len(mode2) i + j. Mode entries may be arrays of one broadcast
    shape, which then leads the returned arrays."""
    n1, n2 = len(mode1), len(mode2)
    amps = np.empty(np.broadcast(*mode1, *mode2).shape + (n1 + n2,), complex)
    for i, w in enumerate((*mode1, *mode2)):
        amps[..., i] = w
    a, b, _ = _triu(n1 * n2)
    x_a, x_b = amps[..., a // n2], amps[..., b // n2]
    y_a, y_b = amps[..., n1 + a % n2], amps[..., n1 + b % n2]
    # D(-x_a) D(x_b) = e^{i Im(-x_a x_b*)} D(x_b - x_a), per mode
    phase = np.exp(1j * ((x_a.real * x_b.imag - x_a.imag * x_b.real)
                         + (y_a.real * y_b.imag - y_a.imag * y_b.real)))
    return phase, x_b - x_a, y_b - y_a


def _gram(chi2, mode1, mode2) -> np.ndarray:
    """Gram matrix <V_a^dag V_b> over the words of _gram_words, with one
    chi2(u, v) = <D(u) x D(v)> call over the upper triangle only."""
    phase, u, v = _gram_words(mode1, mode2)
    return _hermitian(phase * chi2(u, v), len(mode1) * len(mode2))


def _modes(settings: Settings):
    return ((0j, settings.alpha1, settings.alpha2),
            (0j, settings.beta1, settings.beta2))


def moments9(state: TwoModeState, settings: Settings) -> np.ndarray:
    """The 9x9 moment matrix M_ab = <(V_a)^dag V_b> via chi2, Hermitian
    with unit diagonal. Basis index (i, j) -> 3 i + j with i over mode-1
    operators {1, D(alpha_1), D(alpha_2)} and j over mode-2
    {1, D(beta_1), D(beta_2)}. Settings with array fields give a
    (..., 9, 9) stack, one matrix per point of their broadcast shape."""
    return _gram(state.chi2, *_modes(settings))


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the mode-1 indices: [M^G]_(i,j),(k,l) = M_(k,j),(i,l),
    on a 9x9 matrix or each matrix of a (..., 9, 9) stack."""
    m = np.asarray(m)
    if m.shape[-2:] != (9, 9):
        raise ValueError(f"expected a 9x9 matrix, got {m.shape}")
    lead = m.shape[:-2]
    return m.reshape(lead + (3, 3, 3, 3)).swapaxes(-4, -2).reshape(m.shape)


def ppt_min_eig(state: TwoModeState, settings: Settings) -> float:
    """Minimal eigenvalue of the partially transposed moment matrix;
    a negative value certifies entanglement (an array for array Settings)."""
    return min_eigenvalue(partial_transpose(moments9(state, settings)))


def canonical_eta(w: float) -> np.ndarray:
    """The empirical minimal eigenvector of M^G for large cat states:
    [w, 0, -iw, 0, -sqrt(1-4w^2), 0, iw, 0, w], unit norm."""
    if not 0.0 < w <= 0.5:
        raise ValueError(f"w must be in (0, 1/2], got {w}")
    mid = -math.sqrt(1.0 - 4.0 * w * w)
    return np.array([w, 0.0, -1j * w, 0.0, mid, 0.0, 1j * w, 0.0, w],
                    dtype=complex)


@dataclass(frozen=True)
class WitnessDescriptor:
    """Finite sum of coefficient-weighted displacement words whose
    expectation is real on every two-mode state."""

    terms: tuple[tuple[complex, Word], ...]

    def to_json(self) -> list[dict]:
        return [{"coeff": [c.real, c.imag],
                 "phase": [word.phase.real, word.phase.imag],
                 "amp1": [word.amp1.real, word.amp1.imag],
                 "amp2": [word.amp2.real, word.amp2.imag]}
                for c, word in self.terms]


def _reduce_terms(raw) -> WitnessDescriptor:
    """Merge the (coeff, amp1, amp2) terms of equal displacement, prune
    vanishing ones and sort canonically."""
    acc = {}
    for coeff, amp1, amp2 in raw:
        key = (amp1.real, amp1.imag, amp2.real, amp2.imag)
        acc[key] = acc.get(key, 0j) + coeff
    terms = tuple(
        (acc[key], Word(1 + 0j, complex(key[0], key[1]),
                        complex(key[2], key[3])))
        for key in sorted(acc) if abs(acc[key]) > COEFF_PRUNE)
    return WitnessDescriptor(terms)


def witness_from_eta(eta: np.ndarray, settings: Settings) -> WitnessDescriptor:
    """Witness W with <W> = tr{eta eta^dag M^G(rho)} for every state rho."""
    eta = np.asarray(eta, dtype=complex)
    if eta.shape != (9,):
        raise ValueError(f"eta must be a 9-vector, got shape {eta.shape}")
    _check_points(eta, "eta")
    for name, value in settings._asdict().items():
        _check_scalar(value, f"settings.{name}")
    if not abs(np.linalg.norm(eta) - 1.0) <= IMAG_TOL:
        raise ValueError(f"eta must have unit norm, got {np.linalg.norm(eta)!r}")
    # eta^dag M^G eta = tr{M Q} with Q = (eta eta^dag)^G, as the partial
    # transpose is self-adjoint under the trace; M_cc = 1, and as M and Q
    # are Hermitian each word pair c < d adds Q_dc M_cd and its conjugate
    q = partial_transpose(np.outer(eta, eta.conj()))
    c, d, _ = _triu(9)
    phase, u, v = _gram_words(*_modes(settings))
    raw = [(sum(np.diag(q).tolist()), 0j, 0j)]
    for coeff, x, y in zip((q[d, c] * phase).tolist(), u.tolist(), v.tolist()):
        raw += [(coeff, x, y), (coeff.conjugate(), -x, -y)]
    return _reduce_terms(raw)


def witness_expectation(state: TwoModeState, wd: WitnessDescriptor) -> float:
    """<W> on the state, one chi2 call; the imaginary residue must vanish."""
    t = np.array([(c, w.phase, w.amp1, w.amp2) for c, w in wd.terms],
                 dtype=complex).reshape(-1, 4)
    total = complex(np.sum(t[:, 0] * (t[:, 1] * state.chi2(t[:, 2], t[:, 3]))))
    if abs(total.imag) > IMAG_TOL:
        raise ArithmeticError(
            f"witness expectation has imaginary residue {total.imag:g}")
    return total.real


def paper_witness(xi0: float, eps: float, w: float) -> WitnessDescriptor:
    """The explicit eight-correlation witness at the standard settings.

    Built from the three measurement settings s1 = 2 xi0,
    s2 = i eps / (2 xi0), s3 = s2 - s1; agrees with
    witness_from_eta(canonical_eta(w), standard_settings(xi0, eps)) as an
    operator.
    """
    _check_scalar(xi0, "xi0")
    _check_scalar(eps, "eps")
    settings = standard_settings(xi0, eps)
    if not 0.0 < w <= 0.5:
        raise ValueError(f"w must be in (0, 1/2], got {w}")
    s1, s2 = settings.alpha1, settings.alpha2
    s3 = s2 - s1
    u = math.sqrt(1.0 - 4.0 * w * w)
    w2 = w * w
    raw = [(1.0 + 0j, 0j, 0j)]
    # w^2 [D(s2) - D(-s2)] x [D(s2) - D(-s2)]
    for sa, siga in ((s2, 1), (-s2, -1)):
        for sb, sigb in ((s2, 1), (-s2, -1)):
            raw.append((w2 * siga * sigb, sa, sb))
    # 2i w^2 (1 x [D(s2) - D(-s2)] - [D(s2) - D(-s2)] x 1); the sign of this
    # group is fixed by the operator equivalence with witness_from_eta
    for sa, siga in ((s2, 1), (-s2, -1)):
        raw.append((-2j * w2 * siga, sa, 0j))
        raw.append((2j * w2 * siga, 0j, sa))
    # -w sqrt(1-4w^2) { diagonal s1/s3 correlations ... }
    g = -w * u
    for sa in (s1, -s1, s3, -s3):
        raw.append((g + 0j, sa, sa))
    # cross correlations; the e^{+-i eps} pairing is fixed by the operator
    # equivalence with witness_from_eta
    ph = cmath.exp(-1j * eps)
    raw.append((g * 1j * ph, -s1, s3))
    raw.append((g * 1j * ph, -s3, s1))
    raw.append((g * -1j * ph.conjugate(), s1, -s3))
    raw.append((g * -1j * ph.conjugate(), s3, -s1))
    return _reduce_terms(raw)

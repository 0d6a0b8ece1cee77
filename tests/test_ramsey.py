import cmath
import math

import numpy as np
import pytest

from catwitness import (
    VACUUM,
    CoherentSuperposition,
    CouplingParams,
    FockState,
    Mixture,
    QubitPairState,
    RamseySetting,
    cat_state,
    chi2_from_correlations,
    chi_from_measurements,
    conditional_state,
    displacement_amplitude,
    entangled_cat,
    geometric_phase,
    modular_expectation,
    moments4,
    outcome_probabilities,
    prepare_conditional,
    qubit_channel,
    sample_outcomes,
    two_qubit_correlation,
)
from catwitness.entanglement import Settings, moments9
from catwitness.states import ProductState

VAC1 = CoherentSuperposition(((1.0, 0.0),))


def test_displacement_amplitude_closed_loop():
    # a full mechanical period closes the loop: alpha = 0, phi_g = 2 pi (lam/omega)^2
    p = CouplingParams(lam=0.5, omega=1.0, tau=2 * math.pi)
    assert abs(displacement_amplitude(p)) < 1e-12
    assert geometric_phase(p) == pytest.approx(2 * math.pi * 0.25, abs=1e-12)
    # half period gives the maximal excursion 2 lam / omega
    half = CouplingParams(lam=0.5, omega=1.0, tau=math.pi)
    assert displacement_amplitude(half) == pytest.approx(-1.0, abs=1e-12)


def test_outcome_probabilities_vacuum():
    # chi_vac(alpha) = e^{-|alpha|^2/2}
    p_plus, p_minus = outcome_probabilities(VACUUM, RamseySetting(0.0, 2.0))
    assert p_plus == pytest.approx((1 + math.exp(-2.0)) / 2, abs=1e-12)
    assert p_plus + p_minus == 1.0
    # phase pi flips the outcomes
    q_plus, q_minus = outcome_probabilities(VACUUM, RamseySetting(math.pi, 2.0))
    assert q_plus == pytest.approx(p_minus, abs=1e-12)


def test_modular_expectation_is_re_chi():
    state = cat_state(1.5, 0.4)
    rng = np.random.default_rng(31)
    for _ in range(10):
        phi = float(rng.uniform(-math.pi, math.pi))
        a = complex(*rng.standard_normal(2))
        want = (cmath.exp(1j * phi) * state.chi(a)).real
        assert modular_expectation(state, RamseySetting(phi, a)) == \
            pytest.approx(want, abs=1e-12)


def test_chi_from_measurements_reconstructs_chi():
    states = [cat_state(2.0, 0.0), FockState(2),
              Mixture(((0.4, VACUUM), (0.6, FockState(1))))]
    rng = np.random.default_rng(32)
    for state in states:
        for _ in range(10):
            a = complex(*rng.standard_normal(2))
            assert chi_from_measurements(state, a) == pytest.approx(
                state.chi(a), abs=1e-12)


def test_conditional_state_probabilities_sum():
    state = cat_state(1.0, 0.0)
    s = RamseySetting(0.3, 0.8 - 0.2j)
    _, p_plus = conditional_state(state, s, +1)
    _, p_minus = conditional_state(state, s, -1)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
    assert p_plus == pytest.approx(outcome_probabilities(state, s)[0], abs=1e-12)


def test_conditional_state_of_vacuum_is_cat():
    # projecting the displaced branch of the vacuum produces a two-component cat
    s = RamseySetting(0.0, 1.5)
    out, prob = conditional_state(VAC1, s, +1)
    want = CoherentSuperposition(((0.5, 0.0), (0.5, 1.5)))
    for a in (0.3, 0.9j, 1.0 - 0.5j):
        assert out.chi(a) == pytest.approx(want.chi(a), abs=1e-12)
    assert prob == pytest.approx((1 + math.exp(-1.5 ** 2 / 2)) / 2, abs=1e-12)


def test_conditional_state_mixture_recurses():
    mix = Mixture(((0.5, VAC1), (0.5, cat_state(1.0, 0.0))))
    s = RamseySetting(0.1, 0.7)
    out, prob = conditional_state(mix, s, -1)
    assert isinstance(out, Mixture)
    assert prob == pytest.approx(outcome_probabilities(mix, s)[1], abs=1e-12)


def test_conditional_state_rejects_open_families():
    with pytest.raises(TypeError):
        conditional_state(FockState(1), RamseySetting(0.0, 1.0), +1)


def test_two_qubit_correlation_product_factorizes():
    from catwitness import ProductState, ThermalState
    left, right = cat_state(1.0, 0.0), ThermalState(0.5)
    state = ProductState(left, right)
    s1 = RamseySetting(0.2, 0.6)
    s2 = RamseySetting(-0.5, 0.4j)
    got = two_qubit_correlation(state, s1, s2)
    want = modular_expectation(left, s1) * modular_expectation(right, s2)
    assert got == pytest.approx(want, abs=1e-12)


def test_chi2_from_correlations_reconstructs():
    state = entangled_cat(1.2, +1)
    rng = np.random.default_rng(33)
    for _ in range(10):
        a = complex(*rng.standard_normal(2)) * 0.7
        b = complex(*rng.standard_normal(2)) * 0.7
        assert chi2_from_correlations(state, a, b) == pytest.approx(
            state.chi2(a, b), abs=1e-12)


def test_prepare_conditional_probability_mm():
    # joint minus-minus on two vacuum modes: [1 + Re{<D(alpha)>^2}] / 4,
    # frozen against the explicit Kraus-operator oracle
    s = RamseySetting(0.0, 1.0)
    _, prob = prepare_conditional(VAC1, 0.0, 0.0, s, (-1, -1))
    assert prob == pytest.approx((1 + math.exp(-1.0)) / 4, abs=1e-12)


def test_prepare_conditional_probabilities_sum():
    psi = cat_state(0.8, 0.0)
    s = RamseySetting(0.4, 1.1)
    total = 0.0
    for o1 in (+1, -1):
        for o2 in (+1, -1):
            _, p = prepare_conditional(psi, 0.7, 0.35, s, (o1, o2))
            total += p
    assert total == pytest.approx(1.0, abs=1e-12)


def test_prepare_conditional_makes_entangled_cat():
    # starting both modes in |-xi0> and displacing by 2 xi0 prepares the
    # symmetric two-mode superposition of |xi0, xi0> and |-xi0, -xi0>
    xi0 = 1.0
    psi = CoherentSuperposition(((1.0, -xi0),))
    s = RamseySetting(0.0, 2.0 * xi0)
    out, prob = prepare_conditional(psi, 0.0, 0.0, s, (-1, -1))
    want = entangled_cat(xi0, +1)
    rng = np.random.default_rng(34)
    for _ in range(8):
        a = complex(*rng.standard_normal(2)) * 0.8
        b = complex(*rng.standard_normal(2)) * 0.8
        assert out.chi2(a, b) == pytest.approx(want.chi2(a, b), abs=1e-10)


def test_prepare_conditional_bell_variants_differ():
    psi = VAC1
    s = RamseySetting(0.0, 1.0)
    plus, _ = prepare_conditional(psi, 0.0, 0.0, s, (-1, -1), bell="phi_plus")
    minus, _ = prepare_conditional(psi, 0.0, 0.0, s, (-1, -1), bell="psi_minus")
    assert abs(plus.chi2(0.5, 0.5) - minus.chi2(0.5, 0.5)) > 1e-3
    with pytest.raises(ValueError):
        prepare_conditional(psi, 0.0, 0.0, s, (-1, -1), bell="ghz")


def test_moments4_is_psd_gram():
    state = entangled_cat(1.0, +1)
    m = moments4(state, 0.8, -0.8)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.max(np.abs(np.diag(m) - 1.0)) < 1e-12
    assert np.min(np.linalg.eigvalsh(m)) > -1e-10


def test_moments4_is_the_moments9_block():
    # both Gram matrices come from one builder, so the 4x4 matrix is the
    # {1, D(alpha)} x {1, D(beta)} block of the 9x9 one, bit for bit
    a, a2, b, b2 = 0.8 + 0.1j, 0.3j, -0.7 + 0.2j, -0.25j
    pair, _ = prepare_conditional(cat_state(0.9, 0.4), 0.9, 0.2,
                                  RamseySetting(0.5, 0.6 + 0.3j), (-1, +1))
    assert len(pair.terms) == 16
    for state in (entangled_cat(1.0, +1), pair,
                  ProductState(cat_state(1.2, 0.5), VACUUM)):
        block = moments9(state, Settings(a, a2, b, b2))[
            np.ix_([0, 1, 3, 4], [0, 1, 3, 4])]
        assert np.array_equal(moments4(state, a, b), block)


def test_qubit_channel_identity_moments():
    # all-ones moment matrix (alpha = beta = 0) leaves the state untouched
    rho = QubitPairState(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    m = moments4(entangled_cat(1.0, +1), 0.0, 0.0)
    out = qubit_channel(rho, m)
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_qubit_channel_preserves_trace_and_hermiticity():
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    rho = QubitPairState(bell)
    m = moments4(entangled_cat(1.0, +1), 1.0, -1.0)
    out = qubit_channel(rho, m).matrix
    assert np.trace(out) == np.trace(rho.matrix)
    assert np.array_equal(out, out.conj().T)


def test_qubit_pair_state_validation():
    with pytest.raises(ValueError):
        QubitPairState(np.eye(4))  # trace 4
    bad = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        QubitPairState(bad)


def test_sample_outcomes_seeded():
    state = cat_state(1.0, 0.0)
    s = RamseySetting(0.0, 1.0)
    first = sample_outcomes(state, s, 10000, seed=42)
    second = sample_outcomes(state, s, 10000, seed=42)
    assert first == second
    assert first["plus"] + first["minus"] == 10000
    p_plus, _ = outcome_probabilities(state, s)
    assert abs(first["plus"] / 10000 - p_plus) < 0.02

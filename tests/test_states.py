import cmath
import math

import numpy as np
import pytest

from catwitness import (
    VACUUM,
    CoherentSuperposition,
    Decohered,
    FockState,
    Mixture,
    PairSuperposition,
    ProductState,
    ThermalState,
    TwoModeMixture,
    cat_state,
    chi,
    chi2,
    chi_normal,
    coherent_overlap,
    decohere,
    displaced_matrix_element,
    entangled_cat,
    state_from_json,
    state_to_json,
)


def test_coherent_overlap_basics():
    assert coherent_overlap(0.0, 0.0) == 1.0
    # |<xi|xi'>|^2 = exp(-|xi - xi'|^2)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        got = abs(coherent_overlap(a, b)) ** 2
        assert got == pytest.approx(math.exp(-abs(a - b) ** 2), abs=1e-12)


def test_displaced_matrix_element_reduces_to_overlap():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a, b, al = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert displaced_matrix_element(a, 0.0, b) == pytest.approx(
            coherent_overlap(a, b), abs=1e-12)
        # displacing the vacuum gives the coherent state |alpha>
        assert displaced_matrix_element(a, al, 0.0) == pytest.approx(
            coherent_overlap(a, al), abs=1e-12)


def test_chi_conjugation_symmetry():
    # chi(-alpha) = chi(alpha)* for any state
    states = [cat_state(1.5, 0.7), FockState(3), ThermalState(0.8),
              decohere(cat_state(1.0, 0.0), 0.3, 2.0)]
    rng = np.random.default_rng(13)
    for state in states:
        for _ in range(10):
            a = complex(*rng.standard_normal(2))
            assert state.chi(-a) == pytest.approx(
                state.chi(a).conjugate(), abs=1e-12)


def test_chi_at_origin_is_one():
    for state in [VACUUM, cat_state(2.0, 0.3), FockState(4),
                  ThermalState(2.5),
                  Mixture(((0.4, VACUUM), (0.6, FockState(1))))]:
        assert state.chi(0.0) == pytest.approx(1.0, abs=1e-12)
    for state in [entangled_cat(1.2, +1),
                  ProductState(VACUUM, ThermalState(1.0))]:
        assert state.chi2(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_vacuum_chi_is_gaussian():
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = complex(*rng.standard_normal(2))
        assert chi(VACUUM, a) == pytest.approx(
            math.exp(-abs(a) ** 2 / 2.0), abs=1e-12)
        assert chi_normal(VACUUM, a) == pytest.approx(1.0, abs=1e-12)


def test_fock_chi_normal_is_laguerre():
    # chi_N(|1>) = 1 - |alpha|^2, chi_N(|2>) = 1 - 2x + x^2/2
    a = 1.3
    x = a * a
    assert chi_normal(FockState(1), a) == pytest.approx(1 - x, abs=1e-12)
    assert chi_normal(FockState(2), a) == pytest.approx(
        1 - 2 * x + x * x / 2, abs=1e-12)
    assert chi_normal(FockState(2), 1.3) == pytest.approx(-0.95195, abs=1e-12)
    # chi of |1> vanishes exactly at |alpha| = 1
    assert chi(FockState(1), 1.0) == pytest.approx(0.0, abs=1e-15)



def test_chi_normal_stays_finite_where_chi_underflows():
    # at |alpha| = 40, e^{|alpha|^2/2} overflows although chi_N is small
    assert FockState(1).chi_normal(40) == -1599
    assert FockState(2).chi_normal(40j) == 1 - 2 * 1600 + 1600 ** 2 / 2
    assert ThermalState(0.0).chi_normal(40) == 1
    assert ThermalState(0.5).chi_normal(1.5) == pytest.approx(
        math.exp(-0.5 * 2.25), abs=1e-15)
    mix = Mixture(((0.25, FockState(1)), (0.75, ThermalState(0.0))))
    assert mix.chi_normal(40) == 0.25 * -1599 + 0.75
    with pytest.raises(OverflowError):
        cat_state(2.0, 0.0).chi_normal(40)

def test_coherent_state_chi():
    # single coherent state |xi>: chi(alpha) = e^{-|alpha|^2/2} e^{2i Im(alpha xi*)}
    xi = 0.8 - 0.5j
    state = CoherentSuperposition(((1.0, xi),))
    rng = np.random.default_rng(15)
    for _ in range(10):
        a = complex(*rng.standard_normal(2))
        want = cmath.exp(-abs(a) ** 2 / 2.0
                         + 2j * (a * xi.conjugate()).imag)
        assert state.chi(a) == pytest.approx(want, abs=1e-12)


def test_cat_state_normalization_and_chi():
    state = cat_state(2.0, 0.0)
    # construction renormalizes; the Gram norm of the stored terms is 1
    total = sum(c_k * c_l.conjugate() * coherent_overlap(xi_l, xi_k)
                for c_k, xi_k in state.terms
                for c_l, xi_l in state.terms)
    assert total.real == pytest.approx(1.0, abs=1e-12)
    # frozen against the truncated-Fock oracle
    assert chi(state, 2.0) == pytest.approx(0.5597491982622725, abs=1e-12)
    assert chi_normal(state, 2.0) == pytest.approx(4.136018227291387, abs=1e-11)


def test_cat_state_degenerate_rejected():
    with pytest.raises(ValueError):
        cat_state(0.0, math.pi)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        Mixture(((0.5, VACUUM), (0.6, FockState(1))))
    with pytest.raises(ValueError):
        Mixture(((-0.1, VACUUM), (1.1, FockState(1))))
    with pytest.raises(ValueError):
        Mixture(())


def test_thermal_state_has_classical_envelope():
    state = ThermalState(3.0)
    rng = np.random.default_rng(16)
    for _ in range(20):
        a = complex(*rng.standard_normal(2))
        assert abs(state.chi_normal(a)) <= 1.0 + 1e-12


def test_decohered_limits():
    base = cat_state(2.0, 0.0)
    # gamma_t = 0 is the identity channel
    same = decohere(base, 0.0, 5.0)
    assert same.chi(1.2 + 0.4j) == pytest.approx(base.chi(1.2 + 0.4j), abs=1e-12)
    # long-time limit with n_th = 0 is the vacuum
    late = decohere(base, 50.0, 0.0)
    a = 0.9 - 0.3j
    assert late.chi(a) == pytest.approx(VACUUM.chi(a), abs=1e-10)
    # frozen thermal-decay magnitude
    dec = decohere(base, 0.25, 10.0)
    assert abs(dec.chi_normal(2.0)) == pytest.approx(
        0.00041900257328541287, abs=1e-12)
    # one Gaussian exponent: no e^{|alpha|^2/2} overflow at large amplitude
    assert abs(decohere(base, 0.1, 0.0).chi(40.0)) < 1e-300


def test_decohered_composes():
    # two short steps equal one long step at the same n_th
    base = cat_state(1.5, 0.4)
    once = decohere(base, 0.7, 2.0)
    twice = decohere(decohere(base, 0.3, 2.0), 0.4, 2.0)
    a = 0.6 + 0.8j
    assert twice.chi(a) == pytest.approx(once.chi(a), abs=1e-12)


def test_entangled_cat_normalization():
    for sign in (+1, -1):
        state = entangled_cat(1.0, sign)
        assert state.chi2(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        entangled_cat(0.0, -1)
    # frozen spot value
    assert chi2(entangled_cat(1.5, +1), 0.5 + 0.25j, -0.3j) == pytest.approx(
        0.8086635919592806, abs=1e-12)


def test_product_state_factorizes():
    left = cat_state(1.0, 0.2)
    right = ThermalState(0.5)
    state = ProductState(left, right)
    a, b = 0.4 + 0.1j, -0.2 + 0.6j
    assert state.chi2(a, b) == pytest.approx(left.chi(a) * right.chi(b),
                                             abs=1e-12)


def test_two_mode_mixture_is_linear():
    s1 = entangled_cat(1.0, +1)
    s2 = ProductState(VACUUM, VACUUM)
    mix = TwoModeMixture(((0.3, s1), (0.7, s2)))
    a, b = 0.5, -0.25j
    want = 0.3 * s1.chi2(a, b) + 0.7 * s2.chi2(a, b)
    assert mix.chi2(a, b) == pytest.approx(want, abs=1e-12)


def test_pair_superposition_degenerate_rejected():
    with pytest.raises(ValueError):
        PairSuperposition(((1.0, 0.5, 0.5), (-1.0, 0.5, 0.5)))


def test_json_round_trip():
    states = [
        cat_state(2.0, 0.3),
        FockState(2),
        ThermalState(1.5),
        Mixture(((0.25, FockState(1)), (0.75, VACUUM))),
        decohere(cat_state(1.0, 0.0), 0.4, 3.0),
        entangled_cat(1.2, -1),
        ProductState(cat_state(0.8, 0.0), ThermalState(0.2)),
        TwoModeMixture(((0.5, entangled_cat(1.0, +1)),
                        (0.5, ProductState(VACUUM, VACUUM)))),
    ]
    for state in states:
        back = state_from_json(state_to_json(state))
        assert back == state


def test_json_cat_shorthand():
    parsed = state_from_json({"kind": "cat", "xi0": 2.0, "theta": 0.0})
    assert parsed == cat_state(2.0, 0.0)


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        state_from_json({"kind": "squeezed"})
    with pytest.raises(ValueError):
        state_from_json({"terms": []})

import cmath
import math

import numpy as np
import pytest

from catwitness import (
    VACUUM,
    DisplacementWord,
    ProductState,
    Settings,
    ThermalState,
    TwoModeMixture,
    canonical_eta,
    cat_state,
    entangled_cat,
    moments9,
    paper_witness,
    partial_transpose,
    ppt_min_eig,
    standard_settings,
    witness_expectation,
    witness_from_eta,
    word_product,
)
from catwitness.entanglement import IDENTITY_WORD


def test_displacement_word_validation():
    with pytest.raises(ValueError):
        DisplacementWord(2.0, 0.0, 0.0)
    w = DisplacementWord(1j, 0.5, -0.3j)
    assert w.dagger().amp1 == -0.5
    assert w.dagger().phase == -1j


def test_word_product_phase():
    a = DisplacementWord(1.0, 0.6 + 0.2j, 0.0)
    b = DisplacementWord(1.0, -0.3 + 0.5j, 0.0)
    prod = word_product(a, b)
    assert prod.amp1 == a.amp1 + b.amp1
    want = cmath.exp(1j * (a.amp1 * b.amp1.conjugate()).imag)
    assert prod.phase == pytest.approx(want, abs=1e-12)
    # a word times its dagger is the identity
    ident = word_product(a.dagger(), a)
    assert ident.amp1 == 0 and ident.amp2 == 0
    assert ident.phase == pytest.approx(1.0, abs=1e-12)


def test_word_expectation_on_state():
    state = entangled_cat(1.0, +1)
    w = DisplacementWord(1j, 0.4, -0.2)
    assert w.expectation(state) == pytest.approx(
        1j * state.chi2(0.4, -0.2), abs=1e-12)
    assert IDENTITY_WORD.expectation(state) == pytest.approx(1.0, abs=1e-12)


def test_standard_settings_geometry():
    s = standard_settings(2.0, math.pi / 2)
    assert s.alpha1 == 4.0
    assert s.alpha2 == pytest.approx(1j * math.pi / 8, abs=1e-15)
    assert s.beta1 == -s.alpha1 and s.beta2 == -s.alpha2
    with pytest.raises(ValueError):
        standard_settings(0.0, 1.0)


def test_moments9_is_psd_gram_with_unit_diagonal():
    state = entangled_cat(1.0, +1)
    m = moments9(state, standard_settings(1.0, math.pi / 2))
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert np.max(np.abs(np.diag(m) - 1.0)) < 1e-14
    assert np.min(np.linalg.eigvalsh(m)) > -1e-10
    # frozen spot entry <(1 x D(b1))^dag (D(a1) x D(b2))>
    assert m[1, 4] == pytest.approx(0.19937396330410656, abs=1e-12)


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(51)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert np.array_equal(partial_transpose(partial_transpose(g)), g)
    # block structure: mode-1 indices swap, mode-2 indices stay
    assert partial_transpose(g)[3 * 1 + 2, 3 * 0 + 1] == g[3 * 0 + 2, 3 * 1 + 1]
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4))


def test_ppt_product_states_stay_positive():
    settings = standard_settings(1.0, math.pi / 2)
    products = [
        ProductState(cat_state(1.0, 0.0), cat_state(1.0, 0.0)),
        ProductState(VACUUM, ThermalState(1.0)),
        TwoModeMixture(((0.5, ProductState(VACUUM, VACUUM)),
                        (0.5, ProductState(cat_state(0.8, 0.3), VACUUM)))),
    ]
    for state in products:
        assert ppt_min_eig(state, settings) > -1e-10


def test_ppt_detects_entangled_cat():
    # frozen detection value at xi0 = 1, eps = pi/2
    val = ppt_min_eig(entangled_cat(1.0, +1), standard_settings(1.0, math.pi / 2))
    assert val == pytest.approx(-0.07827414341181238, abs=1e-10)
    assert val < -1e-4


def test_canonical_eta_shape():
    eta = canonical_eta(0.4247)
    assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-12)
    assert eta[1] == eta[3] == eta[5] == eta[7] == 0
    assert eta[0] == eta[8]
    assert eta[2] == -eta[6]
    with pytest.raises(ValueError):
        canonical_eta(0.6)
    # w = 1/2 zeroes the central component
    assert canonical_eta(0.5)[4] == pytest.approx(0.0, abs=1e-12)


def test_witness_from_eta_matches_quadratic_form():
    # <W> must equal tr{eta eta^dag M^Gamma} on any state
    rng = np.random.default_rng(52)
    settings = standard_settings(1.0, 1.2)
    states = [entangled_cat(1.0, +1),
              ProductState(cat_state(1.0, 0.5), VACUUM),
              entangled_cat(0.7, -1)]
    for _ in range(5):
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        eta = v / np.linalg.norm(v)
        wd = witness_from_eta(eta, settings)
        for state in states:
            mg = partial_transpose(moments9(state, settings))
            want = float(np.real(eta.conj() @ mg @ eta))
            assert witness_expectation(state, wd) == pytest.approx(
                want, abs=1e-10)


def test_paper_witness_equals_eta_construction():
    # the explicit 17-term form and the eta-derived operator must agree
    rng = np.random.default_rng(53)
    for _ in range(10):
        xi0 = float(rng.uniform(0.4, 1.4))
        eps = float(rng.uniform(0.3, 2.5))
        w = float(rng.uniform(0.1, 0.5))
        a = paper_witness(xi0, eps, w)
        b = witness_from_eta(canonical_eta(w), standard_settings(xi0, eps))
        terms_a = {(t[1].amp1, t[1].amp2): t[0] for t in a.terms}
        terms_b = {(t[1].amp1, t[1].amp2): t[0] for t in b.terms}
        assert terms_a.keys() == terms_b.keys()
        for key in terms_a:
            assert terms_a[key] == pytest.approx(terms_b[key], abs=1e-12)


def test_paper_witness_term_count_and_value():
    wd = paper_witness(2.0, math.pi / 2, 0.4247)
    assert len(wd.terms) == 17
    # frozen expectation on the symmetric entangled cat
    got = witness_expectation(entangled_cat(2.0, +1), wd)
    assert got == pytest.approx(-0.4496176139121963, abs=1e-10)


def test_witness_nonnegative_on_simple_separables():
    wd = paper_witness(1.0, math.pi / 2, 0.4247)
    for state in (ProductState(VACUUM, VACUUM),
                  ProductState(cat_state(1.0, 0.0), ThermalState(0.5))):
        assert witness_expectation(state, wd) > -1e-10


def test_witness_serialization():
    wd = paper_witness(1.0, math.pi / 2, 0.4)
    data = wd.to_json()
    assert len(data) == len(wd.terms)
    for entry, (c, word) in zip(data, wd.terms):
        assert entry["coeff"] == [c.real, c.imag]
        assert entry["amp1"] == [word.amp1.real, word.amp1.imag]


def test_witness_from_eta_input_validation():
    settings = standard_settings(1.0, 1.0)
    with pytest.raises(ValueError):
        witness_from_eta(np.ones(9), settings)  # not unit norm
    with pytest.raises(ValueError):
        witness_from_eta(np.ones(4) / 2.0, settings)

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catwitness import (
    VACUUM,
    ProductState,
    RamseySetting,
    Settings,
    ThermalState,
    TwoModeMixture,
    TwoModeState,
    WitnessDescriptor,
    canonical_eta,
    cat_state,
    entangled_cat,
    moments9,
    paper_witness,
    paper_witness_curve,
    partial_transpose,
    ppt_min_eig,
    prepare_conditional,
    standard_settings,
    witness_expectation,
    witness_from_eta,
)
from catwitness import entanglement
from catwitness.entanglement import COEFF_PRUNE, Word, _expectation, _paper_terms


def test_standard_settings_geometry():
    s = standard_settings(2.0, math.pi / 2)
    assert s.alpha1 == 4.0
    assert s.alpha2 == pytest.approx(1j * math.pi / 8, abs=1e-15)
    assert s.beta1 == -s.alpha1 and s.beta2 == -s.alpha2
    with pytest.raises(ValueError):
        standard_settings(0.0, 1.0)


def test_standard_settings_broadcast_an_array_xi0():
    xs, eps = np.array([0.5, 1.0, 2.0]), np.array([1.0, 1.5])
    s = standard_settings(xs[:, None], eps)
    for i, xi0 in enumerate(xs):
        for j, e in enumerate(eps):
            want = standard_settings(float(xi0), float(e))
            got = [np.broadcast_to(f, (3, 2))[i, j] for f in s]
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    # a scalar xi0 keeps Python complex fields
    assert all(type(f) is complex for f in standard_settings(2.0, 1.0))
    for bad, shown in ((np.array([1.0, -0.5, 0.0]), "-0.5"),
                       (np.array([[1.0], [np.nan]]), "nan")):
        message = rf"^xi0 must be > 0, got {shown}$"
        with pytest.raises(ValueError, match=message):
            standard_settings(bad, 1.0)


def test_paper_witness_curve_equals_the_per_cell_witness():
    xs = np.linspace(0.3, 2.3, 9)
    product = ProductState(cat_state(0.7, 0.4), ThermalState(0.3))
    for state, member in ((entangled_cat(xs), entangled_cat),
                          (product, lambda _: product)):
        got = paper_witness_curve(state, xs, 1.2, 0.45)
        want = [witness_expectation(member(x), paper_witness(x, 1.2, 0.45))
                for x in xs]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
    # the norm as a plain float, not numpy 2's np.float64(3.0)
    with pytest.raises(ValueError,
                       match=r"^eta must have unit norm, got 3\.0$"):
        witness_from_eta(np.ones(9), settings)
    with pytest.raises(ValueError):
        witness_from_eta(np.ones(4) / 2.0, settings)


@pytest.mark.parametrize("build, name", [
    (lambda: witness_from_eta(np.full(9, np.nan), standard_settings(1, 1)),
     "eta"),
    (lambda: witness_from_eta(np.r_[np.inf, np.zeros(8)],
                              standard_settings(1, 1)), "eta"),
    (lambda: witness_from_eta(canonical_eta(0.4),
                              Settings(np.inf, 0j, 0j, 0j)), "settings.alpha1"),
    (lambda: witness_from_eta(canonical_eta(0.4),
                              Settings(0j, 0j, 0j, complex(0, np.nan))),
     "settings.beta2"),
    (lambda: paper_witness(np.inf, 1.0, 0.4), "xi0"),
    (lambda: paper_witness(np.nan, 1.0, 0.4), "xi0"),
    (lambda: paper_witness(1.0, np.inf, 0.4), "eps"),
    (lambda: paper_witness(1.0, np.nan, 0.4), "eps"),
    (lambda: paper_witness(1.0, 1.0, np.nan), "w"),
    (lambda: witness_from_eta(canonical_eta(0.4), standard_settings(
        1.0, np.array([1.0, 2.0]))), "settings.alpha2 must be a scalar"),
    (lambda: paper_witness(1.0, np.array([1.0, 2.0]), 0.4),
     "eps must be a scalar"),
    (lambda: paper_witness(np.array([1.0, 2.0]), 1.0, 0.4),
     "xi0 must be a scalar"),
])
def test_witness_rejects_non_finite_input(build, name):
    # a NaN once passed the norm check and gave an empty witness worth 0.0;
    # array-valued settings, eps or xi0 once raised AttributeError,
    # TypeError or numpy's ambiguous-truth-value error. A name that states
    # its reason ("... must be a scalar") is matched as it stands.
    must = "" if " must " in name else " must"
    with pytest.raises(ValueError, match=rf"^{name}{must}"):
        build()


# frozen json.dumps(wd.to_json()) of the two witnesses below, one term
# per entry; the -0.0 components are part of the output
PAPER_WITNESS_JSON = [
    '{"coeff": [-0.22413525499922493, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-1.8, -0.0], '
    '"amp2": [-1.8, -0.0]}',
    '{"coeff": [-0.22413525499922493, -1.372432613054383e-17], '
    '"phase": [1.0, 0.0], "amp1": [-1.8, -0.0], '
    '"amp2": [-1.8, 0.8726646259971648]}',
    '{"coeff": [-0.22413525499922493, 1.372432613054383e-17], '
    '"phase": [1.0, 0.0], "amp1": [-1.8, 0.8726646259971648], '
    '"amp2": [-1.8, -0.0]}',
    '{"coeff": [-0.22413525499922493, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-1.8, 0.8726646259971648], '
    '"amp2": [-1.8, 0.8726646259971648]}',
    '{"coeff": [0.18037009, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-0.0, -0.8726646259971648], '
    '"amp2": [-0.0, -0.8726646259971648]}',
    '{"coeff": [0.0, 0.36074018], '
    '"phase": [1.0, 0.0], "amp1": [-0.0, -0.8726646259971648], '
    '"amp2": [0.0, 0.0]}',
    '{"coeff": [-0.18037009, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-0.0, -0.8726646259971648], '
    '"amp2": [0.0, 0.8726646259971648]}',
    '{"coeff": [0.0, -0.36074018], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.0], '
    '"amp2": [-0.0, -0.8726646259971648]}',
    '{"coeff": [1.0, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.0], '
    '"amp2": [0.0, 0.0]}',
    '{"coeff": [0.0, 0.36074018], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.0], '
    '"amp2": [0.0, 0.8726646259971648]}',
    '{"coeff": [-0.18037009, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.8726646259971648], '
    '"amp2": [-0.0, -0.8726646259971648]}',
    '{"coeff": [0.0, -0.36074018], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.8726646259971648], '
    '"amp2": [0.0, 0.0]}',
    '{"coeff": [0.18037009, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.8726646259971648], '
    '"amp2": [0.0, 0.8726646259971648]}',
    '{"coeff": [-0.22413525499922493, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [1.8, -0.8726646259971648], '
    '"amp2": [1.8, -0.8726646259971648]}',
    '{"coeff": [-0.22413525499922493, -1.372432613054383e-17], '
    '"phase": [1.0, 0.0], "amp1": [1.8, -0.8726646259971648], '
    '"amp2": [1.8, 0.0]}',
    '{"coeff": [-0.22413525499922493, 1.372432613054383e-17], '
    '"phase": [1.0, 0.0], "amp1": [1.8, 0.0], '
    '"amp2": [1.8, -0.8726646259971648]}',
    '{"coeff": [-0.22413525499922493, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [1.8, 0.0], '
    '"amp2": [1.8, 0.0]}',
]

ETA_WITNESS_JSON = [
    '{"coeff": [-0.23999999999999996, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-2.0, -0.0], '
    '"amp2": [-2.0, -0.0]}',
    '{"coeff": [-0.20195303635389514, -0.1296725534083535], '
    '"phase": [1.0, 0.0], "amp1": [-2.0, -0.0], '
    '"amp2": [-2.0, 0.5]}',
    '{"coeff": [-0.20195303635389514, 0.1296725534083535], '
    '"phase": [1.0, 0.0], "amp1": [-2.0, 0.5], '
    '"amp2": [-2.0, -0.0]}',
    '{"coeff": [-0.23999999999999996, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-2.0, 0.5], '
    '"amp2": [-2.0, 0.5]}',
    '{"coeff": [0.16000000000000003, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-0.0, -0.5], '
    '"amp2": [-0.0, -0.5]}',
    '{"coeff": [0.0, 0.32000000000000006], '
    '"phase": [1.0, 0.0], "amp1": [-0.0, -0.5], '
    '"amp2": [-0.0, -0.0]}',
    '{"coeff": [-0.16000000000000003, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [-0.0, -0.5], '
    '"amp2": [0.0, 0.5]}',
    '{"coeff": [0.0, -0.32000000000000006], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.0], '
    '"amp2": [-0.0, -0.5]}',
    '{"coeff": [1.0, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.0], '
    '"amp2": [0.0, 0.0]}',
    '{"coeff": [0.0, 0.32000000000000006], '
    '"phase": [1.0, 0.0], "amp1": [-0.0, -0.0], '
    '"amp2": [0.0, 0.5]}',
    '{"coeff": [-0.16000000000000003, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.5], '
    '"amp2": [-0.0, -0.5]}',
    '{"coeff": [0.0, -0.32000000000000006], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.5], '
    '"amp2": [0.0, 0.0]}',
    '{"coeff": [0.16000000000000003, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [0.0, 0.5], '
    '"amp2": [0.0, 0.5]}',
    '{"coeff": [-0.23999999999999996, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [2.0, -0.5], '
    '"amp2": [2.0, -0.5]}',
    '{"coeff": [-0.20195303635389514, -0.1296725534083535], '
    '"phase": [1.0, 0.0], "amp1": [2.0, -0.5], '
    '"amp2": [2.0, 0.0]}',
    '{"coeff": [-0.20195303635389514, 0.1296725534083535], '
    '"phase": [1.0, 0.0], "amp1": [2.0, 0.0], '
    '"amp2": [2.0, -0.5]}',
    '{"coeff": [-0.23999999999999996, 0.0], '
    '"phase": [1.0, 0.0], "amp1": [2.0, 0.0], '
    '"amp2": [2.0, 0.0]}',
]


@pytest.mark.parametrize("wd, want", [
    (lambda: paper_witness(0.9, math.pi / 2, 0.4247), PAPER_WITNESS_JSON),
    (lambda: witness_from_eta(canonical_eta(0.4), standard_settings(1.0, 1.0)),
     ETA_WITNESS_JSON),
])
def test_witness_json_bytes_are_pinned(wd, want):
    # signed zeros included: a merged term keeps its first displacement's
    # zero signs, so the JSON bytes depend on the merge order
    assert json.dumps(wd().to_json()) == "[" + ", ".join(want) + "]"


def reference_terms(raw):
    """Canonical terms by the eager route: merge the raw (coeff, amp1,
    amp2) terms of equal displacement in their order, prune vanishing
    coefficients and sort by displacement."""
    acc = {}
    for coeff, amp1, amp2 in raw:
        key = (amp1.real, amp1.imag, amp2.real, amp2.imag)
        acc[key] = acc.get(key, 0j) + coeff
    return tuple(
        (acc[key], Word(1 + 0j, complex(key[0], key[1]),
                        complex(key[2], key[3])))
        for key in sorted(acc) if abs(acc[key]) > COEFF_PRUNE)


def reference_expectation(state, terms):
    """<W> contracted over canonical terms, one chi2 call."""
    t = np.array([(c, w.phase, w.amp1, w.amp2) for c, w in terms],
                 dtype=complex).reshape(-1, 4)
    return float(_expectation(state.chi2, t[:, 0] * t[:, 1], t[:, 2], t[:, 3]))


def raw_triples(terms):
    """(coeff, Word) terms as raw (coeff * phase, amp1, amp2) triples."""
    return [(c * word.phase, word.amp1, word.amp2) for c, word in terms]


PAIR16 = prepare_conditional(cat_state(0.9, 0.4), 0.9, 0.2,
                             RamseySetting(0.5, 0.6 + 0.3j), (-1, +1))[0]


@settings(max_examples=60, deadline=None)
@given(xi0=st.floats(0.2, 2.5),
       eps=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       w=st.one_of(st.just(0.5), st.floats(0.05, 0.5)))
def test_paper_witness_contracts_its_raw_terms(xi0, eps, w):
    # eps = 0 makes displacements coincide, so terms merge; w = 1/2 zeroes
    # eight coefficients, which the canonical terms prune
    want = reference_terms(_paper_terms(xi0, eps, w))
    # == and hash on fresh descriptors, whose terms are not yet built
    assert paper_witness(xi0, eps, w) == WitnessDescriptor(raw_triples(want))
    assert (hash(paper_witness(xi0, eps, w))
            == hash(WitnessDescriptor(raw_triples(want))))
    wd = paper_witness(xi0, eps, w)
    assert wd.terms == want
    bound = 1e-13 * sum(abs(c) for c, _ in want)
    assert len(PAIR16.terms) == 16
    for state in (entangled_cat(xi0, +1), entangled_cat(xi0, -1), PAIR16,
                  ProductState(cat_state(xi0, 0.3), ThermalState(0.4)),
                  TwoModeMixture(((0.3, entangled_cat(xi0)),
                                  (0.7, ProductState(VACUUM, VACUUM))))):
        got = witness_expectation(state, wd)
        per_term = sum(c * word.phase * state.chi2(word.amp1, word.amp2)
                       for c, word in wd.terms)
        assert abs(got - per_term) <= bound
        assert abs(got - reference_expectation(state, want)) <= bound


def test_witness_terms_are_merged_only_when_read(monkeypatch):
    reduce_calls, chi2_calls = [], []
    reduce_terms, chi2 = entanglement._reduce_terms, TwoModeState.chi2
    monkeypatch.setattr(entanglement, "_reduce_terms", lambda raw: (
        reduce_calls.append(1), reduce_terms(raw))[1])
    monkeypatch.setattr(TwoModeState, "chi2", lambda *a: (
        chi2_calls.append(1), chi2(*a))[1])
    # both builders hand over their raw terms, 17 of paper_witness and 73
    # of witness_from_eta; each merges to 17 canonical terms
    for build in (lambda: paper_witness(1.1, 1.3, 0.4),
                  lambda: witness_from_eta(canonical_eta(0.4),
                                           standard_settings(1.1, 1.3))):
        reduce_calls.clear()
        wd = build()
        for state in (entangled_cat(1.1), PAIR16, TwoModeMixture(
                ((0.5, entangled_cat(0.8)),
                 (0.5, ProductState(VACUUM, VACUUM))))):
            chi2_calls.clear()
            witness_expectation(state, wd)
            assert len(chi2_calls) == 1
        assert reduce_calls == []
        terms = wd.terms
        assert len(terms) == 17 and reduce_calls == [1]
        assert wd.terms is terms and wd.to_json() and wd == wd and hash(wd)
        assert reduce_calls == [1]


def test_witness_descriptor_keeps_its_api():
    wd = paper_witness(0.9, 1.0, 0.4)
    same = WitnessDescriptor(raw_triples(wd.terms))
    assert same == wd and hash(same) == hash(wd) and same.terms == wd.terms
    assert same.to_json() == wd.to_json()
    assert wd != paper_witness(0.9, 1.0, 0.3)
    assert (wd == wd.terms) is False
    state = entangled_cat(0.9)
    assert witness_expectation(state, same) == pytest.approx(
        witness_expectation(state, wd), abs=1e-14)
    for name in ("terms", "other"):
        with pytest.raises(AttributeError):
            setattr(wd, name, ())
    # a word's phase enters the contraction folded into its coefficient
    words = ((0.5 + 0j, Word(1j, 0.3 + 0j, -0.2j)),
             (0.5 + 0j, Word(-1j, -0.3 + 0j, 0.2j)))
    phased = WitnessDescriptor(raw_triples(words))
    got = witness_expectation(state, phased)
    want = sum(c * word.phase * state.chi2(word.amp1, word.amp2)
               for c, word in words)
    assert got == pytest.approx(want.real, abs=1e-15)
    # and == compares operators: canonical terms have phase 1
    assert [word.phase for _, word in phased.terms] == [1, 1]
    assert phased == WitnessDescriptor(raw_triples(phased.terms))
    assert witness_expectation(state, WitnessDescriptor(())) == 0.0
    # a raw term is three numbers: ragged terms are refused, not regrouped
    with pytest.raises(ValueError):
        WitnessDescriptor([(1, 0, 0, 0), (1, 0)])


def test_empty_axes_give_empty_results():
    # standard_settings and min_eigenvalue raised numpy's "zero-size array
    # to reduction operation" on an empty axis
    empty, product = np.array([]), ProductState(cat_state(1.0, 0.3), VACUUM)
    settings = standard_settings(empty, 1.0)
    assert all(np.shape(field) == (0,) for field in settings)
    assert moments9(product, settings).shape == (0, 9, 9)
    assert ppt_min_eig(product, settings).shape == (0,)
    eps_axis = standard_settings(np.array([[1.0]]), empty)
    assert ppt_min_eig(product, eps_axis).shape == (1, 0)
    curve = paper_witness_curve(product, empty, 1.0, 0.4)
    assert curve.shape == (0,) and curve.dtype == float
    with pytest.raises(ValueError, match=r"xi0 is empty, shape \(0,\)"):
        entangled_cat(empty)


@pytest.mark.parametrize("build", [
    lambda: paper_witness(1 + 0.5j, 1.0, 0.4),
    lambda: standard_settings(1 + 0.5j, 1.0),
    lambda: standard_settings(np.array([1.0, 1 + 0.5j]), 1.0),
    lambda: paper_witness_curve(entangled_cat(1.0), np.array([1.0, 1 + 0.5j]),
                                1.0, 0.4),
])
def test_complex_xi0_is_named(build):
    # it once raised TypeError: '>' not supported between complex and int,
    # or, for an array, passed on its real part's ordering
    with pytest.raises(ValueError,
                       match=r"^xi0 must be a real number > 0, got \(1\+0\.5j\)$"):
        build()


def test_expectation_refuses_an_imaginary_residue():
    # a chi2 whose sum is not real is a numeric failure, not a value
    def chi2(amp1, amp2):
        return np.full(np.shape(amp1), 1j)

    with pytest.raises(ArithmeticError, match="^witness expectation has "
                                              "imaginary residue 2$"):
        _expectation(chi2, np.ones(2), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("eps", [math.nan, np.array([0.3, math.inf])])
def test_settings_refuse_a_non_finite_eps(eps):
    # NaN settings once reached ppt_min_eig, which named the amplitude
    bad = complex(np.ravel(eps)[-1])
    with pytest.raises(ValueError, match=rf"^eps must be finite, got "
                                         rf"\({bad.real}\+0j\)$"):
        ppt_min_eig(entangled_cat(1.0), standard_settings(1.0, eps))


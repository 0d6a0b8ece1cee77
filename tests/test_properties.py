"""Property tests: random states, points and grids drawn by hypothesis.

They guard the stacked moment-matrix paths (one chi_N call per scan, one
determinant or eigensolve per scan) against per-matrix references built
here, the array forms of chi, chi_N and chi2 against per-point references
written here independently of the kernels in states.py (cmath double sums
for coherent superpositions, scipy's eval_laguerre for Fock states, the
closed-form Gaussians for thermal states), also at macroscopic
amplitudes, both evaluation orders of the coherent-sum kernel against a
copy of its complex-exponent order, the defining identities of chi,
the sign of the witness on separable states, the moment matrices against
one chi2 call per word pair, and the JSON round trip of every state family.
"""

import cmath
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import eval_laguerre

from catwitness import (
    CoherentSuperposition,
    Decohered,
    FockState,
    GridSpec,
    Mixture,
    PairSuperposition,
    ProductState,
    RamseySetting,
    Settings,
    ThermalState,
    TwoModeMixture,
    TwoModeState,
    bochner_matrix,
    cat_state,
    decohere,
    entangled_cat,
    moments4,
    moments9,
    ppt_min_eig,
    prepare_conditional,
    region_scan,
    standard_settings,
    state_from_json,
    state_to_json,
    witness_expectation,
    witness_from_eta,
)
from catwitness import states
from catwitness.cli import main

SETTINGS = settings(max_examples=25, deadline=None)

reals = st.floats(-2.0, 2.0, allow_nan=False)
complexes = st.builds(complex, reals, reals)
weights = st.floats(0.0, 1.0)

fock = st.builds(FockState, st.integers(0, 5))
thermal = st.builds(ThermalState, st.floats(0.0, 3.0))
cat = st.builds(cat_state, st.floats(0.3, 2.0), st.floats(0.0, 2 * math.pi))
coherent = st.builds(lambda xi: CoherentSuperposition(((1.0, xi),)), complexes)


def mixtures(parts):
    return st.builds(lambda w, a, b: Mixture(((w, a), (1.0 - w, b))),
                     weights, parts, parts)


single_mode = st.one_of(fock, thermal, cat, mixtures(st.one_of(fock, thermal,
                                                               cat)))
classical = st.one_of(thermal, coherent, mixtures(st.one_of(thermal,
                                                            coherent)))
decohered = st.builds(decohere, st.one_of(fock, thermal, cat),
                      st.floats(0.0, 2.0), st.floats(0.0, 2.0))
every_single_mode = st.one_of(single_mode, coherent, decohered)
pairs = st.one_of(
    st.builds(entangled_cat, st.floats(0.2, 1.5), st.sampled_from((1, -1))),
    st.builds(lambda a, b: PairSuperposition(((1.0, a, b), (0.5j, -b, a))),
              complexes, complexes),
    st.builds(ProductState, every_single_mode, every_single_mode))
two_mode = st.one_of(pairs, st.builds(
    lambda w, a, b: TwoModeMixture(((w, a), (1.0 - w, b))),
    weights, pairs, pairs))


@st.composite
def point_arrays(draw, count):
    """count complex arrays of one drawn shape, (P,) or (P, Q)."""
    shape = draw(st.sampled_from(((1,), (6,), (3, 4))))
    size = math.prod(shape)
    return [np.array(draw(st.lists(complexes, min_size=size, max_size=size)),
                     dtype=complex).reshape(shape) for _ in range(count)]


def assert_close(got, want):
    want = np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@st.composite
def grids(draw):
    """Two axes of 1 to 5 points each, inside [-2.5, 2.5]."""
    axes = []
    for _ in range(2):
        start = draw(st.floats(-2.5, 0.5))
        step = draw(st.floats(0.1, 0.5))
        axes.append((start, start + step * draw(st.integers(0, 4)), step))
    return GridSpec(tuple(axes))


def reference_bochner(state, points):
    n = len(points)
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[i, j] = state.chi_normal(points[i] - points[j])
    return m


@SETTINGS
@given(single_mode, grids())
def test_region_scan_nc2_matches_per_cell_reference(state, grid):
    for certificate in ("nc2-det", "nc2-eig"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scan = region_scan(state, grid, certificate)
        want = []
        for a1, a2 in zip(scan.axis1, scan.axis2):
            m = reference_bochner(state, [0j, complex(a1), complex(a2)])
            want.append(np.linalg.det(m).real if certificate == "nc2-det"
                        else np.linalg.eigvalsh(m)[0])
        want = np.array(want)
        assert scan.values.shape == want.shape
        assert np.all(np.abs(scan.values - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))


@SETTINGS
@given(classical, st.lists(complexes, min_size=2, max_size=5))
def test_bochner_matrix_is_psd_on_classical_states(state, points):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = bochner_matrix(state, points)
    assert np.array_equal(m, m.conj().T)
    assert np.linalg.eigvalsh(m)[0] >= -1e-10


@SETTINGS
@given(st.one_of(single_mode, coherent), st.one_of(single_mode, coherent),
       st.floats(0.3, 2.0), st.floats(0.1, 2.0),
       st.lists(complexes, min_size=4, max_size=4))
def test_moments9_on_product_states(left, right, xi0, eps, amps):
    state = ProductState(left, right)
    for s in (standard_settings(xi0, eps), Settings(*amps)):
        m = moments9(state, s)
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(np.diag(m), np.ones(9))
        assert ppt_min_eig(state, s) >= -1e-10


PAIR16 = prepare_conditional(cat_state(0.9, 0.4), 0.9, 0.2,
                             RamseySetting(0.5, 0.6 + 0.3j), (-1, +1))[0]


class Recording(TwoModeState):
    """A two-mode state that records the point count of each chi2 call."""

    def __init__(self, state):
        self.state, self.points = state, []

    def _ordered(self, a, s):
        self.points.append(a.shape[-2])
        return self.state._ordered(a, s)


def reference_gram_upper(state, mode1, mode2):
    """The n(n-1)/2 upper entries <V_a^dag V_b>, a < b, of the words
    D(x) x D(y), x in mode1 and y in mode2, each from its own chi2(u, v)
    call at u = x_b - x_a, v = y_b - y_a, times the phase of
    D(-x_a) D(x_b) D(-y_a) D(y_b); array entries give a stack (..., n)."""
    words = [(x, y) for x in mode1 for y in mode2]
    out = []
    for (xa, ya), (xb, yb) in itertools.combinations(words, 2):
        phase = np.exp(1j * ((np.conj(xa) * xb).imag
                             + (np.conj(ya) * yb).imag))
        out.append(phase * state.chi2(xb - xa, yb - ya))
    return np.stack(out, -1)


def assert_upper_matches(m, want):
    rows, cols = np.triu_indices(m.shape[-1], 1)
    got = m[..., rows, cols]
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


@SETTINGS
@given(st.one_of(two_mode, st.just(PAIR16)),
       st.one_of(st.builds(standard_settings, st.floats(0.3, 2.0),
                           st.floats(0.1, 2.0)),
                 st.builds(Settings, complexes, complexes, complexes,
                           complexes)))
def test_moment_matrices_match_one_chi2_call_per_word_pair(state, s):
    # one chi2 call over the 36 word pairs a < b of moments9, and the 6 of
    # moments4
    recording = Recording(state)
    m = moments9(recording, s)
    assert recording.points == [36]
    assert_upper_matches(m, reference_gram_upper(
        state, (0j, s.alpha1, s.alpha2), (0j, s.beta1, s.beta2)))
    m = moments4(recording, s.alpha1, s.beta1)
    assert recording.points == [36, 6]
    assert_upper_matches(m, reference_gram_upper(
        state, (0j, s.alpha1), (0j, s.beta1)))


@SETTINGS
@given(st.lists(st.floats(0.3, 2.0), min_size=1, max_size=3),
       st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
       st.sampled_from((1, -1)))
def test_stacked_moments9_matches_one_chi2_call_per_word_pair(xs, eps, sign):
    xi0, e = np.meshgrid(xs, eps, indexing="ij")
    state, s = entangled_cat(xi0, sign), standard_settings(xi0, e)
    m = moments9(state, s)
    assert m.shape == xi0.shape + (9, 9)
    assert_upper_matches(m, reference_gram_upper(
        state, (0j, s.alpha1, s.alpha2), (0j, s.beta1, s.beta2)))


@SETTINGS
@given(every_single_mode, every_single_mode,
       st.lists(complexes, min_size=9, max_size=9).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       st.lists(complexes, min_size=4, max_size=4))
def test_witness_is_nonnegative_on_product_states(left, right, eta, amps):
    eta = np.array(eta) / np.linalg.norm(eta)
    wd = witness_from_eta(eta, Settings(*amps))
    assert witness_expectation(ProductState(left, right), wd) >= -1e-10


@SETTINGS
@given(st.one_of(single_mode, coherent), complexes)
def test_chi_identities(state, alpha):
    assert abs(state.chi(0) - 1) <= 1e-12
    assert abs(state.chi(-alpha) - state.chi(alpha).conjugate()) <= 1e-12
    assert abs(state.chi(alpha)) <= 1 + 1e-12


def reference_coherent_sum(terms, alphas):
    """sum_{k,l} c_k c_l* prod_m <x_l^m| D(alpha_m) |x_k^m>, one term pair
    at a time, with D(a)|x> = e^{i Im(a x*)} |x + a> and
    <x|y> = exp(-|x|^2/2 - |y|^2/2 + x* y)."""
    total = 0j
    for c_k, *xs_k in terms:
        for c_l, *xs_l in terms:
            term = c_k * c_l.conjugate()
            for a, x_k, x_l in zip(alphas, xs_k, xs_l):
                y = x_k + a
                term *= cmath.exp(1j * (a * x_k.conjugate()).imag
                                  - abs(x_l) ** 2 / 2 - abs(y) ** 2 / 2
                                  + x_l.conjugate() * y)
            total += term
    return total


def reference_chi(state, a: complex, normal: bool) -> complex:
    """chi(a), or chi_N(a) if normal, of a single-mode state at one point."""
    x = abs(a) ** 2
    if isinstance(state, CoherentSuperposition):
        return reference_coherent_sum(state.terms, (a,)) * (
            math.exp(x / 2) if normal else 1.0)
    if isinstance(state, FockState):
        return eval_laguerre(state.n, x) * (1.0 if normal
                                            else math.exp(-x / 2))
    if isinstance(state, ThermalState):
        return math.exp(-(state.n_th + (0.0 if normal else 0.5)) * x)
    if isinstance(state, Mixture):
        return sum(w * reference_chi(s, a, normal)
                   for w, s in state.components)
    assert isinstance(state, Decohered)
    n = state.n_th + (0.0 if normal else 0.5)
    return (math.exp(-n * -math.expm1(-state.gamma_t) * x)
            * reference_chi(state.inner, a * math.exp(-state.gamma_t / 2),
                            normal))


def reference_chi2(state, a: complex, b: complex) -> complex:
    if isinstance(state, PairSuperposition):
        return reference_coherent_sum(state.terms, (a, b))
    if isinstance(state, ProductState):
        return (reference_chi(state.left, a, False)
                * reference_chi(state.right, b, False))
    assert isinstance(state, TwoModeMixture)
    return sum(w * reference_chi2(s, a, b) for w, s in state.components)


@SETTINGS
@given(every_single_mode, point_arrays(1))
def test_batched_chi_equals_scalar(state, points):
    (alphas,) = points
    for f, normal in ((state.chi, False), (state.chi_normal, True)):
        want = [reference_chi(state, a, normal)
                for a in alphas.ravel().tolist()]
        assert_close(f(alphas), np.reshape(want, alphas.shape))


@SETTINGS
@given(two_mode, point_arrays(2))
def test_batched_chi2_equals_scalar(state, points):
    alphas, betas = points
    want = [reference_chi2(state, a, b)
            for a, b in zip(alphas.ravel().tolist(), betas.ravel().tolist())]
    assert_close(state.chi2(alphas, betas),
                 np.reshape(want, alphas.shape))


macro_amps = st.builds(cmath.rect, st.floats(0.0, 19.0),
                       st.floats(-math.pi, math.pi))
offsets = st.builds(cmath.rect, st.floats(0.0, 1.0),
                    st.floats(-math.pi, math.pi))


@st.composite
def macroscopic(draw, cls, modes, sizes=(1, 3)):
    """A superposition of sizes[0] to sizes[1] terms with |x| <= 19 per
    mode, and six points (6, modes) within 1 of a difference x_l - x_k per
    mode, so |alpha| <= 39, where the term pair (k, l) is of order one."""
    terms = draw(st.lists(st.tuples(complexes, *[macro_amps] * modes),
                          min_size=sizes[0], max_size=sizes[1]))
    try:
        state = cls(tuple(terms))
    except ValueError:  # a degenerate draw, such as all coefficients 0
        assume(False)
    points = []
    for _ in range(6):
        k, l = (draw(st.integers(0, len(terms) - 1)) for _ in range(2))
        points.append([terms[l][m] - terms[k][m] + draw(offsets)
                       for m in range(1, modes + 1)])
    return state, np.array(points)


@SETTINGS
@given(st.one_of(macroscopic(CoherentSuperposition, 1),
                 macroscopic(PairSuperposition, 2)))
def test_coherent_sums_at_macroscopic_amplitudes(case):
    state, points = case
    if isinstance(state, PairSuperposition):
        got = state.chi2(points[:, 0], points[:, 1])
    else:
        got = state.chi(points[:, 0])
    want = [reference_coherent_sum(state.terms, p) for p in points.tolist()]
    assert np.isfinite(got).all()
    assert_close(got, want)


def complex_exponent_sum(arrays, a, s):
    """states._coherent_sum in the complex-exponent order it had before the
    split order, one complex exp per term pair and point: the reference for
    both orders, to the bit below SPLIT_TERMS terms."""
    w, xct, g = arrays
    lead, (m, k) = xct.shape[:-2], xct.shape[-2:]
    if a.ndim <= len(lead):  # shared points
        a = a.reshape((1,) * (len(lead) + 1 - a.ndim) + a.shape)
    if len(shape := a.shape[len(lead):-1]) != 1:
        a = a.reshape(a.shape[:len(lead)] + (-1, m))
    p = a @ xct
    expo = p[..., None, :] - p.conj()[..., :, None]
    expo += g[..., None, :, :]
    re = expo.real
    if s != 1:
        re -= (1 - s) / 2 * (abs(a) ** 2).sum(-1)[..., None, None]
    if re.max(initial=-math.inf) > states.EXP_MAX:
        raise OverflowError("math range error")
    e = np.exp(expo, out=expo)
    out = e.reshape(e.shape[:-2] + (k * k,)) @ w.reshape(lead + (k * k, 1))
    return out.reshape(out.shape[:-2] + shape)


def complex_exponent_arrays(state):
    """The kernel arrays of the state's raw terms in the complex-exponent
    order, at any term count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "SPLIT_TERMS", math.inf)
        return type(state)(state._raw)._arrays


def overflow_or(f, *args):
    """f(*args) as an array, or the string "overflow" where it raises
    OverflowError."""
    try:
        return np.asarray(f(*args))
    except OverflowError:
        return "overflow"


def public(state, points, s):
    """chi (s = 0) or chi_N (s = 1) of a single-mode state, chi2 of a pair,
    at points (..., modes), through the public methods."""
    if isinstance(state, PairSuperposition):
        return state.chi2(points[..., 0], points[..., 1])
    return (state.chi_normal if s else state.chi)(points[..., 0])


@st.composite
def superpositions(draw, cls, modes, sizes):
    """A superposition of sizes[0] to sizes[1] terms drawn from complexes,
    and points of one drawn shape (..., modes): a scalar point, (P,) or
    (P, Q) points."""
    terms = draw(st.lists(st.tuples(*[complexes] * (modes + 1)),
                          min_size=sizes[0], max_size=sizes[1]))
    try:
        state = cls(tuple(terms))
    except ValueError:  # a degenerate draw, such as all coefficients 0
        assume(False)
    shape = draw(st.sampled_from(((), (1,), (6,), (3, 4)))) + (modes,)
    points = draw(st.lists(complexes, min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return state, np.array(points, dtype=complex).reshape(shape)


@st.composite
def stacked_pairs(draw, sizes):
    """A stack of 1 to 3 pair superpositions of one drawn term count, from
    one term array (S, K, 3), and points (S, 4, 2)."""
    k, n = draw(st.integers(*sizes)), draw(st.integers(1, 3))
    t = draw(st.lists(complexes, min_size=n * k * 3, max_size=n * k * 3))
    try:
        state = PairSuperposition(np.reshape(t, (n, k, 3)))
    except ValueError:
        assume(False)
    points = draw(st.lists(complexes, min_size=n * 8, max_size=n * 8))
    return state, np.reshape(points, (n, 4, 2))


def term_counts(sizes, macro_sizes):
    """Single-mode and pair superpositions of these term counts, scalar and
    stacked, at points of order one and at macroscopic amplitudes."""
    return st.one_of(
        superpositions(CoherentSuperposition, 1, sizes),
        superpositions(PairSuperposition, 2, sizes),
        macroscopic(CoherentSuperposition, 1, macro_sizes),
        macroscopic(PairSuperposition, 2, macro_sizes),
        stacked_pairs(sizes))


@SETTINGS
@given(term_counts((1, states.SPLIT_TERMS - 1), (1, states.SPLIT_TERMS - 1)),
       st.sampled_from((0, 1)))
def test_below_split_terms_the_kernel_keeps_its_bits(case, s):
    # the arrays and the complex-exponent order are as they were
    state, points = case
    assert state._arrays[2].dtype == complex
    got = overflow_or(public, state, points, s)
    want = overflow_or(complex_exponent_sum, state._arrays, points,
                       0 if isinstance(state, PairSuperposition) else s)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and np.array_equal(got, want)


@SETTINGS
@given(term_counts((states.SPLIT_TERMS, 16), (states.SPLIT_TERMS, 12)),
       st.sampled_from((0, 1)))
def test_from_split_terms_on_the_kernel_matches_both_references(case, s):
    # per point, within 1e-15 sum|w| on the scale of chi, or within
    # eps Phi sum|w| where that is larger: Phi = sum_m X_m (X_m + 2|a_m|),
    # X_m the largest |x| of mode m, bounds every phase |Im E_kl|, and a
    # phase is rounded to about eps |Im E_kl| in either order (the
    # reference too: 6.6e-15 sum|w| at |x| <= 19, |alpha| <= 39)
    state, points = case
    assert state._arrays[2].dtype == float  # the split order
    if isinstance(state, PairSuperposition):
        s = 0
    got = overflow_or(public, state, points, s)
    want = overflow_or(complex_exponent_sum, complex_exponent_arrays(state),
                       points, s)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str) and got.shape == want.shape
    # chi_N to chi by e^{-s|a|^2/4} twice: e^{-|a|^2/2} alone is 0 past
    # |a|^2 = 1490, where chi_N can still be finite
    half = np.exp(-s * (abs(points) ** 2).sum(-1) / 4)
    got, want = got * half * half, want * half * half
    w, raw = state._arrays[0], state._raw
    stacked = w.ndim > 2
    members, at = ((state.terms, points) if stacked
                   else ([state.terms], points[None]))
    modes = points.shape[-1]
    exact = np.reshape([[reference_coherent_sum(m, tuple(p))
                         for p in a.reshape(-1, modes).tolist()]
                        for m, a in zip(members, at)], got.shape)
    x = abs(raw[..., 1:]).max(-2)  # X_m, per member of a stack
    if stacked:
        x = x[:, None, :]
    phi = (x * (x + 2 * abs(points))).sum(-1)
    sum_w = abs(w).sum((-2, -1))
    tol = np.maximum(1e-15, np.finfo(float).eps * phi) * (
        sum_w[:, None] if stacked else sum_w)
    assert np.all(abs(got - want) <= tol)
    assert np.all(abs(got - exact) <= tol)


@SETTINGS
@given(st.lists(st.floats(0.2, 19.0), min_size=1, max_size=5),
       st.sampled_from((1, -1)), st.data())
def test_stacked_entangled_cat_equals_each_member(xs, sign, data):
    # the points lie within 1 of a term difference 0 or +-2 xi0 per mode,
    # where the term pairs are of order one up to |alpha| = 39
    stack = entangled_cat(np.array(xs), sign)
    shift = st.sampled_from((0.0, 2.0, -2.0))
    alpha, beta = (np.array([[data.draw(shift) * x + data.draw(offsets)
                              for _ in range(4)] for x in xs])
                   for _ in range(2))
    want = [entangled_cat(x, sign).chi2(a, b)
            for x, a, b in zip(xs, alpha, beta)]
    assert_close(stack.chi2(alpha, beta), want)
    # a scalar point, without the stack axis, is shared by every member
    assert_close(stack.chi2(0.3, -0.2j),
                 [entangled_cat(x, sign).chi2(0.3, -0.2j) for x in xs])


@SETTINGS
@given(two_mode, st.floats(0.3, 2.0),
       st.lists(st.floats(0.1, 2.5), min_size=1, max_size=6),
       point_arrays(4))
def test_stacked_ppt_min_eig_equals_per_cell_loop(state, xi0, eps, amps):
    eps = np.array(eps)
    assert_close(ppt_min_eig(state, standard_settings(xi0, eps)),
                 [ppt_min_eig(state, standard_settings(xi0, float(e)))
                  for e in eps])
    want = [ppt_min_eig(state, Settings(*map(complex, cell)))
            for cell in zip(*(a.ravel() for a in amps))]
    assert_close(ppt_min_eig(state, Settings(*amps)),
                 np.reshape(want, amps[0].shape))


@SETTINGS
@given(st.one_of(every_single_mode, two_mode), complexes, complexes)
def test_json_round_trip_keeps_type_and_chi(state, alpha, beta):
    back = state_from_json(json.loads(json.dumps(state_to_json(state))))
    assert type(back) is type(state)
    if isinstance(state, TwoModeState):
        got, want = back.chi2(alpha, beta), state.chi2(alpha, beta)
    else:
        got, want = back.chi(alpha), state.chi(alpha)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_array_overflow_raises_as_the_scalar_path_does(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            cat_state(2, 0).chi_normal(np.array([1.0, 400.0]))
    code = main(["ncregion", "--state", "cat:2,0", "--certificate", "nc1",
                 "--grid", "399:400:1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "overflow" in captured.err


def test_non_finite_array_input_is_rejected():
    for state in (cat_state(1, 0), FockState(1), ThermalState(0.5),
                  decohere(FockState(1), 0.5, 0.1)):
        for f in (state.chi, state.chi_normal):
            with pytest.raises(ValueError,
                               match=r"amplitude must be finite, got \(nan"):
                f(np.array([0.5, complex(np.nan, 1)]))
    with pytest.raises(ValueError, match="amplitude must be finite"):
        entangled_cat(1.0).chi2(np.zeros(2), np.array([0.5, np.inf]))

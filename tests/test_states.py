import ast
import cmath
import inspect
import copy
import json
import math
import pickle
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import eval_laguerre

from catwitness import (
    VACUUM,
    CoherentSuperposition,
    Decohered,
    FockState,
    Mixture,
    PairSuperposition,
    ProductState,
    RamseySetting,
    ThermalState,
    TwoModeMixture,
    cat_state,
    conditional_state,
    decohere,
    entangled_cat,
    paper_witness,
    prepare_conditional,
    state_from_json,
    state_to_json,
    witness_expectation,
)
from catwitness import entanglement, ramsey, states
from catwitness.states import _laguerre


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
        assert VACUUM.chi(a) == pytest.approx(
            math.exp(-abs(a) ** 2 / 2.0), abs=1e-12)
        assert VACUUM.chi_normal(a) == pytest.approx(1.0, abs=1e-12)


def test_fock_chi_normal_is_laguerre():
    # chi_N(|1>) = 1 - |alpha|^2, chi_N(|2>) = 1 - 2x + x^2/2
    a = 1.3
    x = a * a
    assert FockState(1).chi_normal(a) == pytest.approx(1 - x, abs=1e-12)
    assert FockState(2).chi_normal(a) == pytest.approx(
        1 - 2 * x + x * x / 2, abs=1e-12)
    assert FockState(2).chi_normal(1.3) == pytest.approx(-0.95195, abs=1e-12)
    # chi of |1> vanishes exactly at |alpha| = 1
    assert FockState(1).chi(1.0) == pytest.approx(0.0, abs=1e-15)



def test_laguerre_equals_scipy_eval_laguerre():
    # the same recurrence in the same order: equal floats, not just close
    rng = np.random.default_rng(8)
    x = np.concatenate([np.linspace(0.0, 2000.0, 2001),
                        rng.uniform(0.0, 2000.0, 500),
                        rng.uniform(0.0, 5.0, 500)])
    # p of the (p, e) pair: e = 0 where no x passes LAGUERRE_SAFE, and
    # past it the exact power-of-two rescaling gives p 2^e, the same floats
    safe = x <= states.LAGUERRE_SAFE
    for n in [*range(13), 50, 150, 200]:
        p, e = _laguerre(n, x[safe])
        assert isinstance(p, np.ndarray) and e == 0
        assert np.array_equal(p, eval_laguerre(n, x[safe]))
        p, e = _laguerre(n, x)
        assert isinstance(p, np.ndarray) and e.shape == x.shape
        assert np.array_equal(np.ldexp(p, e), eval_laguerre(n, x))
        for xi in x[::50]:  # numpy float64 scalars, as FockState passes
            p, e = _laguerre(n, xi)
            if xi <= states.LAGUERRE_SAFE:
                assert e == 0 and p == eval_laguerre(n, xi)
            else:
                assert np.ldexp(p, e) == eval_laguerre(n, xi)


# 16 terms: the split order of the coherent sums (states.SPLIT_TERMS)
SUP16 = CoherentSuperposition(tuple((1 / (k + 1), cmath.rect(0.2 * k, 0.7 * k))
                                    for k in range(16)))
PAIR16 = prepare_conditional(cat_state(0.9, 0.4), 0.9, 0.2,
                             RamseySetting(0.5, 0.6 + 0.3j), (-1, +1))[0]
SINGLE_MODE = [cat_state(1.5, 0.7),
               CoherentSuperposition(((1.0, 0.3 - 0.2j),)),
               VACUUM, FockState(3), ThermalState(0.8),
               Mixture(((0.4, FockState(0)), (0.6, cat_state(1.0, 0.0)))),
               decohere(FockState(0), 0.3, 0.5),
               decohere(cat_state(1.0, 0.0), 0.3, 2.0), SUP16]
TWO_MODE = [entangled_cat(1.2, -1),
            PairSuperposition(((1.0, 0.5, 0.2j), (0.5j, -0.2j, 0.5))),
            ProductState(FockState(0), ThermalState(0.5)),
            TwoModeMixture(((0.5, entangled_cat(1.0, +1)),
                            (0.5, ProductState(VACUUM, FockState(2))))),
            PAIR16]


@pytest.mark.parametrize("state", SINGLE_MODE + TWO_MODE,
                         ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2)])
def test_zero_points_give_an_empty_complex_array(state, shape):
    # the coherent sums once raised numpy's "zero-size array to reduction
    # operation maximum" from their overflow check
    points = np.empty(shape)
    if isinstance(state, entanglement.TwoModeState):
        values = [state.chi2(points, points)]
    else:
        values = [state.chi(points), state.chi_normal(points)]
    for value in values:
        assert value.shape == shape and value.dtype == complex
    if isinstance(state, entanglement.TwoModeState) and shape == (0,):
        empty = entanglement.WitnessDescriptor(())
        assert entanglement.witness_expectation(state, empty) == 0.0


@pytest.mark.parametrize("alpha", [0.7 - 0.4j, 0j, 1.5])
def test_scalar_in_gives_scalar_out(alpha):
    # one array path per family, yet a scalar gives a complex scalar (a
    # 0-d ndarray is not an instance of complex), for every family
    for state in SINGLE_MODE:
        for value in (state.chi(alpha), state.chi_normal(alpha)):
            assert isinstance(value, complex), (state, type(value))
    for state in TWO_MODE:
        value = state.chi2(alpha, -alpha)
        assert isinstance(value, complex), (state, type(value))
    # the oracle and state_to_json read terms as Python complex numbers
    for state in (cat_state(1.5, 0.7), entangled_cat(1.2, -1)):
        for term in state.terms:
            assert type(term) is tuple
            assert all(type(z) is complex for z in term)


def test_states_has_no_ndarray_dispatch():
    # chi, chi_normal and chi2 run one array code path for scalars and
    # arrays alike: nothing in states.py forks on isinstance(..., ndarray)
    checks = [node for node in ast.walk(ast.parse(inspect.getsource(states)))
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance"]
    assert checks  # state_to_json dispatches on the state classes
    for node in checks:
        assert "ndarray" not in ast.unparse(node.args[1]), ast.unparse(node)


def _forwards_to_a_method(fn: ast.FunctionDef) -> bool:
    """The body, after any docstring, is only
    `return <first param>.<attr>(<the other params>)`."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call, params = body[0].value, [a.arg for a in fn.args.args]
    return (isinstance(call, ast.Call) and not call.keywords
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and params[:1] == [call.func.value.id]
            and [ast.unparse(a) for a in call.args] == params[1:])


def test_no_method_forwarding_functions():
    # a public function that only calls a method of its first argument
    # duplicates that method; states.chi stays while perfbench's tracer
    # self-test names it
    found = [f"{path.stem}.{fn.name}"
             for path in sorted(Path(states.__file__).parent.glob("*.py"))
             for fn in ast.parse(path.read_text()).body
             if isinstance(fn, ast.FunctionDef)
             and not fn.name.startswith("_") and _forwards_to_a_method(fn)]
    assert found == ["states.chi"]


def test_one_ordered_hook_per_family():
    # chi, chi_normal and chi2 are defined once, on the two base classes;
    # each family implements only the s-ordered hook they call, on itself
    # or on a private body it shares with its other-mode twin (_Mixture)
    bases = (states.SingleModeState, states.TwoModeState)
    families = [cls for cls in vars(states).values() if inspect.isclass(cls)
                and issubclass(cls, bases) and cls not in bases]
    assert len(families) == 8
    for cls in families:
        own = [k for k in cls.__mro__ if k not in (*bases, object)]
        hook = next(k for k in cls.__mro__ if "_ordered" in vars(k))
        assert hook in own, cls.__name__
        for k in own:
            assert not {"chi", "chi_normal", "chi2"} & set(vars(k)), k.__name__


def test_points_are_checked_once_per_call(monkeypatch):
    # however deep the nesting, a public call checks its points once
    calls = []
    check = states._check_points

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(states, "_check_points", counted)
    mix = Mixture(((0.2, FockState(1)), (0.3, ThermalState(0.4)),
                   (0.5, cat_state(1.0, 0.3))))
    points = np.array([0.3, 1.0 - 0.5j])
    for state in (mix, decohere(mix, 0.3, 0.2)):
        for method in (state.chi, state.chi_normal):
            for alpha in (0.4 + 0.1j, points):
                calls.clear()
                method(alpha)
                assert len(calls) == 1, (state, method.__name__)
    pair_mix = TwoModeMixture(((0.5, entangled_cat(1.0, +1)),
                               (0.5, ProductState(VACUUM, ThermalState(0.3)))))
    for state in (ProductState(cat_state(1.0, 0.0), FockState(2)), pair_mix):
        for beta in (-0.2j, points):
            calls.clear()
            state.chi2(0.3, beta)
            assert len(calls) == 1, state


def test_no_broadcast_arrays_in_point_assembly():
    # chi2 and _gram_words assemble their (..., M) point stacks in one
    # preallocated array by broadcast assignment
    for module in (states, entanglement):
        calls = [ast.unparse(node.func)
                 for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.Call)]
        assert calls and not [c for c in calls if "broadcast_arrays" in c]


def test_chi2_broadcasts_like_per_point_calls():
    state = entangled_cat(1.2, -1)
    alphas = np.array([[0.3], [-0.5j], [1.0 + 1.0j]])
    betas = np.array([0.0, 0.2, -0.7 + 0.1j, 2.0j])
    got = state.chi2(alphas, betas)
    assert got.shape == (3, 4)
    want = [[state.chi2(a, b) for b in betas.tolist()]
            for a in alphas[:, 0].tolist()]
    assert np.max(np.abs(got - want)) <= 1e-15
    row = state.chi2(-0.4 + 0.1j, betas)
    assert row.shape == (4,)
    assert np.max(np.abs(row - [state.chi2(-0.4 + 0.1j, b)
                                for b in betas.tolist()])) <= 1e-15
    value = state.chi2(-0.4 + 0.1j, 0.2)
    assert isinstance(value, complex) and np.ndim(value) == 0
    message = r"^amplitude must be finite, got \(nan\+0j\)$"
    for beta in (np.array([0.5, np.nan]), math.nan):
        with pytest.raises(ValueError, match=message):
            state.chi2(np.zeros(2), beta)


def test_coherent_chi_normal_has_unit_modulus():
    # one coherent term: chi_N(alpha) = e^{alpha x* - alpha* x}, computed
    # directly, not as e^{|alpha|^2/2} chi, so |chi_N| = 1 up to rounding
    rng = np.random.default_rng(13)
    alphas = 40 * rng.uniform(0, 1, 200) * np.exp(2j * np.pi
                                                  * rng.uniform(0, 1, 200))
    for x in (0j, 0.2075 + 1.046j, 3 - 4j, 20j):
        got = CoherentSuperposition(((0.6 + 0.8j, x),)).chi_normal(alphas)
        assert np.all(np.abs(np.abs(got) - 1) <= 4 * np.finfo(float).eps)


def test_chi_normal_stays_finite_where_chi_underflows():
    # at |alpha| = 40, e^{|alpha|^2/2} overflows although chi_N is small
    assert FockState(1).chi_normal(40) == -1599
    assert FockState(2).chi_normal(40j) == 1 - 2 * 1600 + 1600 ** 2 / 2
    assert ThermalState(0.0).chi_normal(40) == 1
    with np.errstate(over="ignore"):  # |alpha|^2 overflows to inf
        assert VACUUM.chi_normal(1e200) == 1
        # a Gaussian whose rate is 0 is absent, not e^{-0 * inf} = NaN
        assert ThermalState(0.0).chi_normal(1e200) == 1
        assert decohere(VACUUM, 0.5, 0.0).chi_normal(1e200) == 1
        assert decohere(VACUUM, 0.0, 0.5).chi_normal(1e200) == 1
        assert decohere(VACUUM, 0.0, 0.5).chi(1e200) == 0
        got = decohere(VACUUM, np.array([0.0, 1.0]), 0.5).chi_normal(1e200)
        assert got.tolist() == [1, 0]  # per time: rate 0, then rate > 0
    assert ThermalState(0.5).chi_normal(1.5) == pytest.approx(
        math.exp(-0.5 * 2.25), abs=1e-15)
    mix = Mixture(((0.25, FockState(1)), (0.75, ThermalState(0.0))))
    assert mix.chi_normal(40) == 0.25 * -1599 + 0.75
    # a coherent sum's chi_N is computed directly: about e^78 here, while
    # e^{|alpha|^2/2} = e^800 alone would overflow
    assert cmath.isfinite(cat_state(2.0, 0.0).chi_normal(40))
    with pytest.raises(OverflowError):
        cat_state(2.0, 0.0).chi_normal(400)  # about e^798
    # the same in the split order, where the phases are taken apart
    assert cmath.isfinite(SUP16.chi_normal(40))
    with pytest.raises(OverflowError):
        SUP16.chi_normal(np.array([1.0, 400.0]))

def test_fock_chi_has_no_nan_where_laguerre_overflows():
    # warnings are errors, so an inf - inf or 0 * inf in the recurrence
    # fails here; only |alpha|^2's own overflow to inf is ignored
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            # chi's limit at |alpha|^2 = inf is 0; chi_N is +-inf there
            assert FockState(1).chi(1e200) == 0
            assert FockState(3).chi(1e160) == 0
            assert ProductState(FockState(1), VACUUM).chi2(1e200, 0) == 0
            with pytest.raises(OverflowError):
                FockState(2).chi_normal(1e200)
        # finite |alpha|^2 where L_n overflows: chi rounds to 0, chi_N raises
        assert FockState(3).chi(1e103) == 0
        with pytest.raises(OverflowError):
            FockState(3).chi_normal(1e103)
        assert FockState(1).chi_normal(1e100) == 1 - 1e200
        got = FockState(5).chi(np.array([0.5, 1e103, 50.0]))
        assert got.tolist() == [FockState(5).chi(0.5), 0, 0]
        # where L_n alone overflows but chi is of order 1, and chi_N is
        # past the float range
        assert cmath.isfinite(FockState(400).chi(38.0))
        with pytest.raises(OverflowError):
            FockState(400).chi_normal(38.0)


@pytest.mark.parametrize("n, alpha", [
    (400, 38.0), (1000, 40.0), (600, 37.5 + 3j), (2000, 60.0), (5000, 100.0),
    (50, 40.0), (1, 38.0),
])
def test_fock_chi_past_the_laguerre_range_against_mpmath(n, alpha):
    # |alpha|^2 > LAGUERRE_SAFE: L_n(x) e^{-x/2} from the rescaled
    # recurrence, against 50-digit values at the same float x
    x = abs(alpha) ** 2
    assert x > states.LAGUERRE_SAFE
    with mpmath.workdps(50):
        want = float(mpmath.laguerre(n, 0, x) * mpmath.exp(-mpmath.mpf(x) / 2))
    assert abs(FockState(n).chi(alpha) - want) <= 1e-14
    # a point below the range in the same array keeps its own path's value
    got = FockState(n).chi(np.array([alpha, 1.5, 0.0]))
    assert got.tolist() == [FockState(n).chi(alpha), FockState(n).chi(1.5), 1]


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
    # <xi_l|xi_k> = e^{-(|xi_l|^2 + |xi_k|^2)/2 + xi_l* xi_k}
    total = sum(c_k * c_l.conjugate()
                * cmath.exp(-(abs(xi_l) ** 2 + abs(xi_k) ** 2) / 2
                            + xi_l.conjugate() * xi_k)
                for c_k, xi_k in state.terms
                for c_l, xi_l in state.terms)
    assert total.real == pytest.approx(1.0, abs=1e-12)
    # frozen against the truncated-Fock oracle
    assert state.chi(2.0) == pytest.approx(0.5597491982622725, abs=1e-12)
    assert state.chi_normal(2.0) == pytest.approx(4.136018227291387, abs=1e-11)


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


def test_nan_mixture_weights_are_rejected():
    # NaN fails both w < 0 and the sum check, so only w >= 0 catches it
    message = "mixture weights must be non-negative"
    pair = entangled_cat(1.0, +1)
    for weights in ((math.nan,), (math.nan, 1.0), (0.5, math.nan, 0.5)):
        with pytest.raises(ValueError, match=message):
            Mixture(tuple((w, VACUUM) for w in weights))
        with pytest.raises(ValueError, match=message):
            TwoModeMixture(tuple((w, pair) for w in weights))


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


def test_damped_chi_normal_over_times_equals_per_time_states():
    ts = np.linspace(0.0, 3.0, 31)
    for state in (cat_state(2.0, 0.4), FockState(3), ThermalState(0.7),
                  Mixture(((0.3, FockState(1)), (0.7, cat_state(1.0, 0.0)))),
                  decohere(cat_state(1.2, 0.0), 0.3, 0.2)):
        for n_th in (0.0, 0.8):
            got = decohere(state, ts, n_th).chi_normal(1.5 - 0.4j)
            want = [decohere(state, t, n_th).chi_normal(1.5 - 0.4j)
                    for t in ts.tolist()]
            assert got.shape == ts.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-300)
    with pytest.raises(ValueError, match="gamma_t must be >= 0, got -0.5"):
        decohere(FockState(1), np.array([0.0, -0.5, -1.0]), 0).chi_normal(1.0)
    with pytest.raises(ValueError, match="n_th must be >= 0, got -1"):
        decohere(FockState(1), ts, -1.0).chi_normal(1.0)


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
    assert entangled_cat(1.5, +1).chi2(0.5 + 0.25j, -0.3j) == pytest.approx(
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


def test_json_fock_takes_only_an_integer():
    assert state_from_json({"kind": "fock", "n": 2}) == FockState(2)
    for n in (1.7, 2.0, "2", True):
        with pytest.raises(ValueError, match="fock 'n' must be a JSON integer"):
            state_from_json({"kind": "fock", "n": n})


def test_fock_index_is_any_integer_and_round_trips():
    # an np.int64 was refused, and True was taken and written as "n": true,
    # which state_from_json then rejects
    with pytest.raises(ValueError, match="Fock index must be a non-negative "
                                         "integer, got True"):
        FockState(True)
    for n in (np.int64(2), np.uint8(2), 2):
        state = FockState(n)
        assert type(state.n) is int and state == FockState(2)
        data = json.loads(json.dumps(state_to_json(state)))
        assert data == {"kind": "fock", "n": 2}
        assert state_from_json(data) == state
    for n in (np.True_, 2.0, np.float64(2.0), np.int64(-1)):
        with pytest.raises(ValueError, match="Fock index must be"):
            FockState(n)


def test_rates_and_weights_are_stored_as_floats_and_round_trip():
    # True, "1" and the like were taken and stored as given: JSON then
    # wrote true or "1", which state_from_json refuses, and a string rate
    # only failed when chi was evaluated
    for bad in (True, np.True_, "1", "0.5", 1j, None):
        with pytest.raises(ValueError, match=r"^n_th must be >= 0, got "):
            ThermalState(bad)
        with pytest.raises(ValueError, match=r"^gamma_t must be >= 0, got "):
            Decohered(FockState(1), bad, 0.0)
        with pytest.raises(ValueError, match=r"^n_th must be >= 0, got "):
            Decohered(FockState(1), 0.5, bad)
        with pytest.raises(ValueError, match="mixture weights must be "
                                             "non-negative, got "):
            Mixture(((bad, FockState(1)),))
        with pytest.raises(ValueError, match="mixture weights must be "
                                             "non-negative, got "):
            TwoModeMixture(((bad, entangled_cat(1.0)),))
    with pytest.raises(ValueError, match=r"^gamma_t must be >= 0, got array"):
        Decohered(FockState(1), np.array(["x"]), 0.0)
    for given_ in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        cases = (ThermalState(given_), Decohered(FockState(1), given_, given_),
                 Mixture(((given_, FockState(1)),)),
                 TwoModeMixture(((given_, entangled_cat(1.0)),)))
        for state in cases:
            for value in (getattr(state, "n_th", None),
                          getattr(state, "gamma_t", None),
                          *(w for w, _ in getattr(state, "components", ()))):
                assert value is None or type(value) is float
            data = json.loads(json.dumps(state_to_json(state)))
            assert state_from_json(data) == state
    assert ThermalState(2).n_th == 2.0
    # an array of times is kept as a float array, a copy of the input
    times = [0.0, 1, np.float32(0.5)]
    state = Decohered(FockState(1), times, 0)
    assert state.gamma_t.dtype == float and state.gamma_t.tolist() == [0, 1, 0.5]
    source = np.array([0.1, 0.2])
    state = Decohered(FockState(1), source, 0.0)
    source[0] = 5.0
    assert state.gamma_t.tolist() == [0.1, 0.2]


# the parent of the switch to term arrays read on demand built these terms
# at construction; repr pins every bit, signed zeros included
PINNED_TERMS = [
    (lambda: cat_state(1.1, 0.3),
     "(((0.5732217323274921+0j), 0j), ((0.5476196372522442+0.169398604800191"
     "5j), (1.1+0j)))"),
    (lambda: entangled_cat(0.7, -1),
     "(((0.7628736831906109+0j), (0.7+0j), (0.7+0j)), ((-0.7628736831906109+"
     "0j), (-0.7-0j), (-0.7-0j)))"),
    (lambda: entangled_cat(np.array([0.7, 1.2j]), -1),
     "((((0.7628736831906109+0j), (0.7+0j), (0.7+0j)), ((-0.7628736831906109"
     "+0j), (-0.7-0j), (-0.7-0j))), (((0.7082235072668208+0j), 1.2j, 1.2j), "
     "((-0.7082235072668208+0j), (-0-1.2j), (-0-1.2j))))"),
    (lambda: PairSuperposition(((1.0, 0.3 + 0.1j, -0.2), (0.5j, -0.4, 0.9j),
                                (-0.25, 0.0, 1.1))),
     "(((0.8946000787058048+0j), (0.3+0.1j), (-0.2+0j)), (0.4473000393529024j"
     ", (-0.4+0j), 0.9j), ((-0.2236500196764512+0j), 0j, (1.1+0j)))"),
]


@pytest.mark.parametrize("build, pinned", PINNED_TERMS,
                         ids=["cat", "entangled", "stack", "pair3"])
def test_superposition_terms_are_built_once_on_read(monkeypatch, build,
                                                    pinned):
    calls, tuples = [], states._tuples

    def counted(rows, norm_sq):
        calls.append(1)
        return tuples(rows, norm_sq)
    monkeypatch.setattr(states, "_tuples", counted)
    state = build()
    assert calls == []  # construction keeps the arrays only
    terms = state.terms
    assert repr(terms) == pinned
    built = len(calls)  # once, or once per stack level
    assert state.terms is terms and len(calls) == built > 0
    cls = type(state)
    assert repr(state) == f"{cls.__name__}(terms={pinned})"
    same = build()
    assert same == state and hash(same) == hash(state) == hash((terms,))
    assert same != cls(((1.0, *(0.2,) * cls._MODES),))
    assert (state == terms) is False


def test_superpositions_and_witnesses_are_immutable_slotted_objects():
    cat = entangled_cat(1.2)
    for state in (cat_state(1.1, 0.3), entangled_cat(0.7),
                  paper_witness(1.3, 0.4, 0.3)):
        assert not hasattr(state, "__dict__")
        # the private slots too: a new _arrays would change chi, not ==
        for name in ("terms", "chi", "other", "_terms", "_arrays", "_raw",
                     "_norm_sq"):
            with pytest.raises(AttributeError):
                setattr(state, name, None)
            with pytest.raises(AttributeError):
                delattr(state, name)
        # copies and pickles restore the arrays, not a renormalization;
        # the first clones are taken before terms is read
        for clone in (copy.copy(state), copy.deepcopy(state),
                      pickle.loads(pickle.dumps(state))):
            assert clone == state and repr(clone.terms) == repr(state.terms)
            if isinstance(clone, entanglement.WitnessDescriptor):
                assert (witness_expectation(cat, clone)
                        == witness_expectation(cat, state))
            elif isinstance(clone, PairSuperposition):
                assert clone.chi2(0.3, -0.2j) == state.chi2(0.3, -0.2j)
            else:
                assert clone.chi(0.3) == state.chi(0.3)
    # the caller's term array is copied, so later writes do not reach terms
    source = np.array([[1.0, 0.5], [1.0, -0.5]], dtype=complex)
    state = CoherentSuperposition(source)
    source[:] = 0.0
    assert state.terms[1][1] == -0.5 and state.chi(0.0) == 1.0


def test_stack_members_and_branches_are_their_direct_builds():
    xs = np.array([[0.3, 1.1], [2.0, 0.7j]])
    for sign in (1, -1):
        stack = entangled_cat(xs, sign)
        for row, members in zip(xs.tolist(), stack.terms):
            for x, member in zip(row, members):
                assert repr(member) == repr(entangled_cat(x, sign).terms)
    # a Ramsey branch is built through _normalize on object.__new__(cls)
    psi = cat_state(0.9, 0.4)
    s = RamseySetting(0.5, 0.6 + 0.3j)
    branch, _ = conditional_state(psi, s, +1)
    u, v = ramsey._kraus(s.phi, 0.0)[1][0]
    raw = ([(u * c, xi) for c, xi in psi.terms]
           + [(v * c, xi) for c, xi in ramsey._displaced(psi.terms, s.alpha)])
    direct = CoherentSuperposition(raw)
    assert branch == direct and repr(branch) == repr(direct)
    assert np.array_equal(branch.chi(np.array([0.3, -1j])),
                          direct.chi(np.array([0.3, -1j])))
    pair, _ = prepare_conditional(psi, 0.9, 0.2, s, (-1, +1))
    assert type(pair) is PairSuperposition and len(pair.terms) == 16
    # JSON writes terms as read, and reads back the same state
    for state in (branch, pair, entangled_cat(1.2, -1)):
        data = json.loads(json.dumps(state_to_json(state)))
        assert [t["coeff"] for t in data["terms"]] == [
            [c.real, c.imag] for c, *_ in state.terms]
        back = state_from_json(data)
        assert type(back) is type(state) and len(back.terms) == len(state.terms)
        value = (back.chi2(0.3, -0.2j) - state.chi2(0.3, -0.2j)
                 if isinstance(state, PairSuperposition)
                 else back.chi(0.3) - state.chi(0.3))
        assert abs(value) <= 1e-15


FOCK = {"kind": "fock", "n": 1}


@pytest.mark.parametrize("data, key", [
    ({"kind": "thermal", "n_th": "1.5"}, "n_th"),
    ({"kind": "thermal", "n_th": True}, "n_th"),
    ({"kind": "cat", "xi0": True}, "xi0"),
    ({"kind": "cat", "xi0": ["1", 0]}, "xi0"),
    ({"kind": "cat", "xi0": [1, False]}, "xi0"),
    ({"kind": "cat", "xi0": 1.0, "theta": "0"}, "theta"),
    ({"kind": "decohered", "inner": FOCK, "gamma_t": "0.1", "n_th": 0.0},
     "gamma_t"),
    ({"kind": "decohered", "inner": FOCK, "gamma_t": 0.1, "n_th": False},
     "n_th"),
    ({"kind": "mixture", "components": [{"weight": "1", "state": FOCK}]},
     "weight"),
    ({"kind": "coherent_superposition",
      "terms": [{"coeff": [True, 0], "amplitude": 0.5}]}, "coeff"),
    ({"kind": "pair_superposition",
      "terms": [{"coeff": 1.0, "amp1": 0.5, "amp2": "0.5"}]}, "amp2"),
])
def test_json_numbers_are_json_numbers(data, key):
    # as fock 'n': a string or a boolean is not read as a number
    with pytest.raises(ValueError, match=f"'{key}' must be a JSON number"):
        state_from_json(data)


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        state_from_json({"kind": "squeezed"})
    with pytest.raises(ValueError):
        state_from_json({"terms": []})


@pytest.mark.parametrize("count", [3, 0])
def test_stack_and_point_mismatch_is_named(count):
    # numpy's broadcast and reshape messages did not name the cause
    stack = entangled_cat(np.array([1.0, 2.0]))
    points = np.zeros(count)
    with pytest.raises(ValueError, match=rf"points with leading axes "
                                         rf"\({count},\) do not match a "
                                         rf"stack of shape \(2,\)"):
        stack.chi2(points, points)
    # points led by the stack, or by 1, and shared points still evaluate
    for shape, want in (((2,), (2,)), ((2, count), (2, count)),
                        ((1, count), (2, count)), ((), (2,))):
        assert stack.chi2(np.zeros(shape), np.zeros(shape)).shape == want


def test_json_of_a_stack_names_the_stack():
    # a stacked state evaluates as one, but has no single JSON form
    stack = entangled_cat(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="a stack of 2 states has no single "
                                         "JSON form; take one member"):
        state_to_json(stack)
    cats = CoherentSuperposition(
        np.array([[[1, 0], [1, x]] for x in (1, 2, 3)]))
    with pytest.raises(ValueError, match="a stack of 3 states"):
        state_to_json(Mixture(((1.0, cats),)))
    times = decohere(cat_state(1, 0), np.array([0.1, 0.2]), 0.0)
    with pytest.raises(ValueError, match="a stack of 2 states has no single "
                                         "JSON form; take one member"):
        state_to_json(times)


PAIR_JSON = {"kind": "pair_superposition",
             "terms": [{"coeff": [1, 0], "amp1": [1, 0], "amp2": [1, 0]}]}
FOCK_JSON = {"kind": "fock", "n": 1}


def mixture_json(*parts):
    return {"kind": "mixture", "components": [
        {"weight": 1 / len(parts), "state": part} for part in parts]}


@pytest.mark.parametrize("build, message", [
    (lambda: CoherentSuperposition(()), "superposition needs at least one term"),
    (lambda: PairSuperposition(((1.0, 0.5),)),
     "a term is a coefficient and 2 amplitude(s)"),
    (lambda: CoherentSuperposition(((np.nan, 0.5),)),
     "coefficient must be finite, got (nan+0j)"),
    (lambda: PairSuperposition(((1.0, 0.5, complex(np.inf, 0)),)),
     "amplitude must be finite, got (inf+0j)"),
    (lambda: entangled_cat(1.0, 0), "sign must be +1 or -1, got 0"),
    # a composite state's parts have its mode count, in code and from JSON
    (lambda: Decohered(entangled_cat(1.0), 0.1, 0.0),
     "Decohered takes single-mode states, got PairSuperposition"),
    (lambda: state_from_json({"kind": "decohered", "inner": PAIR_JSON,
                              "gamma_t": 0.1, "n_th": 0}),
     "Decohered takes single-mode states, got PairSuperposition"),
    (lambda: ProductState(1, 2), "ProductState takes single-mode states, got int"),
    (lambda: ProductState(entangled_cat(1.0), VACUUM),
     "ProductState takes single-mode states, got PairSuperposition"),
    (lambda: Mixture(((1.0, entangled_cat(1.0)),)),
     "mixture mixes single- and two-mode components"),
    (lambda: TwoModeMixture(((1.0, cat_state(1.0, 0)),)),
     "mixture mixes single- and two-mode components"),
    (lambda: state_from_json(mixture_json(FOCK_JSON, PAIR_JSON)),
     "mixture mixes single- and two-mode components"),
    (lambda: state_from_json(mixture_json(PAIR_JSON, FOCK_JSON)),
     "mixture mixes single- and two-mode components"),
    (lambda: state_from_json(mixture_json()),
     "mixture needs at least one component"),
    # a component that is no state is named as such, before the mode rule
    (lambda: Mixture(((1.0, 5),)), "mixture components must be states, got int"),
    (lambda: TwoModeMixture(((0.5, entangled_cat(1.0)), (0.5, "pair"))),
     "mixture components must be states, got str"),
    (lambda: state_from_json(mixture_json(FOCK_JSON, 5)),
     "state JSON must be an object with a 'kind' field"),
])
def test_constructors_name_the_refused_input(build, message):
    # each refusal here was reached by no test; a composite of the wrong
    # mode count once built and evaluated its points as the wrong pairs
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_the_mode_rules_keep_the_right_mode_count():
    # a mixture read from JSON takes its class from its components
    assert isinstance(state_from_json(mixture_json(PAIR_JSON, PAIR_JSON)),
                      TwoModeMixture)
    assert isinstance(state_from_json(mixture_json(FOCK_JSON)), Mixture)
    mix = Mixture(((1.0, cat_state(1.0, 0)),))
    product = ProductState(decohere(mix, 0.2, 0.1), VACUUM)
    assert product.chi2(0.3, 0.0) == decohere(mix, 0.2, 0.1).chi(0.3)


def test_json_of_an_unknown_object_is_refused():
    with pytest.raises(TypeError, match="^cannot serialize int$"):
        state_to_json(3)

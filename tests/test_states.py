import ast
import cmath
import inspect
import math
from pathlib import Path

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
    ThermalState,
    TwoModeMixture,
    cat_state,
    decohere,
    entangled_cat,
    state_from_json,
    state_to_json,
)
from catwitness import entanglement, states
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
    for n in [*range(13), 50, 150, 200]:
        got = _laguerre(n, x)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, eval_laguerre(n, x))
        for xi in x[::50].tolist():
            assert _laguerre(n, xi) == eval_laguerre(n, xi)


SINGLE_MODE = [cat_state(1.5, 0.7),
               CoherentSuperposition(((1.0, 0.3 - 0.2j),)),
               VACUUM, FockState(3), ThermalState(0.8),
               Mixture(((0.4, FockState(0)), (0.6, cat_state(1.0, 0.0)))),
               decohere(FockState(0), 0.3, 0.5),
               decohere(cat_state(1.0, 0.0), 0.3, 2.0)]
TWO_MODE = [entangled_cat(1.2, -1),
            PairSuperposition(((1.0, 0.5, 0.2j), (0.5j, -0.2j, 0.5))),
            ProductState(FockState(0), ThermalState(0.5)),
            TwoModeMixture(((0.5, entangled_cat(1.0, +1)),
                            (0.5, ProductState(VACUUM, FockState(2)))))]


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
    # each family implements only the s-ordered hook they call
    bases = (states.SingleModeState, states.TwoModeState)
    families = [cls for cls in vars(states).values() if inspect.isclass(cls)
                and issubclass(cls, bases) and cls not in bases]
    assert len(families) == 8
    for cls in families:
        assert "_ordered" in vars(cls), cls.__name__
        assert not {"chi", "chi_normal", "chi2"} & set(vars(cls)), cls.__name__


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

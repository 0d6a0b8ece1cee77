import ast
import cmath
import functools
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, gammaln

from catwitness import (
    VACUUM,
    CoherentSuperposition,
    Decohered,
    FockState,
    Mixture,
    PairSuperposition,
    ProductState,
    ThermalState,
    cat_state,
    decohere,
    entangled_cat,
    oracle,
    states,
)
from catwitness.oracle import (
    TruncationError,
    displacement_matrix,
    initial_dim,
    oracle_chi,
    oracle_chi2,
)
from catwitness.ramsey import RamseySetting, prepare_conditional
from catwitness.states import TwoModeMixture


def state_to_matrix(state, dim):
    """Density matrix V V^dagger + diag(p) of the oracle's realization of a
    single-mode state, the trace leak checked: the dense matrix that the
    contraction vdot(V, D V) + diag(D).p is tested against."""
    v, p = oracle._realize(state, dim)
    leakage = abs(1.0 - (np.vdot(v, v).real + p.sum()))
    if leakage > oracle.TRACE_TOL:
        raise TruncationError(dim, leakage)
    return v @ v.conj().T + np.diag(p)


def expval(operator, rho):
    """tr{A rho} of two square matrices of one shape."""
    if operator.shape != rho.shape:
        raise ValueError(f"shape mismatch: {operator.shape} vs {rho.shape}")
    return complex(np.einsum("ij,ji->", operator, rho))


def test_log_factorial_table():
    table = oracle._log_factorials(4096)
    want = gammaln(np.arange(4096) + 1.0)
    assert table[:2].tolist() == [0.0, 0.0]
    assert np.all(np.abs(table - want) <= 1e-15 * np.maximum(1.0, want))
    assert oracle._log_factorials(4096) is table  # one table per cutoff
    with pytest.raises(ValueError, match="read-only"):
        table[3] = 0.0


def test_displacement_matrix_small_entries():
    # <m|D(alpha)|n> closed forms for the 2x2 corner
    a = 0.7 - 0.4j
    x = abs(a) ** 2
    d = displacement_matrix(a, 6)
    g = math.exp(-x / 2.0)
    assert d[0, 0] == pytest.approx(g, abs=1e-12)
    assert d[1, 0] == pytest.approx(g * a, abs=1e-12)
    assert d[0, 1] == pytest.approx(-g * a.conjugate(), abs=1e-12)
    assert d[1, 1] == pytest.approx(g * (1 - x), abs=1e-12)
    assert d[2, 1] == pytest.approx(g * a * math.sqrt(2) * (1 - x / 2),
                                    abs=1e-12)


def test_displacement_matrix_matches_scalar_laguerre():
    # both triangles against sqrt(n!/m!) a^(m-n) e^{-|a|^2/2} L_n^{(m-n)}(|a|^2)
    # and <n|D(a)|m> = conj(<m|D(-a)|n>), through scipy's Laguerre reference
    dim = 60
    for a in (0.3 + 0.1j, -1.2 + 0.7j, 2.5j, -1.5 - 2.0j):
        x = abs(a) ** 2
        d = displacement_matrix(a, dim)
        worst = 0.0
        for m in range(dim):
            for n in range(m + 1):
                base = (math.sqrt(math.factorial(n) / math.factorial(m))
                        * math.exp(-x / 2.0) * eval_genlaguerre(n, m - n, x))
                worst = max(worst, abs(d[m, n] - base * a ** (m - n)),
                            abs(d[n, m] - base * (-a.conjugate()) ** (m - n)))
        assert worst < 1e-12


def test_displacement_matrix_unitary_block():
    # the top block is unitary up to truncation leakage
    d = displacement_matrix(1.0 + 0.5j, 40)
    block = (d.conj().T @ d)[:12, :12]
    assert np.max(np.abs(block - np.eye(12))) < 1e-9


def test_displacement_composition_phase():
    # D(a) D(b) = e^{i Im(a b*)} D(a+b)
    a, b = 0.6 + 0.2j, -0.3 + 0.5j
    dim = 36
    left = displacement_matrix(a, dim) @ displacement_matrix(b, dim)
    phase = np.exp(1j * (a * b.conjugate()).imag)
    right = phase * displacement_matrix(a + b, dim)
    assert np.max(np.abs(left - right)[:10, :10]) < 1e-9


def test_state_to_matrix_trace_and_purity():
    dim = 40
    for state in [cat_state(1.5, 0.0), FockState(3), ThermalState(1.0),
                  Mixture(((0.5, VACUUM), (0.5, FockState(2))))]:
        rho = state_to_matrix(state, dim)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    pure = state_to_matrix(cat_state(1.5, 0.0), dim)
    assert np.trace(pure @ pure).real == pytest.approx(1.0, abs=1e-8)


def test_state_to_matrix_truncation_error():
    with pytest.raises(TruncationError):
        state_to_matrix(CoherentSuperposition(((1.0, 4.0),)), 8)
    with pytest.raises(TruncationError):
        state_to_matrix(FockState(10), 8)


def test_decohered_thermal_bath_has_no_matrix_path():
    with pytest.raises(ValueError):
        state_to_matrix(decohere(VACUUM, 0.5, 2.0), 30)


def apply_damping(rho, gamma_t):
    """Amplitude-damping Kraus sum on a truncated density matrix.

    The Kraus operator A_k has one shifted diagonal, <n-k|A_k|n> = a[k, n]
    = sqrt(C(n, k) eta^(n-k) (1-eta)^k), so A_k rho A_k^T is rho's
    lower-right block scaled by outer(a[k, k:], a[k, k:]), moved to the top
    left.
    """
    eta = math.exp(-gamma_t)
    if eta == 1.0:
        return rho
    dim = rho.shape[0]
    a = oracle._kraus_table(dim, eta)
    out = np.zeros_like(rho)
    for k in range(dim):
        out[:dim - k, :dim - k] += np.outer(a[k, k:], a[k, k:]) * rho[k:, k:]
    return out


def _dense_matrix(state, dim):
    """The dense density matrix the oracle's realization V V^dagger +
    diag(p) is checked against: V V^dagger of a superposition's column, a
    one-hot or thermal diagonal, the weighted sum of a mixture's matrices,
    and apply_damping's Kraus sum."""
    if isinstance(state, CoherentSuperposition):
        c, xi = oracle._terms(state)
        v = (c[:, None] * oracle._coherent_vectors(xi, dim)).sum(axis=0)
        return np.outer(v, v.conj())
    n = np.arange(dim)
    if isinstance(state, FockState):
        return np.diag(n == state.n).astype(complex)
    if isinstance(state, ThermalState):
        p = state.n_th ** n / (1.0 + state.n_th) ** (n + 1)
        return np.diag(p).astype(complex)
    if isinstance(state, Mixture):
        return functools.reduce(np.add, (w * _dense_matrix(s, dim)
                                         for w, s in state.components))
    assert isinstance(state, Decohered) and state.n_th == 0
    return apply_damping(_dense_matrix(state.inner, dim), state.gamma_t)


def test_damping_matches_closed_form():
    # pure-loss channel on a cat state, checked against the analytic chi_N
    state = cat_state(1.5, 0.0)
    gamma_t = 0.6
    dim = 48
    rho = apply_damping(state_to_matrix(state, dim), gamma_t)
    closed = decohere(state, gamma_t, 0.0)
    for a in (0.5, 1.0 + 0.3j, -0.8j):
        got = expval(displacement_matrix(a, dim), rho)
        assert got == pytest.approx(closed.chi(a), abs=1e-9)


def test_oracle_chi_matches_closed_forms():
    cases = [
        (cat_state(2.0, 0.0), 2.0),
        (cat_state(1.0, 0.7), 0.5 - 0.8j),
        (FockState(3), 1.1 + 0.2j),
        (ThermalState(2.0), 0.7 + 0.2j),
        (Mixture(((0.3, FockState(1)), (0.7, VACUUM))), 1.5),
        (decohere(cat_state(1.0, 0.0), 0.4, 0.0), 0.9),
    ]
    for state, a in cases:
        assert oracle_chi(state, a) == pytest.approx(state.chi(a), abs=1e-9)
    assert oracle_chi(cat_state(2.0, 0.0), 2.0) == pytest.approx(
        0.5597491982622725, abs=1e-9)


def test_oracle_chi_normal_scaling():
    # chi_N is e^{|alpha|^2/2} times the oracle's chi
    state = cat_state(1.0, 0.0)
    a = 1.2
    assert state.chi_normal(a) == pytest.approx(
        math.exp(abs(a) ** 2 / 2) * oracle_chi(state, a), abs=1e-12)


def test_oracle_chi2_matches_closed_forms():
    cases = [
        (entangled_cat(1.0, +1), 0.4, -0.3j),
        (entangled_cat(1.5, -1), 0.2 + 0.5j, 0.7),
        (ProductState(cat_state(1.0, 0.0), ThermalState(0.5)), 0.6, 0.9j),
        (prepare_conditional(cat_state(0.8, 0.0), 0.7, 0.35,
                             RamseySetting(0.4, 1.1), (1, -1))[0], 0.5j, -0.4),
        (TwoModeMixture(((0.6, entangled_cat(1.0, -1)),
                         (0.4, ProductState(cat_state(0.7, 0.0), FockState(1))))),
         0.3 - 0.4j, 0.8),
    ]
    assert len(cases[3][0].terms) == 16
    for state, a, b in cases:
        assert oracle_chi2(state, a, b) == pytest.approx(
            state.chi2(a, b), abs=1e-9)


def test_oracle_thermal_needs_extra_dim(monkeypatch):
    # a first cutoff that truncates the thermal tail leaks more than
    # TRACE_TOL: the run names the leak and builds no D, and the state's own
    # cutoff gives the value
    assert oracle_chi(ThermalState(2.0), 0.7 + 0.2j) == pytest.approx(
        0.26580295908892654, abs=1e-9)
    builds, _ = _record_builds(monkeypatch)
    monkeypatch.setattr(oracle, "initial_dim", lambda state: 8)
    with pytest.raises(TruncationError, match="dim=8 leaks"):
        oracle_chi(ThermalState(2.0), 0.7 + 0.2j)
    assert builds == []


def test_oracle_chi2_checks_the_trace_of_each_product_factor(monkeypatch):
    # a leaking factor is named as a leak, not as a failed convergence
    monkeypatch.setattr(oracle, "initial_dim", lambda state: 8)
    with pytest.raises(TruncationError, match="dim=8 leaks"):
        oracle_chi2(ProductState(ThermalState(2.0), VACUUM), 0.3, 0)
    with pytest.raises(TruncationError, match="dim=8 leaks"):
        oracle_chi2(ProductState(VACUUM, ThermalState(2.0)), 0.3, 0)


def test_pair_run_compares_its_first_cutoff_with_the_doubling(monkeypatch):
    # a pair has no leak check: an undersized first cutoff is caught by its
    # value at d read on the leading blocks against the value at 2d
    builds, _ = _record_builds(monkeypatch)
    monkeypatch.setattr(oracle, "initial_dim", lambda state: 2)
    with pytest.raises(TruncationError, match="dim=2 and 4 differ by") as exc:
        oracle_chi2(entangled_cat(1.0, +1), 0.3, 0.2j)
    assert exc.value.dim == 4 and builds == [((1, 2), 4)]


@pytest.mark.parametrize("d, error", [
    (12, "dim=12 leaks"),
    (14, "dim=14 and 28 differ by"),
    (16, None),
])
def test_loss_checks_its_first_cutoff_on_the_lossy_state(monkeypatch, d,
                                                         error):
    # a loss is realized once, at 2d, and its d blocks are P_d rho_2d P_d:
    # the d leak and the d-vs-2d check test the lossy state's cutoff, and
    # the inner state's is checked by the 2d leak alone, at TRACE_TOL. At
    # d = 16 the inner cat leaks 1.1e-2 of its trace, which a realization
    # of the inner state at d would name; here the run returns a value off
    # by more than CONVERGENCE_TOL, though within 1e-8
    state = decohere(cat_state(3.0, 0.0), 2.0, 0.0)
    assert initial_dim(state) == 50
    monkeypatch.setattr(oracle, "initial_dim", lambda state: d)
    if error:
        with pytest.raises(TruncationError, match=error):
            oracle_chi(state, 0.5 + 0.3j)
    else:
        err = abs(oracle_chi(state, 0.5 + 0.3j) - state.chi(0.5 + 0.3j))
        assert oracle.CONVERGENCE_TOL < err < 1e-8


_ELEMENTWISE = [
    (cat_state(1.2, 0.4), oracle_chi),
    (decohere(cat_state(1.2, 0.4), 0.3, 0.0), oracle_chi),
    (Mixture(((0.5, FockState(3)), (0.5, cat_state(2.0, 0.0)))), oracle_chi),
    (entangled_cat(1.0, -1), oracle_chi2),
    (ProductState(cat_state(1.0, 0.3), ThermalState(0.5)), oracle_chi2),
]


@pytest.mark.parametrize("points_per_block", [None, 5])
def test_oracle_is_elementwise_over_arrays(monkeypatch, points_per_block):
    # an array of points keeps its shape, each entry its scalar call's value
    # bit for bit: in one build, or with BUILD_ELEMENTS cut to 5 points of
    # chi (2 of chi2) over several
    alpha = np.array([[0.3 + 0.1j, -0.8, 1.1j, 0.0],
                      [1.5 - 0.5j, -0.2j, 0.7 + 1.3j, -1.9],
                      [0.05, -1.1 - 1.1j, 2.0j, 0.6 - 0.9j]])
    beta = np.array([0.4j, -0.3, 0.0, 1.2 + 0.2j])
    for state, run in _ELEMENTWISE:
        args = (alpha,) if run is oracle_chi else (alpha, beta)
        modes, dim = len(args), 2 * initial_dim(state)
        with monkeypatch.context() as mp:
            if points_per_block:
                mp.setattr(oracle, "BUILD_ELEMENTS",
                           points_per_block * dim ** 2)
            builds, _ = _record_builds(mp)
            got = run(state, *args)
        step = points_per_block // modes if points_per_block else alpha.size
        blocks = [min(step, alpha.size - i) for i in range(0, alpha.size, step)]
        assert builds == [((n, 2)[:modes], dim) for n in blocks]
        assert got.shape == alpha.shape and got.dtype == complex
        for idx in np.ndindex(alpha.shape):
            scalar = run(state, *(complex(np.broadcast_to(x, alpha.shape)[idx])
                                  for x in args))
            assert got[idx] == scalar


def test_a_later_block_raises_its_points_scalar_error(monkeypatch):
    # at first cutoff 13 the thermal state's d and 2d values differ by
    # 2.2e-8 to 5.5e-8 at |alpha| >= 2, and by 6.3e-7 at 0: blocks of two
    # points run up to the third, whose point 0 raises as its scalar call
    state, points = ThermalState(0.5), np.array([2.0, 3.0, 4.0, 6.0, 0.0])
    monkeypatch.setattr(oracle, "initial_dim", lambda state: 13)
    monkeypatch.setattr(oracle, "CONVERGENCE_TOL", 1e-7)
    monkeypatch.setattr(oracle, "BUILD_ELEMENTS", 2 * 26 ** 2)
    passing = oracle_chi(state, points[:-1])
    assert passing.tolist() == [oracle_chi(state, z) for z in points[:-1]]
    with pytest.raises(TruncationError) as scalar:
        oracle_chi(state, 0.0)
    builds, _ = _record_builds(monkeypatch)
    with pytest.raises(TruncationError) as exc:
        oracle_chi(state, points)
    assert str(exc.value) == str(scalar.value)
    assert str(exc.value).startswith("dim=13 and 26 differ by 6.272e-07")
    assert exc.value.dim == scalar.value.dim == 26
    assert builds == [((2,), 26), ((2,), 26), ((1,), 26)]


@pytest.mark.parametrize("run, message", [
    (lambda: oracle_chi(decohere(cat_state(1, 0), 0.3, 0.5), np.array([])),
     "no independent Fock-space path for thermal decoherence"),
    (lambda: oracle_chi(cat_state(60, 0), np.zeros((0, 3))),
     "first cutoff dim=4175 needs dim=8350, above MAX_DIM=4096"),
    (lambda: oracle_chi2(entangled_cat(np.array([1.0, 2.0])), np.array([]),
                         0.1),
     "a stack of 2 states has no oracle route; take one member"),
])
def test_no_points_are_refused_as_one_point_is(run, message):
    # the cap, realization and stack refusals run before the first block
    with pytest.raises(ValueError, match=message):
        run()


def test_no_points_give_an_empty_array_of_their_shape():
    got = oracle_chi(cat_state(1.0, 0.0), np.zeros((0, 3)))
    assert got.shape == (0, 3) and got.dtype == complex
    got = oracle_chi2(entangled_cat(1.0), np.zeros((2, 0)), 0.1)
    assert got.shape == (2, 0) and got.dtype == complex


def test_oracle_takes_a_list_and_refuses_non_finite_points(monkeypatch):
    state = cat_state(1.0, 0.0)
    got = oracle_chi(state, [0.1, 0.2])
    assert got.tolist() == [oracle_chi(state, 0.1), oracle_chi(state, 0.2)]
    assert oracle_chi2(entangled_cat(1.0), [0.1, 0.2], 0.3).tolist() == [
        oracle_chi2(entangled_cat(1.0), a, 0.3) for a in (0.1, 0.2)]
    # a non-finite point is refused before any realization, in the closed
    # forms' words, not blamed on the cutoff
    realized = _record_realizations(monkeypatch)
    with pytest.raises(ValueError,
                       match=r"^amplitude must be finite, got \(nan\+0j\)$"):
        oracle_chi(state, math.nan)
    with pytest.raises(ValueError,
                       match=r"^amplitude must be finite, got \(inf\+0j\)$"):
        oracle_chi2(entangled_cat(1.0), 0.1, [0.2, math.inf])
    assert realized == []


def test_fock_chi_zero_point():
    # tr{D(1)|1><1|} = 0 exactly
    assert abs(oracle_chi(FockState(1), 1.0)) < 1e-9


def test_oracle_chi_large_fock_stays_finite():
    # the normalised recurrence keeps a cutoff of 1240 finite
    assert oracle_chi(FockState(150), 2.0) == pytest.approx(
        FockState(150).chi(2.0), abs=1e-8)


def test_truncation_error_stays_within_max_dim(monkeypatch):
    builds, _ = _record_builds(monkeypatch)
    monkeypatch.setattr(oracle, "MAX_DIM", 64)
    needs = "first cutoff dim=208 needs dim=416, above MAX_DIM=64"
    with pytest.raises(TruncationError, match=needs) as exc:
        oracle_chi(cat_state(10.0, 0.0), 0.5)
    assert exc.value.dim == 416 and builds == []
    monkeypatch.setattr(oracle, "CONVERGENCE_TOL", 0.0)
    differ = r"dim=2 and 4 differ by .* >= CONVERGENCE_TOL=0\.0"
    with pytest.raises(TruncationError, match=differ) as exc:
        oracle_chi(FockState(1), 0.5)
    assert exc.value.dim == 4 and builds == [((1,), 4)]
    monkeypatch.setattr(oracle, "_contract",
                        lambda op, *operands: complex("nan"))
    with pytest.raises(TruncationError, match="non-finite") as exc:
        oracle_chi(FockState(1), 0.5)
    assert exc.value.dim == 2


def test_displacement_matrix_is_the_leading_block_of_a_larger_cutoff():
    # <m|D|n> does not depend on the cutoff: the cutoff-d matrix is exactly
    # the leading block of the cutoff-2d one
    for a in (0.3 + 0.1j, -1.2 + 0.7j, 2.5j, -1.5 - 2.0j, 1e-3):
        for d in (1, 5, 24, 45, 90):
            big = displacement_matrix(a, 2 * d)
            assert np.array_equal(big[:d, :d], displacement_matrix(a, d))


def test_stacked_displacement_matrix_equals_scalar_calls():
    amps = np.array([[0.3 + 0.1j, 0.0, -1.2 + 0.7j],
                     [2.5j, -1.5 - 2.0j, 1e-3]])
    dim = 30
    stack = displacement_matrix(amps, dim)
    assert isinstance(stack, np.ndarray) and stack.shape == (2, 3, dim, dim)
    for idx in np.ndindex(amps.shape):
        assert np.array_equal(stack[idx],
                              displacement_matrix(complex(amps[idx]), dim))
    assert np.array_equal(stack[0, 1], np.eye(dim))
    assert np.array_equal(displacement_matrix(0j, dim), np.eye(dim))
    assert type(displacement_matrix(0.5j, dim)) is np.ndarray
    assert displacement_matrix(np.array(0.5j), dim).shape == (dim, dim)


def _gathered_displacement_stack(alpha, dim):
    """The previous build of D: four ufunc calls per Laguerre step, then
    np.tril_indices gathers and scatters; the reference for the strided
    build."""
    shape, alpha = alpha.shape, alpha.reshape(-1)
    amp, log_amp, phase = oracle._polar(alpha)
    n = np.arange(dim)
    h = np.zeros((dim, alpha.size, dim))
    x = amp ** 2
    h[0] = np.exp(n * log_amp - x / 2.0 - 0.5 * oracle._log_factorials(dim))
    coef = ((2 * n[:-1] + 1)[:, None, None] - x) + n
    root = list(np.sqrt(n[:, None] * (n[:, None] + n)))
    hn, t = list(h), np.empty_like(h[0])
    for m, c in enumerate(coef):
        nxt = hn[m + 1]
        np.multiply(c, hn[m], out=t)
        np.multiply(root[m], hn[m - 1], out=nxt)
        np.subtract(t, nxt, out=nxt)
        np.divide(nxt, root[m + 1], out=nxt)
    rows, cols = np.tril_indices(dim)
    k = rows - cols
    mag = h.transpose(1, 0, 2)[:, cols, k]
    out = np.empty((alpha.size, dim, dim), dtype=complex)
    out[:, rows, cols] = mag * (phase ** n)[:, k]
    out[:, cols, rows] = mag * ((-phase.conjugate()) ** n)[:, k]
    out[alpha == 0] = np.eye(dim)
    return out.reshape(shape + (dim, dim))


def _stepped_laguerre_rows(h, x):
    """The previous recurrence step: 2-D (B, dim) row views and keyword
    outputs, the same three ufunc calls in the same order; the reference
    for the flat-row step, which must give the same bits."""
    dim = h.shape[0]
    n = np.arange(dim)
    root = np.sqrt(n[:, None] * (n[:, None] + n))
    q = (((2 * n[:-1] + 1)[:, None, None] - x) + n) / root[1:, None]
    r = root[:-1] / root[1:]
    hn, t = list(h), np.empty_like(h[0])
    for m in range(dim - 1):
        nxt = hn[m + 1]
        np.multiply(q[m], hn[m], out=nxt)
        np.multiply(r[m], hn[m - 1], out=t)
        np.subtract(nxt, t, out=nxt)


_AMPS = np.array([0.3 + 0.1j, -1.2 + 0.7j, 0.0, 2.5j, 1e-3, -1.5 - 2.0j])


def _stepped_build(monkeypatch, alpha, dim):
    """D from the previous recurrence step."""
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_laguerre_rows", _stepped_laguerre_rows)
        return displacement_matrix(alpha, dim)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_flat_row_step_equals_the_stepped_rows(monkeypatch, size):
    # same operations in the same order: the same D, bit for bit, at every
    # cutoff from 1 (no step) on, with and without a zero amplitude
    for dim in range(1, 131):
        alpha = np.roll(_AMPS, dim)[:size]
        assert np.array_equal(displacement_matrix(alpha, dim),
                              _stepped_build(monkeypatch, alpha, dim))


@pytest.mark.parametrize("alpha", [0.01j, cmath.rect(2.5, 0.8)],
                         ids=["0.01", "2.5"])
def test_flat_row_step_equals_the_stepped_rows_at_a_large_cutoff(
        monkeypatch, alpha):
    want = _stepped_build(monkeypatch, alpha, 2400)
    assert np.array_equal(displacement_matrix(alpha, 2400), want)


@pytest.mark.parametrize("dim", [1, 5, 45, 90, 180])
def test_strided_build_matches_the_gathered_build(dim):
    # the ratio tables round differently from the four-call step; the
    # recurrence's own rounding near |alpha| = 1e-3 reaches 2e-13 at dim 180
    # in both builds (against 40-digit Laguerre values), so they are
    # compared at the 1e-12 to which oracle outputs are held
    amps = np.array([[0.3 + 0.1j, 0.0, -1.2 + 0.7j],
                     [2.5j, -1.5 - 2.0j, 1e-3]])
    got = displacement_matrix(amps, dim)
    want = _gathered_displacement_stack(amps, dim)
    assert got.shape == want.shape == (2, 3, dim, dim)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(got[0, 1], np.eye(dim))
    if dim <= 90:
        assert np.max(np.abs(got - want)) <= 1e-13


def _gathered_kraus_table(dim, eta):
    """The previous build of the Kraus table: index gathers and a where;
    the reference for the Toeplitz views, which do the same arithmetic."""
    n = np.arange(dim)
    kc = n[:, None]
    lg = oracle._log_factorials(dim)
    log_sq = (lg - lg[kc] - lg[np.abs(n - kc)]
              + (n - kc) * math.log(eta) + kc * math.log1p(-eta))
    return np.exp(0.5 * np.where(n >= kc, log_sq, -np.inf))


@pytest.mark.parametrize("dim", [1, 2, 24, 117, 480])
def test_kraus_table_equals_the_gathered_table(dim):
    for eta in (1.0 - 1e-12, 0.99, 0.67, 0.2, 1e-300):
        assert np.array_equal(oracle._kraus_table(dim, eta),
                              _gathered_kraus_table(dim, eta))


_LOSSLESS_MIX = Mixture(((0.4, FockState(2)), (0.6, cat_state(1.2, 0.5))))
_CAT = cat_state(1.5, 0.3)


# the first six ids are the names these cases are recorded under
@pytest.mark.parametrize("state", [
    pytest.param(_CAT, id="state0-1"),
    pytest.param(CoherentSuperposition(((1.0, 0.8 - 0.6j),)), id="state1-1"),
    pytest.param(FockState(3), id="state2-1"),
    pytest.param(_LOSSLESS_MIX, id="state3-2"),
    pytest.param(decohere(_CAT, 0.4, 0.0), id="state4-dim"),
    pytest.param(decohere(_LOSSLESS_MIX, 0.4, 0.0), id="state5-None"),
    pytest.param(ThermalState(0.7), id="thermal"),
    pytest.param(ThermalState(0.0), id="thermal-zero"),
    pytest.param(decohere(ThermalState(0.6), 0.3, 0.0), id="lossy-thermal"),
    pytest.param(decohere(decohere(_CAT, 0.3, 0.0), 0.5, 0.0),
                 id="nested-loss"),
    pytest.param(Mixture(((0.3, ThermalState(0.5)),
                          (0.7, decohere(FockState(2), 0.4, 0.0)))),
                 id="thermal-and-lossy-fock"),
])
def test_factor_route_equals_dense_route(state):
    a = 0.7 - 0.4j
    for dim in (24, 48):
        d = displacement_matrix(a, dim)
        rho = _dense_matrix(state, dim)
        assert np.max(np.abs(state_to_matrix(state, dim) - rho)) <= 1e-15
        got = oracle._contract(d, *oracle._realize(state, dim))
        assert abs(got - expval(d, rho)) <= 1e-14
    def dense_at(state, d):
        # the run's protocol on the dense matrix at 2d: d is read on the
        # leading blocks, P_d rho_2d P_d
        rho = _dense_matrix(state, 2 * d)
        return lambda operator: [expval(operator[:n, :n], rho[:n, :n])
                                 for n in (d, 2 * d)]

    dense, = oracle._converge(state, np.array([a]), dense_at)
    assert abs(oracle_chi(state, a) - dense) <= 1e-14


@pytest.mark.parametrize("n_th", [8.0, 20.0])
def test_oracle_chi_of_a_hot_thermal_state(n_th):
    # n_th^n / (1 + n_th)^(n+1) overflows to inf / inf at the cutoffs these
    # need; r^n / (1 + n_th) underflows to 0 instead
    state = ThermalState(n_th)
    assert abs(oracle_chi(state, 0.1) - state.chi(0.1)) <= 1e-9


@pytest.mark.parametrize("state", [
    CoherentSuperposition(((1.0, 4.0),)),
    decohere(CoherentSuperposition(((1.0, 4.0),)), 0.1, 0.0),
    ThermalState(2.0),
])
def test_leaking_factor_raises_before_any_build(monkeypatch, state):
    builds, _ = _record_builds(monkeypatch)
    monkeypatch.setattr(oracle, "MAX_DIM", 16)  # the leak raises, not the cap
    monkeypatch.setattr(oracle, "initial_dim", lambda *args: 8)
    v, p = oracle._realize(state, 8)  # realized: the leak is the trace's
    assert abs(1.0 - (np.vdot(v, v).real + p.sum())) > oracle.TRACE_TOL
    with pytest.raises(TruncationError, match="dim=8 leaks"):
        oracle_chi(state, 0.3)
    assert builds == []


def _record_builds(monkeypatch):
    """Wrap displacement_matrix to record (shape of alpha, dim) per build."""
    builds = []
    real = oracle.displacement_matrix

    def recording(alpha, dim):
        builds.append((np.shape(alpha), dim))
        return real(alpha, dim)

    monkeypatch.setattr(oracle, "displacement_matrix", recording)
    return builds, real


def _record_realizations(monkeypatch):
    """Wrap _realize to record (state, dim) of each outermost call, not the
    calls it makes for a mixture's components or a loss's inner state."""
    calls, depth = [], []
    real = oracle._realize

    def recording(state, dim):
        if not depth:
            calls.append((state, dim))
        depth.append(dim)
        try:
            return real(state, dim)
        finally:
            depth.pop()

    monkeypatch.setattr(oracle, "_realize", recording)
    return calls


def _record_blocks(monkeypatch):
    """Wrap _contract and _pair_contract to record the cutoff of each block
    of D they read."""
    sizes = []
    for name in ("_contract", "_pair_contract"):
        def recording(operator, *operands, real=getattr(oracle, name)):
            sizes.append(operator.shape[-1])
            return real(operator, *operands)

        monkeypatch.setattr(oracle, name, recording)
    return sizes


def test_convergence_run_builds_once_at_twice_the_first_cutoff(monkeypatch):
    builds, real = _record_builds(monkeypatch)
    realized = _record_realizations(monkeypatch)
    visited = []
    a, b = 0.4 + 0.2j, -0.3j
    contract = oracle._contract

    def contract_checked(op, *operands):
        visited.append(op.shape[0])
        assert np.array_equal(op, real(a, op.shape[0]))
        return contract(op, *operands)

    monkeypatch.setattr(oracle, "_contract", contract_checked)
    state = cat_state(1.0, 0.0)
    d = initial_dim(state)
    assert oracle_chi(state, a) == pytest.approx(state.chi(a), abs=1e-9)
    assert visited == [d, 2 * d] and builds == [((1,), 2 * d)]
    assert realized == [(state, 2 * d)]  # one realization, read at d and 2d

    builds.clear()
    visited.clear()
    realized.clear()
    vectors = []
    pair_contract = oracle._pair_contract
    coherent_vectors = oracle._coherent_vectors

    def pair_checked(operators, *operands):
        n = operators.shape[-1]
        visited.append(n)
        assert np.array_equal(operators[0], real(a, n))
        assert np.array_equal(operators[1], real(b, n))
        return pair_contract(operators, *operands)

    def vectors_recorded(xi, dim):
        vectors.append(dim)
        return coherent_vectors(xi, dim)

    monkeypatch.setattr(oracle, "_pair_contract", pair_checked)
    monkeypatch.setattr(oracle, "_coherent_vectors", vectors_recorded)
    state = entangled_cat(1.0, +1)
    d = initial_dim(state)
    assert oracle_chi2(state, a, b) == pytest.approx(state.chi2(a, b), abs=1e-9)
    assert visited == [d, 2 * d] and builds == [((1, 2), 2 * d)]
    assert vectors == [2 * d, 2 * d] and realized == []  # a pair is not

    # a product: each factor realized once, at twice its own first cutoff,
    # and read on the leading blocks of the one build's D(alpha) and D(beta)
    monkeypatch.setattr(oracle, "_pair_contract", pair_contract)
    monkeypatch.setattr(oracle, "_contract", contract)
    builds.clear()
    realized.clear()
    sizes = _record_blocks(monkeypatch)
    left, right = cat_state(1.0, 0.0), ThermalState(1.0)
    dl, dr = initial_dim(left), initial_dim(right)
    assert dl != dr
    state = ProductState(left, right)
    assert oracle_chi2(state, a, b) == pytest.approx(state.chi2(a, b), abs=1e-9)
    assert builds == [((1, 2), 2 * max(dl, dr))]
    assert realized == [(left, 2 * dl), (right, 2 * dr)]
    assert sizes == [dl, 2 * dl, dr, 2 * dr]


def test_no_build_above_max_dim(monkeypatch):
    builds, _ = _record_builds(monkeypatch)
    monkeypatch.setattr(oracle, "MAX_DIM", 64)
    # first cutoff 40: its doubling would pass MAX_DIM, so nothing is built
    assert initial_dim(FockState(39)) == 40
    needs = "first cutoff dim=40 needs dim=80, above MAX_DIM=64"
    with pytest.raises(TruncationError, match=needs):
        oracle_chi(FockState(39), 0.5)
    with pytest.raises(TruncationError, match=needs):
        oracle_chi2(ProductState(FockState(39), VACUUM), 0.5, 0.0)
    assert builds == []
    # first cutoff 24: one build at 48 within the cap, however the check ends
    assert initial_dim(FockState(23)) == 24
    monkeypatch.setattr(oracle, "CONVERGENCE_TOL", 0.0)
    with pytest.raises(TruncationError, match="dim=24 and 48 differ by"):
        oracle_chi(FockState(23), 0.5)
    assert builds == [((1,), 48)]


def _reads(state, d):
    """(realized state or None, first cutoff) of each part a run with first
    cutoff d reads at its first cutoff and twice it, in order: the state
    itself at d, each product factor at its own, and a pair, which is not
    realized, at the run's d."""
    if isinstance(state, ProductState):
        return [(f, initial_dim(f)) for f in (state.left, state.right)]
    if isinstance(state, TwoModeMixture):
        return [r for _, s in state.components for r in _reads(s, d)]
    return [(None if isinstance(state, PairSuperposition) else state, d)]


def _gaussians(rng, k):
    """k complex Gaussian coefficients, as a list of Python complex."""
    return (rng.normal(size=k) + 1j * rng.normal(size=k)).tolist()


def _disc(rng, k, radius):
    """k amplitudes uniform in the disc of this radius."""
    return (radius * np.sqrt(rng.uniform(size=k))
            * np.exp(2j * math.pi * rng.uniform(size=k))).tolist()


def _random_superposition(cls, k, radius, seed):
    """A k-term CoherentSuperposition or PairSuperposition from the seed:
    Gaussian coefficients, amplitudes in the disc of this radius."""
    rng = np.random.default_rng(seed)
    modes = 2 if cls is PairSuperposition else 1
    return cls(tuple(zip(_gaussians(rng, k),
                         *(_disc(rng, k, radius) for _ in range(modes)))))


def _random_conditional(seed):
    """The 16-term pair of a Ramsey conditional preparation on two cats,
    every parameter drawn from the seed."""
    rng = np.random.default_rng(seed)
    psi = cat_state(*_disc(rng, 1, 1.6), rng.uniform(0, 2 * math.pi))
    theta, phi0, phi = rng.uniform(0, 2 * math.pi, size=3)
    setting = RamseySetting(phi, *_disc(rng, 1, 1.0))
    outcome = tuple(int(o) for o in rng.choice([1, -1], size=2))
    return prepare_conditional(psi, theta, phi0, setting, outcome)[0]


# a random superposition's terms come from a seed, so that the search never
# steers its coefficients into a near-degenerate cancellation
_seeds = st.integers(0, 2 ** 32 - 1)
_cat = st.builds(cat_state, st.floats(0.3, 3.0), st.floats(0.0, 2 * math.pi))
_sup16 = st.builds(_random_superposition, st.just(CoherentSuperposition),
                   st.integers(1, 16), st.floats(0.1, 2.5), _seeds)
_lossy_fock = st.builds(lambda n, g: decohere(FockState(n), g, 0.0),
                        st.integers(0, 30), st.floats(0.05, 2.0))
_single_mode = st.one_of(
    _cat,
    st.builds(cat_state, st.floats(0.01, 0.3), st.just(math.pi)),
    st.builds(FockState, st.integers(0, 8)),
    st.builds(ThermalState, st.one_of(st.sampled_from([8.0, 20.0]),
                                      st.floats(0.0, 3.0))),
    st.builds(lambda w, n, c: Mixture(((w, FockState(n)), (1 - w, c))),
              st.floats(0.1, 0.9), st.integers(0, 3), _cat),
    st.builds(lambda c, g: decohere(c, g, 0.0), _cat, st.floats(0.05, 2.0)),
    _sup16,
    st.builds(lambda w, f, c: Mixture(((w, f), (1 - w, c))),
              st.floats(0.1, 0.9), _lossy_fock,
              st.one_of(_cat, _sup16, _lossy_fock)),
)
_nested_loss = st.builds(
    lambda c, g1, g2: decohere(decohere(c, g1, 0.0), g2, 0.0),
    st.one_of(_cat, _sup16), st.floats(0.05, 2.0), st.floats(0.05, 2.0))
_thermal = st.builds(ThermalState, st.floats(0.0, 3.0))
_two_mode = st.one_of(
    st.builds(entangled_cat, st.floats(0.3, 2.5), st.sampled_from([1, -1])),
    st.builds(ProductState, _single_mode, _single_mode),
    st.builds(lambda w, x, a, b: TwoModeMixture(
        ((w, entangled_cat(x, -1)), (1 - w, ProductState(a, b)))),
        st.floats(0.1, 0.9), st.floats(0.3, 2.0), _cat, _single_mode),
    st.builds(_random_superposition, st.just(PairSuperposition), st.just(2),
              st.floats(0.1, 1.2), _seeds),
    st.builds(_random_superposition, st.just(PairSuperposition), st.just(16),
              st.floats(0.1, 0.8), _seeds),
    st.builds(_random_conditional, _seeds),
    st.builds(ProductState, _thermal, _single_mode),
    st.builds(ProductState, _single_mode, _thermal),
    st.builds(ProductState, _nested_loss, _thermal),
)
# |alpha| up to 40: the first cutoff is the state's, whatever alpha is
_alphas = st.builds(cmath.rect, st.floats(0.0, 40.0),
                    st.floats(0.0, 2 * math.pi))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(st.one_of(_single_mode, _nested_loss), _alphas),
                 st.tuples(_two_mode, _alphas, _alphas)))
def test_first_cutoff_converges_at_its_doubling(case):
    # the state's tail bound makes cutoffs d and 2d agree within
    # CONVERGENCE_TOL at any alpha: one build at 2d, values at d and 2d
    # each realized state (a product's factors at their own first cutoff
    # d_f <= d) is realized once, at 2 d_f, and read at d_f and 2 d_f; a
    # pair is not realized, and is read at d and 2d
    state, *amplitudes = case
    d = initial_dim(state)
    reads = _reads(state, d)
    with pytest.MonkeyPatch.context() as mp:
        builds, _ = _record_builds(mp)
        realized = _record_realizations(mp)
        visited = _record_blocks(mp)
        if len(amplitudes) == 1:
            got, want = oracle_chi(state, *amplitudes), state.chi(*amplitudes)
        else:
            got, want = oracle_chi2(state, *amplitudes), state.chi2(*amplitudes)
    assert realized == [(s, 2 * n) for s, n in reads if s is not None]
    assert visited == [dim for _, n in reads for dim in (n, 2 * n)]
    assert max(n for _, n in reads) <= d
    shape = (1,) if len(amplitudes) == 1 else (1, 2)
    assert builds == [(shape, 2 * d)]
    assert abs(got - want) <= 1e-9


@pytest.mark.parametrize("xi0, theta, alpha", [
    (25.0, 0.0, 0.5 + 0.3j),
    (30.0, math.pi, -1.7 + 1.2j),
])
def test_oracle_reaches_macroscopic_cats(xi0, theta, alpha):
    # criterion 10's |alpha| <= 2.5 at cat amplitudes whose first cutoff
    # (873 and 1195) doubles within MAX_DIM
    state = cat_state(xi0, theta)
    assert 2 * initial_dim(state) <= oracle.MAX_DIM
    assert abs(oracle_chi(state, alpha) - state.chi(alpha)) <= 1e-8


@pytest.mark.parametrize("n_th, limit_mb", [(3.0, 64), (20.0, 256)])
def test_product_factor_is_realized_at_its_own_cutoff(n_th, limit_mb):
    # the nested loss next to a hot thermal state is realized at twice its
    # own first cutoff, not at the thermal one's: V is (2 d_f, (2 d_f)^2),
    # where at the thermal cutoff (472 at n_th = 20) it would take 13 GB
    state = ProductState(
        decohere(decohere(cat_state(1.0, 0.0), 0.3, 0.0), 0.5, 0.0),
        ThermalState(n_th))
    tracemalloc.start()
    try:
        got = oracle_chi2(state, 0.3, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - state.chi2(0.3, 0.2)) <= 1e-9
    assert peak < limit_mb * 2 ** 20


def test_coherent_vectors_in_one_array():
    xs = [0.3 + 0.1j, 0.0, -1.2 + 0.7j, 2.5j, -1.5 - 2.0j]
    dim = 40
    vecs = oracle._coherent_vectors(xs, dim)
    assert vecs.shape == (len(xs), dim)
    for xi, vec in zip(xs, vecs):
        assert np.array_equal(vec, oracle._coherent_vectors([xi], dim)[0])
        ref = np.array([math.exp(-abs(xi) ** 2 / 2.0) * xi ** n
                        / math.sqrt(math.factorial(n)) for n in range(dim)])
        assert np.max(np.abs(vec - ref)) <= 1e-15
    assert np.array_equal(vecs[1], np.eye(1, dim)[0])



def test_expval_rejects_mismatched_shapes():
    rho = state_to_matrix(FockState(1), 8)
    with pytest.raises(ValueError,
                       match=r"shape mismatch: \(9, 9\) vs \(8, 8\)"):
        expval(displacement_matrix(0.3, 9), rho)


def test_oracle_of_a_stack_names_the_stack():
    # a stacked state has no oracle route on any entry point
    message = "a stack of 2 states has no oracle route; take one member"
    pair = entangled_cat(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=message):
        oracle_chi2(pair, 0.1, 0.2)
    with pytest.raises(ValueError, match=message):
        oracle_chi2(TwoModeMixture(((1.0, pair),)), 0.1, 0.2)
    cats = CoherentSuperposition(np.array([[[1, 0], [1, x]] for x in (1, 2)]))
    with pytest.raises(ValueError, match=message):
        oracle_chi(cats, 0.3)
    with pytest.raises(ValueError, match=message):
        state_to_matrix(cats, 20)
    times = decohere(cat_state(1, 0), np.array([0.1, 0.2]), 0.0)
    with pytest.raises(ValueError, match=message):
        oracle_chi(times, 0.3)
    with pytest.raises(ValueError, match=message):
        state_to_matrix(times, 20)


@pytest.mark.parametrize("state", [
    entangled_cat(1.0, +1),
    ProductState(VACUUM, FockState(1)),
    TwoModeMixture(((0.5, entangled_cat(1.0, -1)),
                    (0.5, ProductState(VACUUM, VACUUM)))),
])
def test_state_to_matrix_is_single_mode_only(state):
    with pytest.raises(TypeError,
                       match="two-mode states go through oracle_chi2"):
        state_to_matrix(state, 20)


def test_oracle_takes_only_classes_from_the_closed_forms():
    # the oracle may test a state's type but never evaluate a closed form:
    # whatever it imports from catwitness.states is a class, the module
    # itself is not imported, and no chi method or s-ordered hook is called
    taken = []
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert "states" not in names
            if "." * node.level + (node.module or "") in (".states",
                                                          "catwitness.states"):
                taken += names
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("states") for alias in node.names)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in ("chi", "chi_normal", "chi2", "_ordered")
    assert "CoherentSuperposition" in taken
    for name in taken:
        assert inspect.isclass(getattr(states, name)), name
    assert not [name for name, value in vars(oracle).items()
                if inspect.isfunction(value)
                and value.__module__ == states.__name__]


@pytest.mark.parametrize("build, error, message", [
    (lambda: displacement_matrix(0.5, 0), ValueError, "dim must be >= 1"),
    (lambda: initial_dim(3), TypeError, "unknown state int"),
])
def test_oracle_inputs_name_the_refused_input(build, error, message):
    # each refusal here was reached by no test
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_a_loss_over_no_time_realizes_the_inner_state():
    # gamma_t = 0 gives eta = 1: the inner realization itself, no Kraus step
    for inner in (cat_state(1.2, 0.3), FockState(3), ThermalState(0.4)):
        lossless = decohere(inner, 0.0, 0.0)
        for got, want in zip(oracle._realize(lossless, 24),
                             oracle._realize(inner, 24)):
            assert np.array_equal(got, want)
        for alpha in (0.4 + 0.2j, -1.1j):
            assert abs(oracle_chi(lossless, alpha) - inner.chi(alpha)) < 1e-12

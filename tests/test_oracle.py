import ast
import inspect
import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from catwitness import (
    VACUUM,
    CoherentSuperposition,
    FockState,
    Mixture,
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
    apply_damping,
    displacement_matrix,
    expval,
    initial_dim,
    oracle_chi,
    oracle_chi2,
    state_to_matrix,
)
from catwitness.ramsey import RamseySetting, prepare_conditional
from catwitness.states import TwoModeMixture


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


def test_oracle_thermal_needs_extra_dim():
    # the amplitude-based initial dim truncates the thermal tail; the
    # adaptive loop must recover by doubling
    state = ThermalState(2.0)
    assert initial_dim(state, 0.7 + 0.2j) < 40
    assert oracle_chi(state, 0.7 + 0.2j) == pytest.approx(
        0.26580295908892654, abs=1e-9)


def test_fock_chi_zero_point():
    # tr{D(1)|1><1|} = 0 exactly
    assert abs(oracle_chi(FockState(1), 1.0)) < 1e-9


def test_oracle_chi_large_fock_stays_finite():
    # the normalised recurrence keeps a cutoff of 1240 finite
    assert oracle_chi(FockState(150), 2.0) == pytest.approx(
        FockState(150).chi(2.0), abs=1e-8)


def test_truncation_error_stays_within_max_dim(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DIM", 64)
    with pytest.raises(TruncationError, match="MAX_DIM=64") as exc:
        oracle_chi(FockState(1), 0.5, tol=0.0)
    assert exc.value.dim <= 64
    with pytest.raises(TruncationError, match="needs dim=420"):
        oracle_chi(cat_state(10.0, 0.0), 0.5)
    monkeypatch.setattr(oracle, "expval", lambda op, rho: complex("nan"))
    with pytest.raises(TruncationError, match="non-finite") as exc:
        oracle_chi(FockState(1), 0.5)
    assert exc.value.dim == 24


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


def _record_builds(monkeypatch):
    """Wrap displacement_matrix to record (shape of alpha, dim) per build."""
    builds = []
    real = oracle.displacement_matrix

    def recording(alpha, dim):
        builds.append((np.shape(alpha), dim))
        return real(alpha, dim)

    monkeypatch.setattr(oracle, "displacement_matrix", recording)
    return builds, real


def test_convergence_run_builds_once_at_twice_the_first_cutoff(monkeypatch):
    builds, real = _record_builds(monkeypatch)
    visited = []
    a, b = 0.4 + 0.2j, -0.3j

    def expval_checked(op, rho):
        visited.append(op.shape[0])
        assert np.array_equal(op, real(a, op.shape[0]))
        return expval(op, rho)

    monkeypatch.setattr(oracle, "expval", expval_checked)
    state = cat_state(1.0, 0.0)
    d = initial_dim(state, a)
    assert oracle_chi(state, a) == pytest.approx(state.chi(a), abs=1e-9)
    assert visited == [d, 2 * d] and builds == [((), 2 * d)]

    builds.clear()
    visited.clear()
    chi2_structured = oracle._chi2_structured

    def structured_checked(state, d1, d2, dim):
        visited.append(dim)
        assert np.array_equal(d1, real(a, dim))
        assert np.array_equal(d2, real(b, dim))
        return chi2_structured(state, d1, d2, dim)

    monkeypatch.setattr(oracle, "_chi2_structured", structured_checked)
    state = entangled_cat(1.0, +1)
    d = initial_dim(state, a, b)
    assert oracle_chi2(state, a, b) == pytest.approx(state.chi2(a, b), abs=1e-9)
    assert visited == [d, 2 * d] and builds == [((2,), 2 * d)]


def test_no_build_above_max_dim(monkeypatch):
    builds, _ = _record_builds(monkeypatch)
    monkeypatch.setattr(oracle, "MAX_DIM", 64)
    # first cutoff 40: its doubling would pass MAX_DIM, so it is built alone
    assert initial_dim(FockState(5), 0.5) == 40
    with pytest.raises(TruncationError, match="MAX_DIM=64.*a single value"):
        oracle_chi(FockState(5), 0.5)
    assert builds == [((), 40)]
    builds.clear()
    with pytest.raises(TruncationError, match="MAX_DIM=64.*a single value"):
        oracle_chi2(entangled_cat(0.5, +1), math.sqrt(5.0), 0.0)
    assert builds == [((2,), 40)]
    builds.clear()
    # first cutoff 24: built at 48, the run stops before 96
    with pytest.raises(TruncationError, match="MAX_DIM=64"):
        oracle_chi(FockState(1), 0.5, tol=0.0)
    assert builds == [((), 48)]


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

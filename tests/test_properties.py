"""Property tests: random states, points and grids drawn by hypothesis.

They guard the stacked moment-matrix paths (one chi_N call per upper
entry, one determinant or eigensolve per scan) against per-matrix
references built here, and the defining identities of chi.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from catwitness import (
    CoherentSuperposition,
    FockState,
    GridSpec,
    Mixture,
    ProductState,
    Settings,
    ThermalState,
    bochner_matrix,
    cat_state,
    moments9,
    ppt_min_eig,
    region_scan,
    standard_settings,
)

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


@SETTINGS
@given(st.one_of(single_mode, coherent), complexes)
def test_chi_identities(state, alpha):
    assert abs(state.chi(0) - 1) <= 1e-12
    assert abs(state.chi(-alpha) - state.chi(alpha).conjugate()) <= 1e-12
    assert abs(state.chi(alpha)) <= 1 + 1e-12

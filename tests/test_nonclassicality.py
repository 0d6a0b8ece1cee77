import math
import warnings

import numpy as np
import pytest

from catwitness import (
    VACUUM,
    FockState,
    GridSpec,
    Mixture,
    ThermalState,
    bochner_matrix,
    cat_state,
    decohere,
    min_eigenvalue,
    nc1_excess,
    nc2_certificate,
    region_scan,
)
from catwitness import cli
from catwitness.nonclassicality import MAX_CELLS


def one_photon_mixture(p):
    return Mixture(((1 - p, FockState(1)), (p, FockState(0))))


def test_nc1_vacuum_is_on_the_boundary():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = complex(*rng.standard_normal(2))
        assert nc1_excess(VACUUM, a) == pytest.approx(0.0, abs=1e-12)


def test_nc1_thermal_never_violates():
    state = ThermalState(1.5)
    for r in np.linspace(0.1, 3.0, 15):
        assert nc1_excess(state, r) < 0


def test_nc1_fock_violates():
    # chi_N(|1>) = 1 - |alpha|^2, so the excess turns positive past sqrt(2)
    assert nc1_excess(FockState(1), 1.0) < 0
    assert nc1_excess(FockState(1), 1.5) > 0


def test_nc1_mixture_threshold():
    # |chi_N| of (1-p)|1><1| + p|0><0| crosses 1 at |alpha| = sqrt(2/(1-p))
    p = 0.5
    state = one_photon_mixture(p)
    edge = math.sqrt(2 / (1 - p))
    assert nc1_excess(state, edge - 1e-4) < 0
    assert nc1_excess(state, edge + 1e-4) > 0


def test_bochner_matrix_structure():
    state = cat_state(1.5, 0.0)
    pts = [0.0, 0.7, -0.4 + 0.3j]
    m = bochner_matrix(state, pts)
    assert np.array_equal(m, m.conj().T)
    assert np.max(np.abs(np.diag(m) - 1.0)) < 1e-14
    assert m[0, 1] == pytest.approx(state.chi_normal(-0.7), abs=1e-12)


def test_bochner_matrix_duplicate_warning():
    with pytest.warns(UserWarning):
        bochner_matrix(VACUUM, [0.0, 0.5, 0.5])


def test_min_eigenvalue_matches_eigvalsh():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = g + g.conj().T
        assert min_eigenvalue(h) == pytest.approx(
            float(np.linalg.eigvalsh(h)[0]), abs=1e-10)
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eigenvalue_of_a_stack():
    rng = np.random.default_rng(45)
    g = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    h = g + g.conj().swapaxes(-1, -2)
    low = min_eigenvalue(h)
    assert low.shape == (2, 3)
    assert np.array_equal(low, np.linalg.eigvalsh(h)[..., 0])
    assert type(min_eigenvalue(h[1, 2])) is float
    h[1, 2, 0, 3] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        min_eigenvalue(h)
    with pytest.raises(ValueError, match="square"):
        min_eigenvalue(np.ones((2, 3, 4)))


def test_min_eigenvalue_rejects_non_finite_entries():
    # NaN compares false with the tolerance, so it must be caught on its own
    with pytest.raises(ValueError, match="non-finite"):
        min_eigenvalue(np.array([[np.nan, 5.0], [0.0, 1.0]]))
    stack = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
    stack[2, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        min_eigenvalue(stack)


def test_nc2_classical_states_stay_psd():
    rng = np.random.default_rng(43)
    for state in (VACUUM, ThermalState(0.7), ThermalState(3.0)):
        for _ in range(10):
            p1 = complex(*rng.standard_normal(2))
            p2 = complex(*rng.standard_normal(2))
            det, eig = nc2_certificate(state, [0.0, p1, p2])
            assert det > -1e-10
            assert eig > -1e-10


def test_nc2_two_point_reduction():
    # with points {0, alpha} the 2x2 matrix is PSD iff |chi_N(alpha)| <= 1,
    # so the sign of the minimal eigenvalue tracks the envelope bound
    state = one_photon_mixture(0.3)
    rng = np.random.default_rng(44)
    for _ in range(100):
        a = complex(*rng.standard_normal(2)) * 1.5
        m = bochner_matrix(state, [0.0, a])
        eig = min_eigenvalue(m)
        excess = abs(state.chi_normal(a)) - 1.0
        assert (eig < 0) == (excess > 0) or abs(excess) < 1e-12


def test_nc2_point_validation():
    with pytest.raises(ValueError):
        nc2_certificate(VACUUM, [0.0, 1.0])
    with pytest.raises(ValueError):
        nc2_certificate(VACUUM, [0.5, 1.0, 1.5])


def test_grid_spec_axis_values():
    g = GridSpec(((0.0, 1.0, 0.25),))
    assert np.allclose(g.axis_values(0), [0.0, 0.25, 0.5, 0.75, 1.0])
    a1, a2 = g.cells()
    assert np.array_equal(a1, g.axis_values(0))
    assert np.array_equal(a2, np.zeros(5))
    a1, a2 = GridSpec(((0.0, 1.0, 0.5), (2.0, 3.0, 1.0))).cells()
    assert a1.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    assert a2.tolist() == [2.0, 3.0, 2.0, 3.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        GridSpec(((0.0, 1.0, 0.25), (0.0, 1.0, 0.25), (0.0, 1.0, 0.25)))
    inf, nan = math.inf, math.nan
    for axis in ((1.0, 0.0, 0.25), (0.0, inf, 0.1), (0.5, 0.6, 1e-320),
                 (0.0, 1.0, nan), (0.0, 1.0, inf), (-inf, 0.0, 1.0),
                 (nan, 1.0, 1.0), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match="bad axis"):
            GridSpec((axis,))


def test_grid_axes_never_pass_their_max():
    # a step that does not land on stop ends below it; one that does
    # keeps stop despite the rounding of (stop - start) / step
    assert GridSpec(((0.0, 1.0, 0.4),)).axis_values(0).tolist() == [
        0.0, 0.4, 0.8]
    assert GridSpec(((0.5, 2.0, 0.4),)).axis_values(0).max() < 2.0
    assert GridSpec(((0.0, 3.0, 0.1),)).axis_values(0).size == 31
    assert GridSpec(((-3.0, 3.0, 0.1),)).axis_values(0).size == 61
    assert GridSpec(((0.3, 2.3, 0.05),)).axis_values(0).size == 41
    assert GridSpec(((1.0, 1.0, 0.5),)).axis_values(0).tolist() == [1.0]
    # the cell cap counts the same points: 1000 x 1000, not 1001 x 1001
    axis = (0.0, 0.9995, 1e-3)
    grid = GridSpec((axis, axis))
    assert grid.axis_values(0).size * grid.axis_values(1).size == MAX_CELLS
    with pytest.raises(ValueError, match="1001000 cells"):
        GridSpec(((0.0, 1.0, 1e-3), axis))


def test_region_scan_nc1_detects_cat_lobe():
    state = cat_state(2.0, 0.0)
    grid = GridSpec(((0.0, 3.0, 0.5), (-0.5, 0.5, 0.5)))
    scan = region_scan(state, grid, "nc1")
    assert scan.values.shape == (7 * 3,)
    # the point alpha = 2 sits inside the violation region
    idx = np.flatnonzero((scan.axis1 == 2.0) & (scan.axis2 == 0.0))[0]
    assert scan.values[idx] > 0
    assert scan.detected[idx]


def test_region_scan_thermal_detects_nothing():
    state = ThermalState(2.0)
    grid = GridSpec(((0.1, 2.1, 0.5), (0.5, 1.5, 0.5)))
    for cert in ("nc1", "nc2-det", "nc2-eig"):
        scan = region_scan(state, grid, cert)
        assert not scan.detected.any()


def test_region_scan_csv_format(capsys):
    scan = region_scan(cat_state(1.0, 0.0), GridSpec(((0.0, 0.5, 0.5),)), "nc1")
    assert cli.main(["ncregion", "--state", "cat:1,0", "--grid", "0:0.5:0.5",
                     "--certificate", "nc1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "axis1,axis2,value,detected"
    assert len(lines) == 1 + 2
    for line, a1, a2, v, d in zip(lines[1:], scan.axis1, scan.axis2,
                                  scan.values, scan.detected):
        # %.17g cells, so each round-trips at full precision
        assert line == f"{a1:.17g},{a2:.17g},{v:.17g},{int(d)}"
        assert float(line.split(",")[2]) == v
    # detection flags print as 0 and 1
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["0", "1"]


def test_region_scan_warns_once_per_scan():
    grid = GridSpec(((0.0, 1.0, 0.5), (0.0, 1.0, 0.5)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        region_scan(VACUUM, grid, "nc2-det")
    # the 5 cells with a zero point and (0.5, 0.5), (1, 1) repeat a point
    assert len(caught) == 1
    assert issubclass(caught[0].category, UserWarning)
    assert "7 of 9" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        region_scan(VACUUM, grid, "nc1")


def test_region_scan_rejects_unknown_certificate():
    with pytest.raises(ValueError):
        region_scan(VACUUM, GridSpec(((0.0, 1.0, 0.5),)), "nc3")


def test_region_scan_rejects_non_finite_threshold():
    # a NaN threshold would mark every cell undetected
    grid = GridSpec(((0.0, 1.0, 0.5),))
    for threshold in (math.nan, math.inf, -math.inf):
        for cert in ("nc1", "nc2-det", "nc2-eig"):
            with pytest.raises(ValueError, match="threshold must be finite"):
                region_scan(cat_state(2.0, 0.0), grid, cert, threshold)


def test_nc1_decoheres_monotonically():
    state = cat_state(2.0, 0.0)
    values = [abs(decohere(state, t, 0.0).chi_normal(2.0))
              for t in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 1 for v in values)


def test_bochner_matrix_needs_two_points():
    with pytest.raises(ValueError, match="^need at least 2 test points$"):
        bochner_matrix(cat_state(1.0, 0), [0.3])

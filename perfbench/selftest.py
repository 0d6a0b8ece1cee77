"""Self-tests of the benchmark itself (not of the package).

Run from the repository root:

    python3 perfbench/selftest.py

They check that a perturbed output or a raised exception counts as a
failed op, that op generation is deterministic per seed, that the traced
layer self times plus the benchmark's own time add up to the pass time,
and that the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

cw = run.import_package()

import checks  # noqa: E402
import tracer  # noqa: E402

SEEDS = (1, 2, 99)


def small_ops(workload: str, seed: int, n: int):
    """The n cheapest-looking ops of a workload: CLI ops with the shortest
    argument text, or the first n library ops."""
    ops = workloads.generate(workload, seed)
    if ops[0].kind == "cli":
        ops = sorted(ops, key=lambda op: len(" ".join(op.args)))
    return ops[:n]


class Determinism(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(workloads.generate(name, seed),
                                 workloads.generate(name, seed))

    def test_seeds_differ_but_sizes_do_not(self):
        for name in workloads.WORKLOADS:
            a, b = (workloads.generate(name, s) for s in SEEDS[:2])
            self.assertNotEqual(a, b)
            self.assertEqual(len(a), len(b))
            self.assertEqual(sorted(op.kind for op in a),
                             sorted(op.kind for op in b))


class FailureCounting(unittest.TestCase):
    def run_and_check(self, workload, ops, mutate=None):
        executor = workloads.Executor(cw)
        _, _, outs, errors = run.run_pass(executor, ops)
        if mutate:
            outs = mutate(outs)
        report = checks.Checker(cw, 1).check(workload, list(zip(ops, outs)))
        return errors, report

    def test_clean_outputs_pass(self):
        ops = small_ops("oracle-verify", 1, 4)
        errors, report = self.run_and_check("oracle-verify", ops)
        self.assertEqual(errors, [])
        self.assertEqual(report.failed_ops, {})
        self.assertEqual(report.oracle_checked, 4)
        self.assertLess(report.max_dev, checks.TOL)

    def test_perturbed_library_output_fails(self):
        ops = small_ops("oracle-verify", 1, 4)

        def bump(outs):
            return [outs[0] + 1e-6] + outs[1:]
        _, report = self.run_and_check("oracle-verify", ops, bump)
        self.assertEqual(list(report.failed_ops), [0])

    def test_perturbed_cli_output_fails(self):
        ops = [op for op in small_ops("nc-scan", 1, 40)
               if op.args[0] == "chi"][:2]

        def bump(outs):
            # every chi_re cell + 1e-6, so whichever row is sampled fails
            lines = outs[0].splitlines()
            rows = [line.split(",") for line in lines[1:]]
            for row in rows:
                row[2] = repr(float(row[2]) + 1e-6)
            return (["\n".join([lines[0]] + [",".join(r) for r in rows])]
                    + outs[1:])
        _, report = self.run_and_check("nc-scan", ops, bump)
        self.assertEqual(list(report.failed_ops), [0])

    def test_exception_counts_as_failed(self):
        ops = [workloads.Op("cli", ("ptmin", "--grid=2:1:0.1,0.5:1:0.1")),
               workloads.Op("oracle_chi", ({"kind": "fock", "n": -1}, 0.5))]
        _, _, outs, errors = run.run_pass(workloads.Executor(cw), ops)
        self.assertEqual([i for i, _ in errors], [0, 1])
        self.assertEqual(outs, [None, None])


class TraceAccounting(unittest.TestCase):
    def test_self_times_add_up(self):
        for name in ("ent-scan", "protocol"):
            ops = small_ops(name, 3, 25)
            tr = tracer.Tracer(cw)
            executor = workloads.Executor(cw)
            originals = (cw.entanglement.min_eigenvalue, cw.states.chi,
                         cw.states.CoherentSuperposition.chi)
            tr.install()
            try:
                pass_s, _, _, errors = run.run_pass(executor, ops)
            finally:
                tr.uninstall()
            self.assertEqual(errors, [])
            self.assertEqual(originals,
                             (cw.entanglement.min_eigenvalue, cw.states.chi,
                              cw.states.CoherentSuperposition.chi))
            layers = tr.reduce()
            own = pass_s - layers["traced_s"]
            total = sum(layers[f"{ly}.self_s"] for ly in tracer.LAYERS)
            self.assertGreaterEqual(own, 0.0)
            self.assertAlmostEqual(total + own, pass_s, delta=1e-9 * len(tr.spans))
            for ly in tracer.LAYERS:
                self.assertGreaterEqual(layers[f"{ly}.self_s"], -1e-9, ly)
            self.assertGreater(layers["states.calls"], 0)
            self.assertEqual(layers["oracle.calls"], 0)

    def test_cross_module_reference_is_wrapped(self):
        tr = tracer.Tracer(cw)
        tr.install()
        try:
            self.assertIs(cw.entanglement.min_eigenvalue,
                          cw.nonclassicality.min_eigenvalue)
            self.assertIsNot(cw.entanglement.min_eigenvalue.__wrapped__,
                             cw.entanglement.min_eigenvalue)
            state = cw.states.entangled_cat(1.0, +1)
            cw.entanglement.ppt_min_eig(
                state, cw.entanglement.standard_settings(1.0, 1.0))
        finally:
            tr.uninstall()
        layers = tr.reduce()
        self.assertEqual(layers["nonclassicality.eig_calls"], 1)
        self.assertEqual(layers["entanglement.moments_calls"], 1)
        self.assertEqual(layers["states.chi2_points"], 36)
        with tempfile.TemporaryDirectory() as tmp:
            path = tracer.write_spans(tr.spans, Path(tmp) / "spans.jsonl")
            spans = [json.loads(line) for line in path.read_text().splitlines()]
        self.assertEqual(len(spans), len(tr.spans))
        top = [s["name"] for s in spans if s["parent"] == -1]
        self.assertEqual(top, ["entangled_cat", "standard_settings",
                               "ppt_min_eig"])


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

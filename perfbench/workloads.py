"""Seeded op lists for the four benchmark workloads, and the op executor.

An op is one user-level action: one ``catwitness`` CLI command run
in-process through ``cli.main``, or one top-level library call (for the
protocol workload, one dependent step of a lab chain). Generation is pure
Python driven by ``random.Random``, so the same seed gives the same ops on
every machine.

Every workload has a fixed number of ops per pass, and every op slot has a
fixed size (grid cells, points, coherent terms, amplitude stratum); the seed
varies the values inside each slot. Work per pass therefore stays nearly the
same across seeds while the inputs differ, which keeps the medians of
different seeds comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = {
    "ent-scan": "ptmin and witness grid scans through the CLI, 1 to 144 "
                "cells; states + entanglement dominate, no oracle",
    "nc-scan": "ncregion nc1/nc2-det/nc2-eig, chi and decay commands over "
               "Fock, cat, thermal and mixed states; chi_N kernel, Bochner "
               "assembly and eigvalsh",
    "oracle-verify": "oracle_chi and oracle_chi2 with |alpha| <= 2.5 as in "
                     "acceptance criterion 10; isolates the Fock-space oracle",
    "protocol": "dependent scalar chain: bisections, chi/chi2 "
                "reconstruction, sampling, conditional preparation to a "
                "16-term pair state; per-call overhead and ramsey",
}


@dataclass(frozen=True)
class Op:
    """kind selects the executor branch; args is plain data (no package
    objects), so generation needs nothing but the seed."""

    kind: str
    args: tuple


def _f(x: float) -> str:
    return f"{x:.4f}"


def _axis(rng: random.Random, n: int, lo: float, hi: float,
          step_lo: float, step_hi: float) -> str:
    """An n-point axis inside [lo, hi] as "start:stop:step"."""
    step = round(rng.uniform(step_lo, step_hi), 4)
    if n > 1:
        step = min(step, math.floor((hi - lo) / (n - 1) * 1e4) / 1e4)
    span = step * (n - 1)
    start = round(rng.uniform(lo, hi - span), 4)
    return f"{_f(start)}:{_f(start + span)}:{_f(step)}"


# ---------------------------------------------------------------------------
# state specs (JSON text for the CLI, dicts for library ops)
# ---------------------------------------------------------------------------

def _c(z: complex) -> list[float]:
    return [round(z.real, 6), round(z.imag, 6)]


def _disc(rng: random.Random, radius: float, lo: float = 0.0,
          hi: float = 1.0) -> complex:
    """Point of the disc of this radius; the area fraction is drawn from
    [lo, hi), so a slot can be pinned to an amplitude stratum."""
    r = radius * math.sqrt(rng.uniform(lo, hi))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def _superposition(rng: random.Random, terms: int, radius: float) -> dict:
    return {"kind": "coherent_superposition",
            "terms": [{"coeff": _c(complex(rng.gauss(0, 1), rng.gauss(0, 1))),
                       "amplitude": _c(_disc(rng, radius))}
                      for _ in range(terms)]}


def _single_spec(rng: random.Random, kind: str) -> dict:
    if kind == "cat":
        return {"kind": "cat", "xi0": _c(_disc(rng, 1.6, 0.05)),
                "theta": round(rng.uniform(0, 2 * math.pi), 4)}
    if kind == "fock":
        return {"kind": "fock", "n": rng.randint(0, 4)}
    if kind == "thermal":
        return {"kind": "thermal", "n_th": round(rng.uniform(0.0, 1.5), 4)}
    if kind == "coherent":
        return _superposition(rng, 1, 1.5)
    if kind == "sup16":
        return _superposition(rng, 16, 1.0)
    if kind == "mixture":
        p = round(rng.uniform(0.1, 0.9), 4)
        return {"kind": "mixture", "components": [
            {"weight": 1 - p, "state": {"kind": "fock", "n": rng.randint(1, 2)}},
            {"weight": p, "state": _single_spec(rng, "cat")}]}
    if kind == "loss":
        return {"kind": "decohered", "inner": _single_spec(rng, "cat"),
                "gamma_t": round(rng.uniform(0.05, 2.0), 4), "n_th": 0.0}
    raise ValueError(kind)


def _pair_spec(rng: random.Random, kind: str) -> dict:
    if kind == "pair2":
        return {"kind": "pair_superposition", "terms": [
            {"coeff": _c(complex(rng.gauss(0, 1), rng.gauss(0, 1))),
             "amp1": _c(_disc(rng, 1.2)), "amp2": _c(_disc(rng, 1.2))}
            for _ in range(2)]}
    if kind == "pair16":
        return {"kind": "pair_superposition", "terms": [
            {"coeff": _c(complex(rng.gauss(0, 1), rng.gauss(0, 1))),
             "amp1": _c(_disc(rng, 0.8)), "amp2": _c(_disc(rng, 0.8))}
            for _ in range(16)]}
    if kind == "entcat":
        xi0 = round(rng.uniform(0.3, 1.2), 4)
        s = 1 if rng.random() < 0.5 else -1
        return {"kind": "pair_superposition", "terms": [
            {"coeff": [1.0, 0.0], "amp1": [xi0, 0.0], "amp2": [xi0, 0.0]},
            {"coeff": [float(s), 0.0], "amp1": [-xi0, 0.0],
             "amp2": [-xi0, 0.0]}]}
    if kind == "product":
        return {"kind": "product",
                "left": _single_spec(rng, rng.choice(("cat", "thermal", "coherent"))),
                "right": _single_spec(rng, rng.choice(("fock", "cat", "coherent")))}
    raise ValueError(kind)


def _shorthand(rng: random.Random, kind: str) -> str:
    """CLI --state text: shorthand where one exists, JSON otherwise."""
    if kind == "fock":
        return f"fock:{rng.randint(1, 4)}"
    if kind == "cat":
        return f"cat:{_f(rng.uniform(0.5, 2.0))},{_f(rng.uniform(0, 2 * math.pi))}"
    if kind == "thermal":
        return f"thermal:{_f(rng.uniform(0.05, 1.5))}"
    if kind == "coherent":
        return f"coh:{_f(rng.uniform(-1.2, 1.2))},{_f(rng.uniform(-1.2, 1.2))}"
    return json.dumps(_single_spec(rng, kind), separators=(",", ":"))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# Op sizes per workload. Besides a spread from tiny to large, each list has
# a block of equal-cost ops that holds the median rank and another that
# holds the tail rank (the 11th-largest op), so op_ms_p50 and op_ms_tail
# measure one kind of op on every seed instead of whichever op lands there.

# ent-scan, 38 ops: (n_xi0, n_eps) for ptmin, points for witness. No op
# is larger than 64 entangled-state cells (about 70 ms), so that every op
# is sampled in many passes of a run; the largest scan is an 8 x 16 sweep
# issued one xi0 row per command, as a user stepping the cat amplitude
# would.
_ENT_BIG = [("ptmin", (8, 8)), ("ptmin-product", (12, 12)),
            ("witness", 101)]
_ENT_SWEEP = (8, 16)
_ENT_MID = [("ptmin", (3, 3))] * 13
_ENT_TINY = [("ptmin", (1, 1)), ("ptmin", (1, 2)), ("ptmin", (2, 1)),
             ("ptmin", (2, 2)), ("ptmin", (1, 3)),
             ("ptmin-product", (2, 2)), ("ptmin-product", (1, 3)),
             ("ptmin-product", (1, 1)),
             ("witness", 2), ("witness", 3), ("witness", 5), ("witness", 5),
             ("witness-product", 5), ("witness-product", 11)]


def gen_ent_scan(rng: random.Random) -> list[Op]:
    ops = []
    for kind, size in _ENT_BIG + _ENT_MID + _ENT_TINY:
        if kind.startswith("ptmin"):
            n1, n2 = size
            grid = (_axis(rng, n1, 0.3, 1.8, 0.02, 0.05) + ","
                    + _axis(rng, n2, 0.3, 2.0, 0.02, 0.06))
            argv = ["ptmin", f"--grid={grid}"]
        else:
            argv = ["witness",
                    f"--grid={_axis(rng, size, 0.3, 2.0, 0.005, 0.05)}",
                    "--eps", _f(rng.uniform(1.2, 1.9)),
                    "--w", _f(rng.uniform(0.3, 0.5))]
        if kind.endswith("product"):
            argv.append("--product")
        ops.append(Op("cli", tuple(argv)))
    # the sweep's rows are the tail block: equal cost, and the 11th-largest
    # op of the pass is one of them
    n_rows, n_eps = _ENT_SWEEP
    start, _, step = (float(x) for x in
                      _axis(rng, n_rows, 0.3, 1.8, 0.02, 0.05).split(":"))
    eps_axis = _axis(rng, n_eps, 0.3, 2.0, 0.02, 0.06)
    for row in range(n_rows):
        xi0 = _f(start + row * step)
        ops.append(Op("cli", ("ptmin", f"--grid={xi0}:{xi0}:{_f(step)},"
                                       f"{eps_axis}")))
    rng.shuffle(ops)
    return ops


def _ncregion(rng: random.Random, cert: str, kind: str, n: int) -> Op:
    """An n x n ncregion scan. nc2 axes share one step and the first axis
    is the second's grid points from 0 upward, so cells with a1 == a2 and
    with a zero point occur."""
    if cert == "nc1":
        grid = (_axis(rng, n, -2.0, 2.0, 0.03, 0.1) + ","
                + _axis(rng, n, -2.0, 2.0, 0.03, 0.1))
    else:
        step = min(round(rng.uniform(0.05, 0.15), 2),
                   math.floor(2.0 / (n - 1) * 100) / 100)
        lo = -step * rng.randint(0, n - 1)
        grid = (f"0:{_f((n - 1) * step)}:{_f(step)},"
                f"{_f(lo)}:{_f(lo + (n - 1) * step)}:{_f(step)}")
    return Op("cli", ("ncregion", "--state", _shorthand(rng, kind),
                      f"--grid={grid}", "--certificate", cert))


def _chi(rng: random.Random, kind: str, n1: int, n2: int) -> Op:
    """chi on an n1 x n2 grid, or on n2 --alpha points when n1 is 0."""
    argv = ["chi", "--state", _shorthand(rng, kind)]
    if n1:
        grid = _axis(rng, n1, -2.0, 2.0, 0.05, 0.2)
        if n2 > 1:
            grid += "," + _axis(rng, n2, -2.0, 2.0, 0.05, 0.2)
        argv.append(f"--grid={grid}")
    else:
        for _ in range(n2):
            z = _disc(rng, 2.5)
            argv.append(f"--alpha={_f(z.real)}/{_f(z.imag)}")
    return Op("cli", tuple(argv))


def _decay(rng: random.Random, kind: str, n: int, nth: float) -> Op:
    z = _disc(rng, 2.0, 0.2)
    argv = ["decay", "--state", _shorthand(rng, kind),
            f"--alpha={_f(z.real)}/{_f(z.imag)}",
            f"--grid={_axis(rng, n, 0.0, 3.0, 0.02, 0.1)}"]
    if nth:
        argv += ["--nth", _f(nth)]
    return Op("cli", tuple(argv))


def gen_nc_scan(rng: random.Random) -> list[Op]:
    # the acceptance-criterion nc2-det region on fock:1 at half its
    # resolution (31 x 61 cells, about 0.1 s, short enough to be sampled in
    # many passes); it holds cells with a1 == a2 and with a zero point
    ops = [Op("cli", ("ncregion", "--state", "fock:1",
                      "--grid=0:3:0.1,-3:3:0.1", "--certificate", "nc2-det"))]
    ops += [_ncregion(rng, "nc1", "cat", 61),
            _ncregion(rng, "nc2-det", "mixture", 21),
            _ncregion(rng, "nc2-eig", "cat", 15),
            _ncregion(rng, "nc2-det", "sup16", 5),
            _chi(rng, "sup16", 5, 5)]
    # tail block: nc2 on cats, 11 x 11
    ops += [_ncregion(rng, ("nc2-det", "nc2-eig")[i % 2], "cat", 11)
            for i in range(7)]
    # median block: nc2 on Fock states, 7 x 7
    ops += [_ncregion(rng, ("nc2-det", "nc2-eig")[i % 2], "fock", 7)
            for i in range(13)]
    ops += [_ncregion(rng, "nc1", "thermal", 5),
            _ncregion(rng, "nc1", "coherent", 5),
            _ncregion(rng, "nc1", "mixture", 3),
            _chi(rng, "cat", 0, 4), _chi(rng, "fock", 0, 3),
            _chi(rng, "mixture", 0, 2), _chi(rng, "loss", 0, 3),
            _chi(rng, "coherent", 11, 1), _chi(rng, "thermal", 3, 3),
            _decay(rng, "cat", 11, 0.0), _decay(rng, "fock", 11, 0.0),
            _decay(rng, "mixture", 5, 0.0), _decay(rng, "cat", 11, 10.0),
            _decay(rng, "thermal", 5, 1.0)]
    rng.shuffle(ops)
    return ops


_ORACLE_SINGLE = ("cat", "fock", "thermal", "coherent", "mixture", "loss")
_ORACLE_PAIR = ("pair2", "entcat", "product", "pair2", "entcat", "product",
                "pair16")


def gen_oracle_verify(rng: random.Random) -> list[Op]:
    ops = []
    per_kind = 7
    for kind in _ORACLE_SINGLE:
        # one alpha per area stratum of the |alpha| <= 2.5 disc
        for i in range(per_kind):
            z = _disc(rng, 2.5, i / per_kind, (i + 1) / per_kind)
            ops.append(Op("oracle_chi", (_single_spec(rng, kind), z)))
    per_kind = 3
    for kind in _ORACLE_PAIR:
        for i in range(per_kind):
            a = _disc(rng, 2.0, i / per_kind, (i + 1) / per_kind)
            b = _disc(rng, 2.0)
            ops.append(Op("oracle_chi2", (_pair_spec(rng, kind), a, b)))
    rng.shuffle(ops)
    return ops


BISECT_STEPS = 60


def gen_protocol(rng: random.Random) -> list[Op]:
    ops = []
    # witness crossing: 60-step bisection on [0.3, 1.6]; five chains make
    # the median op a witness bisection step
    for chain in range(5):
        eps, w = round(rng.uniform(1.3, 1.9), 4), round(rng.uniform(0.35, 0.45), 4)
        ops += [Op("wbisect", (chain, eps, w, step))
                for step in range(BISECT_STEPS)]
    # NC1 threshold of (1-p)|1><1| + p|0><0|: 60-step bisection on [1, 6]
    for chain in range(2):
        p = round(rng.uniform(0.05, 0.9), 4)
        ops += [Op("nc1bisect", (chain, p, step))
                for step in range(BISECT_STEPS)]
    # chi reconstruction chains on 1-, 2- and 16-term superpositions
    for chain, terms in enumerate((1, 2, 16)):
        spec = _superposition(rng, terms, 1.5 if terms < 16 else 1.0)
        ops += [Op("chimeas", (chain, spec, _disc(rng, 2.0), step))
                for step in range(10)]
    # seeded Ramsey sampling, phase fed back from the previous counts
    for chain, terms in enumerate((1, 2, 16, 2)):
        spec = _superposition(rng, terms, 1.5 if terms < 16 else 1.0)
        ops += [Op("sample", (chain, spec, _disc(rng, 2.0),
                              rng.choice((100, 1000, 10000)),
                              rng.randrange(2 ** 31), step))
                for step in range(5)]
    # chi2 reconstruction from two-qubit correlations
    for chain, kind in enumerate(("entcat", "pair2", "product")):
        spec = _pair_spec(rng, kind)
        ops += [Op("chi2corr", (chain, spec, _disc(rng, 1.5), _disc(rng, 1.5),
                                step))
                for step in range(10)]
    # conditional preparation to a 16-term pair state, then its PPT and
    # witness values (Theta != 2 phi0 keeps all four branch patterns); six
    # chains put the tail rank inside the block of witness16 ops
    for chain in range(6):
        psi = _superposition(rng, 2, 1.0)
        phi0 = round(rng.uniform(0, math.pi), 4)
        theta = round(2 * phi0 + rng.uniform(0.3, 2.5), 4)
        alpha = _disc(rng, 1.2, 0.2)
        outcome = (rng.choice((-1, 1)), rng.choice((-1, 1)))
        xi0, eps = round(rng.uniform(0.5, 1.2), 4), round(rng.uniform(0.5, 1.8), 4)
        ops.append(Op("prepare", (chain, psi, theta, phi0,
                                  round(rng.uniform(-math.pi, math.pi), 4),
                                  alpha, outcome)))
        ops.append(Op("ptmin16", (chain, xi0, eps)))
        ops.append(Op("witness16", (chain, xi0, eps,
                                    round(rng.uniform(0.3, 0.5), 4))))
    return ops


GENERATORS = {
    "ent-scan": gen_ent_scan,
    "nc-scan": gen_nc_scan,
    "oracle-verify": gen_oracle_verify,
    "protocol": gen_protocol,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; deterministic per (workload, seed)."""
    index = list(GENERATORS).index(workload)
    return GENERATORS[workload](random.Random(seed * 16 + index))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

class CliFailure(RuntimeError):
    """A CLI op exited with a non-zero code."""


class Executor:
    """Runs ops against the package; holds the per-pass chain context of
    the protocol workload. Calls go through module attributes so that
    wrappers installed by the tracer are seen."""

    def __init__(self, cw):
        self.cw = cw
        self.bytes_out = 0
        self.ctx: dict = {}

    def new_pass(self):
        self.ctx = {}

    def run(self, op: Op):
        return getattr(self, "_" + op.kind)(*op.args)

    def _cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cw.cli.main(list(argv))
        text = out.getvalue()
        self.bytes_out += len(text)
        if code != 0:
            raise CliFailure(f"exit {code}: {err.getvalue().strip()}")
        return text

    def _state(self, spec):
        return self.cw.states.state_from_json(spec)

    def _oracle_chi(self, spec, alpha):
        return self.cw.oracle.oracle_chi(self._state(spec), alpha)

    def _oracle_chi2(self, spec, alpha, beta):
        return self.cw.oracle.oracle_chi2(self._state(spec), alpha, beta)

    def _bisect(self, key, lo, hi, value):
        lo, hi = self.ctx.get(key, (lo, hi))
        mid = 0.5 * (lo + hi)
        v = value(mid)
        self.ctx[key] = (lo, mid) if v <= 0 else (mid, hi)
        return mid, v

    def _wbisect(self, chain, eps, w, step):
        st, ent = self.cw.states, self.cw.entanglement

        def value(x):  # decreasing through the crossing
            return ent.witness_expectation(st.entangled_cat(x, +1),
                                           ent.paper_witness(x, eps, w))
        mid, v = self._bisect(("w", chain), 0.3, 1.6, value)
        return mid, v, sum(self.ctx[("w", chain)]) / 2

    def _nc1bisect(self, chain, p, step):
        st, nc = self.cw.states, self.cw.nonclassicality
        key = ("nc1state", chain)
        if key not in self.ctx:
            self.ctx[key] = st.Mixture(((1 - p, st.FockState(1)),
                                        (p, st.FockState(0))))
        state = self.ctx[key]
        # nc1_excess rises through the threshold; bisect on its negative
        mid, v = self._bisect(("nc1", chain), 1.0, 6.0,
                              lambda x: -nc.nc1_excess(state, x))
        return mid, -v, sum(self.ctx[("nc1", chain)]) / 2

    def _chain_state(self, key, spec):
        if key not in self.ctx:
            self.ctx[key] = self._state(spec)
        return self.ctx[key]

    def _chimeas(self, chain, spec, alpha0, step):
        state = self._chain_state(("chimeas", chain), spec)
        prev = self.ctx.get(("chimeas_prev", chain), 0j)
        alpha = alpha0 + 0.3 * prev * 1j ** step
        recon = self.cw.ramsey.chi_from_measurements(state, alpha)
        self.ctx[("chimeas_prev", chain)] = recon
        return alpha, recon

    def _sample(self, chain, spec, alpha, shots, seed, step):
        r = self.cw.ramsey
        state = self._chain_state(("sample", chain), spec)
        phi = self.ctx.get(("sample_phi", chain), 0.0)
        counts = r.sample_outcomes(state, r.RamseySetting(phi, alpha),
                                   shots, seed + step)
        self.ctx[("sample_phi", chain)] = math.pi * (counts["plus"] / shots - 0.5)
        return state, phi, alpha, shots, counts

    def _chi2corr(self, chain, spec, alpha0, beta0, step):
        state = self._chain_state(("chi2corr", chain), spec)
        prev = self.ctx.get(("chi2corr_prev", chain), 0j)
        alpha = alpha0 + 0.3 * prev
        beta = beta0 - 0.3 * prev.conjugate()
        recon = self.cw.ramsey.chi2_from_correlations(state, alpha, beta)
        self.ctx[("chi2corr_prev", chain)] = recon
        return state, alpha, beta, recon

    def _prepare(self, chain, psi_spec, theta, phi0, phi, alpha, outcome):
        r = self.cw.ramsey
        psi = self._state(psi_spec)
        pair, prob = r.prepare_conditional(psi, theta, phi0,
                                           r.RamseySetting(phi, alpha), outcome)
        self.ctx[("pair", chain)] = pair
        return psi, pair, prob

    def _ptmin16(self, chain, xi0, eps):
        ent = self.cw.entanglement
        pair = self.ctx[("pair", chain)]
        return pair, ent.ppt_min_eig(pair, ent.standard_settings(xi0, eps))

    def _witness16(self, chain, xi0, eps, w):
        ent = self.cw.entanglement
        pair = self.ctx[("pair", chain)]
        return pair, ent.witness_expectation(pair, ent.paper_witness(xi0, eps, w))

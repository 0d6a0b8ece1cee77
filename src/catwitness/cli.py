"""Command-line front end emitting reproducible CSV/JSON artifacts.

Subcommands: chi, ncregion, decay, ptmin, witness, ramsey, prepare.
Exit codes: 0 success, 2 usage error or floating-point overflow,
3 numeric/consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import entanglement, nonclassicality, oracle, ramsey, states

VERIFY_TOL = 1e-8
# qubit outcomes of prepare: g is -1, e is +1
OUTCOMES = {"gg": (-1, -1), "ge": (-1, +1), "eg": (+1, -1), "ee": (+1, +1)}


class UsageError(Exception):
    pass


class ConsistencyError(Exception):
    pass


_SCHEMA_HINT = ('state JSON schema: {"kind": "cat"|"fock"|"thermal"|'
                '"coherent_superposition"|"mixture"|"decohered"|'
                '"pair_superposition"|"product", ...}, complex numbers as '
                '[re, im]; shorthands: vac, coh:re[,im], fock:n, thermal:nth, '
                'cat:xi0[,theta]')
# fewest and most fields of each shorthand kind
_FIELDS = {"coh": (1, 2), "fock": (1, 1), "thermal": (1, 1), "cat": (1, 2)}


def parse_state(text: str):
    """Parse a --state argument: JSON object or inline shorthand."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return states.state_from_json(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"bad state JSON: {exc}; {_SCHEMA_HINT}") from exc
    try:
        return _parse_shorthand(text)
    except ValueError as exc:
        raise UsageError(f"bad state {text!r}: {exc}; {_SCHEMA_HINT}") from exc


def _parse_shorthand(text: str):
    if text == "vac":
        # as a one-term superposition so conditional states stay closed-form
        return states.CoherentSuperposition(((1.0, 0.0),))
    kind, _, rest = text.partition(":")
    if kind not in _FIELDS:
        raise ValueError(f"unknown shorthand kind {kind!r}")
    args = rest.split(",") if rest else []
    low, high = _FIELDS[kind]
    if not low <= len(args) <= high:
        count = low if low == high else f"{low} or {high}"
        raise ValueError(f"{kind} takes {count} field(s), got {len(args)}")
    if kind == "fock":
        return states.FockState(int(args[0]))
    # an optional second field (coh's im, cat's theta) defaults to 0
    x, y = [float(a) for a in args] + [0.0] * (2 - len(args))
    if kind == "coh":
        return states.CoherentSuperposition(((1.0, complex(x, y)),))
    if kind == "thermal":
        return states.ThermalState(x)
    return states.cat_state(x, y)


def parse_grid(text: str) -> nonclassicality.GridSpec:
    """Parse a --grid argument "min:max:step[,min:max:step]"."""
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise UsageError(f"bad grid axis {part!r}, expected min:max:step")
        try:
            axes.append(tuple(float(p) for p in pieces))
        except ValueError as exc:
            raise UsageError(f"bad grid axis {part!r}: {exc}") from exc
    try:
        return nonclassicality.GridSpec(tuple(axes))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write(args, text: str):
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(args, header: str, rows):
    """Write a header line and one line per row, each cell as %.17g."""
    lines = [header] + [",".join(f"{c:.17g}" for c in row) for row in rows]
    _write(args, "\n".join(lines) + "\n")


def _single_mode(args):
    state = parse_state(args.state)
    if not isinstance(state, states.SingleModeState):
        raise UsageError(f"{args.command} needs a single-mode state")
    return state


def _pair(args, xi0):
    """The separable control with --product, else the entangled cat."""
    if args.product:
        return states.ProductState(states.VACUUM, states.VACUUM)
    return states.entangled_cat(xi0, +1)


def _grid(args, *names) -> nonclassicality.GridSpec:
    """The parsed --grid; given names, it must have one axis per name."""
    if not args.grid:
        raise UsageError(f"{args.command} needs --grid")
    grid = parse_grid(args.grid)
    if names and len(grid.axes) != len(names):
        raise UsageError(f"{args.command} needs a {len(names)}-axis grid "
                         f"({', '.join(names)})")
    return grid


def _alpha_list(args):
    if args.alpha:
        out = []
        for text in args.alpha:
            re, _, im = text.partition("/")
            out.append(complex(float(re), float(im) if im else 0.0))
        return out
    if args.grid:
        return [complex(a, b) for a, b in zip(*parse_grid(args.grid).cells())]
    raise UsageError("chi needs --alpha or --grid")


def _one_alpha(args, default=None):
    """The one --alpha that decay and ramsey take, else default."""
    if not args.alpha:
        return default
    if len(args.alpha) > 1:
        raise UsageError(f"{args.command} takes one --alpha, "
                         f"got {len(args.alpha)}")
    return _alpha_list(args)[0]


def cmd_chi(args) -> int:
    state = _single_mode(args)
    alphas = _alpha_list(args)

    def row(alpha, c, cn):
        cells = [alpha.real, alpha.imag, c.real, c.imag, cn.real, cn.imag]
        if args.verify:
            delta = abs(c - oracle.oracle_chi(state, alpha))
            cells.append(delta)
            if delta > VERIFY_TOL:
                raise ConsistencyError(
                    f"oracle discrepancy {delta:g} at alpha={alpha}")
        return cells

    header = "alpha_re,alpha_im,chi_re,chi_im,chiN_re,chiN_im"
    if args.verify:
        header += ",oracle_delta"
    points = np.array(alphas, dtype=complex)
    _csv(args, header, map(row, alphas, state.chi(points).tolist(),
                           state.chi_normal(points).tolist()))
    return 0


def cmd_ncregion(args) -> int:
    state = _single_mode(args)
    scan = nonclassicality.region_scan(state, _grid(args), args.certificate,
                                       args.threshold)
    # Python floats and bools format faster than numpy scalars
    columns = (scan.axis1, scan.axis2, scan.values, scan.detected)
    _csv(args, "axis1,axis2,value,detected",
         zip(*(column.tolist() for column in columns)))
    return 0


def cmd_decay(args) -> int:
    state = _single_mode(args)
    alpha = _one_alpha(args)
    if alpha is None:
        raise UsageError("decay needs --alpha")
    ts, _ = _grid(args, "gamma_t").cells()
    values = abs(states.decohere(state, ts, args.nth).chi_normal(alpha))
    if (values[1:] > values[:-1] + 1e-12).any():
        print("warning: |chiN| is not monotone on this grid", file=sys.stderr)
    _csv(args, "gamma_t,absChiN", zip(ts, values))
    return 0


def cmd_ptmin(args) -> int:
    # the state depends on xi0 only: one stacked call per xi0 row
    grid = _grid(args, "xi0", "eps")
    eps = grid.axis_values(1)
    low = [entanglement.ppt_min_eig(_pair(args, x),
                                    entanglement.standard_settings(x, eps))
           for x in grid.axis_values(0)]
    _csv(args, "xi0,eps,lambda_min", zip(*grid.cells(), np.concatenate(low)))
    return 0


def cmd_witness(args) -> int:
    xs, _ = _grid(args, "xi0").cells()

    def cell(xi0):
        wd = entanglement.paper_witness(xi0, args.eps, args.w)
        return entanglement.witness_expectation(_pair(args, xi0), wd)

    _csv(args, "xi0,expectation", [(x, cell(x)) for x in xs])
    return 0


def cmd_ramsey(args) -> int:
    state = _single_mode(args)
    alpha = _one_alpha(args, 0j)
    if args.seed is not None and not args.shots:
        raise UsageError("--seed only seeds the --shots sampling")
    setting = ramsey.RamseySetting(args.phi, alpha)
    p_plus, p_minus = ramsey.outcome_probabilities(state, setting)
    result = {
        "phi": args.phi,
        "alpha": [alpha.real, alpha.imag],
        "p_plus": p_plus,
        "p_minus": p_minus,
    }
    if args.verify:
        exact = state.chi(alpha)
        recon = ramsey.chi_from_measurements(state, alpha)
        delta = abs(exact - recon)
        result["verify"] = {"chi_reconstruction_delta": delta}
        if delta > VERIFY_TOL:
            raise ConsistencyError(f"chi reconstruction delta {delta:g}")
    try:
        for outcome, key in ((+1, "conditional_plus"), (-1, "conditional_minus")):
            cond, prob = ramsey.conditional_state(state, setting, outcome)
            result[key] = {"state": states.state_to_json(cond),
                           "probability": prob}
    except TypeError:
        pass  # family not closed under displacement; probabilities suffice
    if args.shots:
        seed = args.seed or 0
        counts = ramsey.sample_outcomes(state, setting, args.shots, seed)
        result["shots"] = {"n": args.shots, "seed": seed, **counts}
    _write(args, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_prepare(args) -> int:
    psi = parse_state(args.psi)
    if not isinstance(psi, states.CoherentSuperposition):
        raise UsageError("prepare needs a coherent-superposition --psi")
    if args.theta is not None and args.bell == "psi_minus":
        raise UsageError("--theta is the phi_plus phase; psi_minus has none")
    theta = 0.0 if args.theta is None else args.theta
    alpha = complex(args.alpha_re, args.alpha_im)
    setting = ramsey.RamseySetting(args.phi, alpha)
    outcome = OUTCOMES[args.outcome]
    state, prob = ramsey.prepare_conditional(psi, theta, args.phi0, setting,
                                             outcome, bell=args.bell)
    result = {"outcome": args.outcome, "probability": prob,
              "state": states.state_to_json(state)}
    _write(args, json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; main looks up cmd_<command> at each call."""
    parser = argparse.ArgumentParser(
        prog="catwitness",
        description="Non-classicality tests and entanglement witnesses for "
                    "bosonic superposition states")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state=True, grid=True):
        if state:
            p.add_argument("--state", required=True, help=_SCHEMA_HINT)
        if grid:
            p.add_argument("--grid", help='"min:max:step[,min:max:step]"')
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("chi", help="characteristic function on points or a grid")
    common(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the Fock-space oracle")
    p.add_argument("--alpha", action="append",
                   help="displacement re[/im]; repeatable")

    p = sub.add_parser("ncregion", help="non-classicality region scan")
    common(p)
    p.add_argument("--certificate", choices=nonclassicality.CERTIFICATES,
                   default="nc2-det")
    p.add_argument("--threshold", type=float, default=None)

    p = sub.add_parser("decay", help="|chi_N| of the decohered state vs time")
    common(p)
    p.add_argument("--alpha", action="append", help="displacement re[/im]")
    p.add_argument("--nth", type=float, default=0.0)

    p = sub.add_parser("ptmin", help="min eigenvalue of the partially "
                                     "transposed 9x9 moment matrix")
    common(p, state=False)
    p.add_argument("--product", action="store_true",
                   help="separable control instead of the entangled cat")

    p = sub.add_parser("witness", help="expectation of the explicit witness")
    common(p, state=False)
    p.add_argument("--eps", type=float, default=math.pi / 2)
    p.add_argument("--w", type=float, default=0.4247)
    p.add_argument("--product", action="store_true",
                   help="separable control instead of the entangled cat")

    p = sub.add_parser("ramsey", help="outcome probabilities and conditional "
                                      "states of one Ramsey measurement")
    common(p, grid=False)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the chi reconstruction from two "
                        "modular measurements")
    p.add_argument("--alpha", action="append", help="displacement re[/im]")
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int,
                   help="seed of the --shots sampling (default 0)")

    p = sub.add_parser("prepare", help="two-mode conditional preparation")
    common(p, state=False, grid=False)
    p.add_argument("--psi", required=True, help="initial single-mode state")
    p.add_argument("--theta", type=float,
                   help="phase Theta of the phi_plus Bell state (default 0)")
    p.add_argument("--phi0", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--alpha-re", type=float, required=True)
    p.add_argument("--alpha-im", type=float, default=0.0)
    p.add_argument("--outcome", required=True, choices=tuple(OUTCOMES),
                   help="qubit outcomes")
    p.add_argument("--bell", choices=["phi_plus", "psi_minus"],
                   default="phi_plus")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # before Python 3.12, argparse parses "--opt=--" as an empty list,
        # which no choices check sees
        if any(v == [] or isinstance(v, list) and [] in v
               for v in vars(args).values()):
            parser.error("'--' is not an option value")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()["cmd_" + args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow, the result is out of floating-point range "
              f"({exc})", file=sys.stderr)
        return 2
    except (ConsistencyError, ArithmeticError) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

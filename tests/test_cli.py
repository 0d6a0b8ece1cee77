import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catwitness import (cat_state, cli, entangled_cat, nonclassicality,
                        oracle, states)
from catwitness.cli import main, parse_grid, parse_state, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_state_shorthands():
    assert parse_state("fock:2") == states.FockState(2)
    assert parse_state("thermal:1.5") == states.ThermalState(1.5)
    assert parse_state("cat:2,0") == cat_state(2.0, 0.0)
    vac = parse_state("vac")
    assert isinstance(vac, states.CoherentSuperposition)
    coh = parse_state("coh:0.5,-0.25")
    assert coh.terms[0][1] == complex(0.5, -0.25)


def test_parse_state_json():
    text = json.dumps(states.state_to_json(cat_state(1.5, 0.3)))
    assert parse_state(text) == cat_state(1.5, 0.3)
    with pytest.raises(UsageError):
        parse_state('{"kind": "nope"}')
    with pytest.raises(UsageError):
        parse_state("squeezed:1")


def test_parse_grid():
    grid = parse_grid("0:1:0.5,0:2:1")
    assert len(grid.axes) == 2
    with pytest.raises(UsageError):
        parse_grid("0:1")
    with pytest.raises(UsageError):
        parse_grid("0:1:x")


def test_grid_cell_cap(capsys, monkeypatch):
    # the cap is checked from the point counts, before any axis is built
    monkeypatch.setattr(nonclassicality.np, "arange", None)
    with pytest.raises(UsageError, match="1000000001 cells.*1000000"):
        parse_grid("0:1:1e-9")
    with pytest.raises(UsageError, match="1002001 cells"):
        parse_grid("0:1:1e-3,0:1:1e-3")
    code, out, err = run(capsys, "ncregion", "--state", "vac",
                         "--grid", "0:1:1e-9")
    assert (code, out) == (2, "")
    assert "cap" in err


def test_overflow_exits_2(capsys):
    code, out, _ = run(capsys, "ncregion", "--state", "fock:1",
                       "--grid", "39:40:1", "--certificate", "nc1")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["39,0,1519,1", "40,0,1598,1"]
    # chi_N of the cat is about e^78 at |alpha| = 40 and e^798 at 400
    code, out, _ = run(capsys, "chi", "--state", "cat:2,0", "--alpha", "40")
    assert code == 0
    assert math.isfinite(float(out.split()[1].split(",")[4]))
    code, out, err = run(capsys, "chi", "--state", "cat:2,0", "--alpha", "400")
    assert (code, out) == (2, "")
    assert "overflow" in err


def test_decay_of_fock_state_at_large_alpha(capsys):
    # chi_N of |1> after loss is 1 - e^{-gamma t} |alpha|^2: finite where
    # e^{|alpha|^2/2} chi would overflow
    code, out, _ = run(capsys, "decay", "--state", "fock:1", "--alpha", "40",
                       "--grid", "0:1:0.5")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.split()[1:]]
    want = [1599.0, 1600 * math.exp(-0.5) - 1, 1600 * math.exp(-1.0) - 1]
    assert values == pytest.approx(want, rel=1e-13)
    assert values[1:] == pytest.approx([969.449, 587.607], abs=1e-3)


# a failing call in the middle (argparse rejects the certificate), and the
# first call repeated after it
REUSE_CALLS = [
    ("ptmin", "--grid", "0.5:1:0.5,1:1.5:0.5"),
    ("chi", "--state", "cat:2,0", "--alpha", "1/0.5", "--alpha", "2"),
    ("ncregion", "--state", "fock:1", "--grid", "0:1:0.5",
     "--certificate", "nope"),
    ("witness", "--grid", "0.5:1:0.25", "--product"),
    ("ptmin", "--grid", "0.5:1:0.5,1:1.5:0.5"),
]


def test_repeated_main_calls_match_fresh_processes(capsys):
    """The parser is built once per process; main calls made one after
    another in this process give the bytes a fresh interpreter gives."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    fresh = {argv: subprocess.Popen(
        [sys.executable, "-m", "catwitness.cli", *argv], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for argv in dict.fromkeys(REUSE_CALLS)}
    got = [run(capsys, *argv) for argv in REUSE_CALLS]
    want = {}
    for argv, proc in fresh.items():
        out, err = proc.communicate(timeout=120)
        want[argv] = (proc.returncode, out, err)
    assert got == [want[argv] for argv in REUSE_CALLS]
    assert [code for code, _, _ in got] == [0, 0, 2, 0, 0]


SCIPY_FREE = """
import io, sys, contextlib
import catwitness, catwitness.cli, catwitness.oracle
runs = (["ncregion", "--state", "fock:1", "--certificate", "nc2-eig",
         "--grid", "0.2:1:0.4,0.3:1.2:0.3"],
        ["chi", "--state", "fock:2", "--alpha", "1", "--verify"],
        ["decay", "--state", "cat:2,0", "--alpha", "1/0.5", "--nth", "0.3",
         "--grid", "0:2:0.5"])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert catwitness.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_code_path_imports_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_chi_csv_output(capsys):
    code, out, _ = run(capsys, "chi", "--state", "cat:2,0", "--alpha", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha_re,alpha_im,chi_re,chi_im,chiN_re,chiN_im"
    cells = lines[1].split(",")
    assert float(cells[2]) == pytest.approx(0.5597491982622725, abs=1e-12)
    assert float(cells[4]) == pytest.approx(4.136018227291387, abs=1e-11)


def test_chi_verify_column(capsys):
    code, out, _ = run(capsys, "chi", "--state", "fock:1", "--alpha", "0.5",
                       "--verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(",oracle_delta")
    assert float(lines[1].split(",")[-1]) < 1e-8


def test_chi_verify_large_cutoffs(capsys, monkeypatch):
    code, out, _ = run(capsys, "chi", "--state", "fock:150", "--alpha", "2",
                       "--verify")
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[-1]) < 1e-8

    def no_matrix(*args):
        raise AssertionError("a matrix was built above the cap")

    monkeypatch.setattr(oracle, "state_to_matrix", no_matrix)
    monkeypatch.setattr(oracle, "displacement_matrix", no_matrix)
    code, _, err = run(capsys, "chi", "--state", "cat:40,0", "--alpha", "1",
                       "--verify")
    assert code == 2
    assert f"MAX_DIM={oracle.MAX_DIM}" in err


def test_chi_verify_stops_at_the_first_discrepancy(capsys, monkeypatch):
    # the oracle runs point by point up to the first offending one, and
    # nothing is written
    calls = []

    def off_at_second(state, alpha):
        calls.append(alpha)
        return state.chi(alpha) + (1e-6 if len(calls) == 2 else 0.0)

    monkeypatch.setattr(oracle, "oracle_chi", off_at_second)
    code, out, err = run(capsys, "chi", "--state", "fock:1", "--verify",
                         "--alpha", "0.5", "--alpha", "1/1", "--alpha", "2")
    assert (code, out) == (3, "")
    assert calls == [0.5, 1 + 1j]
    assert "oracle discrepancy 1e-06 at alpha=(1+1j)" in err


def test_chi_grid(capsys):
    code, out, _ = run(capsys, "chi", "--state", "vac",
                       "--grid", "0:1:0.5,0:0.5:0.5")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3 * 2


@pytest.mark.parametrize("argv", [
    ("chi", "--state", "vac", "--alpha", "1", "--threads", "2"),
    ("ptmin", "--grid", "1:1:1,1:1:1", "--verify"),
    ("witness", "--grid", "1:1:1", "--format", "json"),
    ("witness", "--grid", "0.5:0.6:0.1,7:9:1"),
    ("decay", "--state", "cat:2,0", "--alpha", "2", "--grid", "0:1:0.5,7:9:1"),
    ("decay", "--state", "cat:2,0", "--alpha", "2", "--alpha", "5",
     "--grid", "0:0.2:0.1"),
    ("ramsey", "--state", "cat:2,0", "--alpha", "1", "--alpha", "2"),
    ("ramsey", "--state", "cat:2,0", "--alpha", "1", "--seed", "3"),
    ("prepare", "--psi", "cat:1,0", "--alpha-re", "1", "--outcome", "gg",
     "--bell", "psi_minus", "--theta", "0.3"),
])
def test_options_without_effect_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    if argv.count("--alpha") > 1:
        assert f"{argv[0]} takes one --alpha, got 2" in err


def test_chi_usage_errors(capsys):
    code, _, err = run(capsys, "chi", "--state", "vac")
    assert code == 2
    assert "error" in err
    pair = json.dumps(states.state_to_json(entangled_cat(1.0, +1)))
    code, out, err = run(capsys, "chi", "--state", pair, "--alpha", "1")
    assert (code, out) == (2, "")
    assert "chi needs a single-mode state" in err
    for text, message in (("coh:1,2,3", "coh takes 1 or 2 field(s), got 3"),
                          ("fock:1,2", "fock takes 1 field(s), got 2"),
                          ("cat:1,0,5", "cat takes 1 or 2 field(s), got 3"),
                          ("thermal:", "thermal takes 1 field(s), got 0"),
                          ("cat:2,nan", "theta must be finite, got nan"),
                          ("cat:2,inf", "theta must be finite, got inf")):
        code, out, err = run(capsys, "chi", "--state", text, "--alpha", "0.5")
        assert (code, out) == (2, "")
        assert message in err
    code, out, err = run(capsys, "chi", "--state", "vac",
                         "--grid", "0:inf:0.1")
    assert (code, out) == (2, "")
    assert "bad axis" in err
    for n in ("1.7", '"2"', "true"):
        code, out, err = run(capsys, "chi", "--state",
                             f'{{"kind":"fock","n":{n}}}', "--alpha", "1")
        assert (code, out) == (2, "")
        assert "fock 'n' must be a JSON integer" in err
    code, out, err = run(capsys, "chi", "--state",
                         '{"kind":"thermal","n_th":"1.5"}', "--alpha", "1")
    assert (code, out) == (2, "")
    assert "'n_th' must be a JSON number" in err


def test_nan_mixture_weight_exits_2(capsys):
    state = ('{"kind":"mixture","components":[{"weight":NaN,'
             '"state":{"kind":"fock","n":0}}]}')
    code, out, err = run(capsys, "chi", "--state", state, "--alpha", "0.5")
    assert (code, out) == (2, "")
    assert "mixture weights must be non-negative" in err


def test_ncregion_non_finite_threshold_exits_2(capsys):
    for threshold in ("nan", "inf"):
        code, out, err = run(capsys, "ncregion", "--state", "cat:2,0",
                             "--grid", "0:1:0.5", "--certificate", "nc1",
                             "--threshold", threshold)
        assert (code, out) == (2, "")
        assert f"threshold must be finite, got {threshold}" in err


def test_ncregion_csv(capsys):
    code, out, _ = run(capsys, "ncregion", "--state", "fock:1",
                       "--grid", "0:2:0.5,0:1:0.5", "--certificate", "nc1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "axis1,axis2,value,detected"
    assert len(lines) == 1 + 5 * 3


def test_decay_monotone_warning(capsys):
    code, out, err = run(capsys, "decay", "--state", "cat:2,0", "--alpha", "2",
                         "--grid", "0:2:0.5", "--nth", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma_t,absChiN"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > 1.0 and values[-1] < 1.0
    assert err == ""  # thermal decay is monotone here


def test_ptmin_entangled_vs_product(capsys):
    code, out, _ = run(capsys, "ptmin", "--grid", "1:1:1,1.5:1.5:1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "xi0,eps,lambda_min"
    assert float(lines[1].split(",")[2]) < -1e-4
    code, out, _ = run(capsys, "ptmin", "--grid", "1:1:1,1.5:1.5:1",
                       "--product")
    assert float(out.strip().split("\n")[1].split(",")[2]) > -1e-10
    code, _, err = run(capsys, "ptmin")
    assert code == 2
    assert "needs --grid" in err


def test_witness_sign_change(capsys):
    code, out, _ = run(capsys, "witness", "--grid", "0.3:2:1.7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "xi0,expectation"
    first = float(lines[1].split(",")[1])
    last = float(lines[2].split(",")[1])
    assert first > 0 and last < 0


def test_ramsey_json(capsys):
    code, out, _ = run(capsys, "ramsey", "--state", "vac", "--alpha", "2",
                       "--phi", "0", "--verify", "--shots", "100", "--seed", "7")
    assert code == 0
    result = json.loads(out)
    assert result["p_plus"] == pytest.approx((1 + math.exp(-2.0)) / 2, abs=1e-12)
    assert result["verify"]["chi_reconstruction_delta"] < 1e-8
    assert result["shots"]["plus"] + result["shots"]["minus"] == 100
    assert "conditional_plus" in result
    # seeded runs are reproducible
    code, out2, _ = run(capsys, "ramsey", "--state", "vac", "--alpha", "2",
                        "--phi", "0", "--verify", "--shots", "100", "--seed", "7")
    assert out2 == out
    # --shots alone samples with seed 0
    outs = [run(capsys, "ramsey", "--state", "vac", "--alpha", "2",
                "--shots", "100", *seed)[1] for seed in ((), ("--seed", "0"))]
    assert outs[0] == outs[1] and json.loads(outs[0])["shots"]["seed"] == 0


def test_ramsey_open_family_omits_conditionals(capsys):
    code, out, _ = run(capsys, "ramsey", "--state", "fock:1", "--alpha", "1")
    assert code == 0
    result = json.loads(out)
    assert "conditional_plus" not in result
    assert "p_plus" in result


def test_prepare_json(capsys):
    code, out, _ = run(capsys, "prepare", "--psi", "vac", "--alpha-re", "1",
                       "--outcome", "gg")
    assert code == 0
    result = json.loads(out)
    assert result["probability"] == pytest.approx((1 + math.exp(-1.0)) / 4,
                                                  abs=1e-12)
    assert result["state"]["kind"] == "pair_superposition"
    # Theta defaults to 0; psi_minus, which has no Theta, runs without it
    code, out2, _ = run(capsys, "prepare", "--psi", "vac", "--alpha-re", "1",
                        "--outcome", "gg", "--theta", "0")
    assert (code, out2) == (0, out)
    code, out, _ = run(capsys, "prepare", "--psi", "vac", "--alpha-re", "1",
                       "--outcome", "ge", "--bell", "psi_minus")
    assert code == 0 and json.loads(out)["probability"] > 0


def test_prepare_bad_outcome(capsys):
    code, _, err = run(capsys, "prepare", "--psi", "vac", "--alpha-re", "1",
                       "--outcome", "xx")
    assert code == 2
    assert "outcome" in err
    # the sign spellings are gone; "--" is rejected, not a crash
    code, _, err = run(capsys, "prepare", "--psi", "vac", "--alpha-re", "1",
                       "--outcome=--")
    assert code == 2
    assert "Traceback" not in err
    for argv in (("chi", "--state=--", "--alpha", "1"),
                 ("chi", "--state", "vac", "--alpha=--")):
        assert run(capsys, *argv)[0] == 2
    for flag, message in (("--phi0", "phi0 must be finite, got nan"),
                          ("--theta", "Theta must be finite, got nan")):
        code, out, err = run(capsys, "prepare", "--psi", "coh:-1", "--alpha-re",
                             "2", "--outcome", "gg", flag, "nan")
        assert (code, out) == (2, "")
        assert message in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "chi.csv"
    code, out, _ = run(capsys, "chi", "--state", "vac", "--alpha", "1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("alpha_re,")


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2

import json
import math

import pytest

from catwitness import (cat_state, entangled_cat, nonclassicality, oracle,
                        states)
from catwitness.cli import main, parse_grid, parse_state, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_state_shorthands():
    assert parse_state("fock:2") == states.FockState(2)
    assert parse_state("thermal:1.5") == states.ThermalState(1.5)
    assert parse_state("cat:2,0") == cat_state(2.0, 0.0)
    assert parse_state("entcat:1,-") == entangled_cat(1.0, -1)
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
    code, out, err = run(capsys, "chi", "--state", "cat:2,0", "--alpha", "40")
    assert (code, out) == (2, "")
    assert "overflow" in err


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
])
def test_options_without_effect_are_rejected(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out == ""


def test_chi_usage_errors(capsys):
    code, _, err = run(capsys, "chi", "--state", "vac")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "chi", "--state", "entcat:1,+", "--alpha", "1")
    assert code == 2
    code, out, err = run(capsys, "chi", "--state", "vac",
                         "--grid", "0:inf:0.1")
    assert (code, out) == (2, "")
    assert "bad axis" in err


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "chi.csv"
    code, out, _ = run(capsys, "chi", "--state", "vac", "--alpha", "1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("alpha_re,")


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2

import argparse
import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noonforge import MatrixFile, cli, fock, noon, reference, save_matrix, serialize
from noonforge.cli import main
from noonforge.fock import state_from_spec

from oracles import bunched_amplitudes, fourier_hadamard_unitary, fourier_unitary

SPLITTER_II_PATH = str(reference.data_path("splitter_ii.json"))
# reproduce --json stdout and exit code on paths where claims fail, error claims included
REPRODUCE_FAILURES = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "reproduce_failures.json").read_text())
# stdout, stderr and exit code of the help and usage paths, recorded with COLUMNS=80
CLI_HELP = json.loads(
    (Path(__file__).resolve().parent / "goldens" / "cli_help.json").read_text())
PAPER_GOLDENS = Path(__file__).resolve().parent.parent / "benchmarks" / "goldens" / "paper.json"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out
    return _run


@pytest.fixture
def identity4(tmp_path):
    path = tmp_path / "identity4.json"
    save_matrix(path, MatrixFile.from_array(np.eye(4), "identity"))
    return str(path)


@pytest.fixture
def fourier4(tmp_path):
    # Through the 4-port Fourier matrix, 25 of the 35 outputs of 1,1,1,1 are
    # suppressed (Tichy et al., PRL 104, 220405, 2010); their amplitudes are
    # rounding noise of at most 1e-16, whose phase would be arbitrary.
    path = tmp_path / "fourier4.json"
    save_matrix(path, MatrixFile.from_array(fourier_unitary(4), "4-port Fourier"))
    return str(path)


@pytest.fixture
def fourier_hadamard4(tmp_path):
    # F (H + H), stored as its transpose: a file holds input port i in row i.
    # Each of 0,0,1,1's bunched outputs 2,0,0,0 and 0,0,2,0 is rounding noise.
    path = tmp_path / "fourier_hadamard4.json"
    save_matrix(path, MatrixFile.from_array(fourier_hadamard_unitary().T, "F (H + H)"))
    return str(path)


@pytest.fixture
def identity2(tmp_path):
    path = tmp_path / "identity2.json"
    save_matrix(path, MatrixFile.from_array(np.eye(2), "identity"))
    return str(path)


@pytest.fixture
def symmetric2(tmp_path):
    path = tmp_path / "symmetric.json"
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2)
    save_matrix(path, MatrixFile.from_array(u, "symmetric 50/50"))
    return str(path)


# --- unitarize ---------------------------------------------------------------

def test_unitarize_writes_projected_file(run, tmp_path):
    out_path = tmp_path / "projected.json"
    code, output = run("unitarize", "--matrix", SPLITTER_II_PATH,
                       "--out", str(out_path), "--json")
    assert code == 0
    payload = serialize.loads(output)
    assert float(payload["defect_before"]) > 0.05
    assert float(payload["defect_after"]) <= 1e-10
    assert float(payload["max_entry_deviation"]) < 0.03
    from noonforge import load_matrix, unitarity_defect
    assert unitarity_defect(load_matrix(out_path).to_array()) <= 1e-10


def test_unitarize_already_unitary(run, identity4, tmp_path):
    code, output = run("unitarize", "--matrix", identity4,
                       "--out", str(tmp_path / "out.json"), "--json")
    assert code == 0
    assert float(serialize.loads(output)["max_entry_deviation"]) < 1e-12


def test_unitarize_missing_file(run, tmp_path):
    code, _ = run("unitarize", "--matrix", str(tmp_path / "absent.json"),
                  "--out", str(tmp_path / "out.json"))
    assert code == 2


def test_unitarize_out_into_missing_directory(run, tmp_path):
    code, _ = run("unitarize", "--matrix", SPLITTER_II_PATH,
                  "--out", str(tmp_path / "absent" / "out.json"))
    assert code == 2


def test_unitarize_singular_matrix(run, tmp_path):
    path = tmp_path / "zeros.json"
    save_matrix(path, MatrixFile.from_array(np.zeros((2, 2)), "zeros"))
    code, _ = run("unitarize", "--matrix", str(path),
                  "--out", str(tmp_path / "out.json"))
    assert code == 3


def test_unitarize_refuses_a_matrix_whose_defect_overflows(tmp_path, capsys, splitter_ii):
    # Splitter II's magnitudes times 1e155: M^H M overflows, so no defect can be printed.
    path, out_path = tmp_path / "huge.json", tmp_path / "out.json"
    save_matrix(path, MatrixFile.from_array(splitter_ii * 1e155, "splitter II x 1e155"))
    code = main(["unitarize", "--json", "--matrix", str(path), "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("noonforge: numeric failure: matrix is not unitary "
                            "(its unitarity defect overflows)\n")
    assert not out_path.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_unitarize_rejects_non_standard_json_constants(run, tmp_path, token):
    path = tmp_path / "constant.json"
    text = reference.data_path("splitter_ii.json").read_text()
    path.write_text(text.replace('"meta": {', f'"meta": {{"note": {token}, ', 1))
    out_path = tmp_path / "out.json"
    code, _ = run("unitarize", "--matrix", str(path), "--out", str(out_path))
    assert code == 2
    assert not out_path.exists()


# --- evolve --------------------------------------------------------------------

def test_evolve_pair_input(run):
    code, output = run("evolve", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1")
    assert code == 0
    lines = output.splitlines()
    assert "|0,0,1,1>" in lines[2] and lines[2].strip().startswith("0.50")
    assert "|1,1,0,0>" in lines[3] and lines[3].strip().startswith("0.47")


def test_evolve_identity(run, identity2):
    code, output = run("evolve", "--matrix", identity2, "--input", "1,0", "--json")
    assert code == 0
    first = serialize.loads(output)["amplitudes"][0]
    assert first["state"] == "1,0"
    assert float(first["mag"]) == 1.0
    assert float(first["phase_deg"]) == 0.0


def test_evolve_json_is_deterministic(run):
    _, first = run("evolve", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1",
                   "--json")
    _, second = run("evolve", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1",
                    "--json")
    assert first == second


def test_negligible_amplitudes_print_phase_zero(run, fourier4):
    code, output = run("evolve", "--json", "--matrix", fourier4, "--input", "1,1,1,1")
    assert code == 0
    rows = json.loads(output)["amplitudes"]
    assert len(rows) == 35
    suppressed = [row for row in rows
                  if sum(j * int(n) for j, n in enumerate(row["state"].split(","))) % 4]
    assert len(suppressed) == 25
    assert all(row["mag"] == 0 and row["phase_deg"] == 0 for row in suppressed)
    assert '"mag": 0.000000, "phase_deg": 0.000000' in output
    # an allowed output keeps its phase
    assert [abs(row["phase_deg"]) for row in rows if row["state"] == "2,1,0,1"] == [180]
    # a real negative amplitude prints 180, whatever the sign of its imaginary noise
    _, output = run("evolve", "--json", "--matrix", fourier4, "--input", "1,2,0,0")
    assert '{"state": "2,0,1,0", "mag": 0.125000, "phase_deg": 180.000000}' in output
    assert "-180.000000" not in output


def test_negligible_amplitudes_list_phase_zero(run, fourier4):
    # the text listing follows the --json rule: a suppressed output prints +0 deg
    code, output = run("evolve", "--matrix", fourier4, "--input", "1,1,1,1")
    assert code == 0
    rows = re.findall(r"^  (\d\.\d{4}) @ +([+-]\d+) deg  \|([\d,]+)>$", output, re.M)
    assert len(rows) == 35
    suppressed = [row for row in rows
                  if sum(j * int(n) for j, n in enumerate(row[2].split(","))) % 4]
    assert len(suppressed) == 25
    assert all(mag == "0.0000" and deg == "+0" for mag, deg, _ in suppressed)
    # an allowed output keeps its phase
    assert [deg for _, deg, state in rows if state == "2,1,0,1"] in (["+180"], ["-180"])
    _, output = run("evolve", "--matrix", fourier4, "--input", "1,2,0,0")
    assert "  0.1250 @ +180 deg  |2,0,1,0>\n" in output
    assert "-180" not in output


def test_negligible_bunched_components_print_shifter_zero(run, fourier_hadamard4):
    code, output = run("noon", "--json", "--matrix", fourier_hadamard4, "--input", "0,0,1,1")
    assert code == 0
    rows = json.loads(output)["components"]
    assert [row["state"] for row in rows if row["mag"] == 0] == ["2,0,0,0", "0,0,2,0"]
    assert all(row["optimal_phase_deg"] == 0 for row in rows if row["mag"] == 0)
    assert ('{"state": "0,0,2,0", "mag": 0.000000, "phase_deg": 0.000000, '
            '"normalized_mag": 0.0000, "optimal_phase_deg": 0.00}') in output
    code, output = run("noon", "--matrix", fourier_hadamard4, "--input", "0,0,1,1")
    assert code == 0
    assert "  |0,0,2,0>  mag 0.0000  normalized 0.0000  shifter    +0 deg\n" in output


@pytest.mark.parametrize("spec, bunched_rows", [("4,4,4,4", 4), ("16,0,0,0", 969)])
def test_evolve_json_at_the_permanent_cap_meets_the_closed_form(run, operator_ii, spec,
                                                                bunched_rows):
    code, output = run("evolve", "--json", "--matrix", SPLITTER_II_PATH, "--input", spec)
    assert code == 0
    rows = json.loads(output)["amplitudes"]
    assert len(rows) == 969
    n = np.array(spec.split(","), dtype=int)
    checked = 0
    for row in rows:
        m = np.array(row["state"].split(","), dtype=int)
        # per(A) = per(A^T): an input bunched into one port is an output seen backwards
        u, counted, bunched = (
            (operator_ii.T, m, n) if np.count_nonzero(n) == 1 else (operator_ii, n, m))
        if np.count_nonzero(bunched) != 1:
            continue
        closed = bunched_amplitudes(u, counted)[np.flatnonzero(bunched)[0]]
        # the JSON carries 6 decimals of magnitude and phase
        assert abs(row["mag"] - abs(closed)) <= 5e-7 + 1e-12, (row, closed)
        turn = (row["phase_deg"] - np.angle(closed, deg=True) + 180) % 360 - 180
        assert abs(turn) <= 5e-7 + 1e-9, (row, closed)
        checked += 1
    assert checked == bunched_rows


def test_evolve_superposition_input_round_trips(run):
    spec = "0.6*|1,1,0,0> + 0.8@30*|0,0,1,1>"
    code, output = run("evolve", "--json", "--matrix", SPLITTER_II_PATH, "--input", spec)
    assert code == 0
    echoed = serialize.loads(output)["input"]
    assert echoed == "0.600000*|1,1,0,0> + 0.800000@30.00*|0,0,1,1>"
    basis, state = state_from_spec(spec)
    echoed_basis, echoed_state = state_from_spec(echoed)
    assert echoed_basis == basis
    assert np.allclose(echoed_state.amplitudes, state.amplitudes, rtol=0, atol=1e-15)


def test_evolve_echoes_a_phase_of_minus_180_as_180(run):
    # exp(-i pi) has an imaginary part of -1.2e-16, rounding noise: the echo
    # takes the same printed-phase rule as the amplitude rows
    echoed = []
    for phase in ("-180", "180"):
        code, output = run("evolve", "--json", "--matrix", SPLITTER_II_PATH,
                           "--input", f"1*|1,0,0,0> + 1@{phase}*|0,1,0,0>")
        assert code == 0
        echoed.append(serialize.loads(output)["input"])
    assert echoed[0] == echoed[1] == "0.707107*|1,0,0,0> + 0.707107@180.00*|0,1,0,0>"


def test_evolve_echoes_a_phase_that_rounds_to_minus_180_as_180(run):
    # -179.999 is more than noise, but its 2-decimal echo would read -180.00
    code, output = run("evolve", "--json", "--matrix", SPLITTER_II_PATH,
                       "--input", "1*|1,0,0,0> + 1@-179.999*|0,1,0,0>")
    assert code == 0
    assert serialize.loads(output)["input"] == \
        "0.707107*|1,0,0,0> + 0.707107@180.00*|0,1,0,0>"


def test_text_listing_prints_a_phase_that_rounds_to_minus_180_as_180(run, identity4):
    # the identity passes the input through, so the listing shows -179.7 rounded
    code, output = run("evolve", "--matrix", identity4,
                       "--input", "1*|1,0,0,0> + 1@-179.7*|0,1,0,0>")
    assert code == 0
    assert "  0.7071 @ +180 deg  |0,1,0,0>\n" in output
    assert "-180" not in output


@pytest.mark.parametrize("single", ["0,1,0,0", "0,0,1,0", "0,0,0,1"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_noon_prints_a_shifter_of_minus_180_as_180(run, fourier4, json_flag, single):
    # one photon through F: a bunched amplitude of phase 180 needs the shifter -180 / 1,
    # which prints as the same setting, 180
    code, output = run("noon", *json_flag, "--matrix", fourier4, "--input", single)
    assert code == 0
    assert "-180" not in output
    if json_flag:
        shifters = [c["optimal_phase_deg"] for c in serialize.loads(output)["components"]]
        assert all(-180 < s <= 180 for s in shifters)
        assert "180.00" in map(str, shifters)
    else:
        assert re.search(r"  shifter  \+180 deg\n", output)


def test_evolve_wrong_mode_count(run):
    code, _ = run("evolve", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1")
    assert code == 2


def test_evolve_bad_spec(run):
    code, _ = run("evolve", "--matrix", SPLITTER_II_PATH, "--input", "0,-1,0,0")
    assert code == 2


@pytest.mark.parametrize("spec", [
    "1@1" + "0" * 400 + "*|1,1,0,0>",
    "1" + "0" * 400 + "*|1,1,0,0>",
    "|1,1,0,0> + 1@-1" + "0" * 400 + "*|0,0,1,1>",
], ids=["phase", "amplitude", "second-term-phase"])
def test_evolve_rejects_non_finite_spec_terms(spec, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--matrix", SPLITTER_II_PATH, "--input", spec]) == 2
    assert capsys.readouterr().err.endswith("has a non-finite amplitude or phase\n")


BIG = "9" * 308  # 1e308, finite, but its square overflows
TINY = "0." + "0" * 200 + "1"  # 1e-201, nonzero, but its square underflows
HALF_MAX = "15" + "0" * 307  # 1.5e308


@pytest.mark.parametrize("command, spec, same_as", [
    ("evolve", BIG + "*|1,1,0,0>", "1,1,0,0"),
    ("evolve", BIG + "@30*|1,1,0,0> + 0.5*|0,0,1,1>", "1@30*|1,1,0,0>"),
    ("evolve", f"{HALF_MAX}*|1,1,0,0> + {HALF_MAX}@90*|1,1,0,0>", "1@45*|1,1,0,0>"),
    ("evolve", f"{TINY}*|1,1,0,0> + {TINY}@90*|0,0,1,1>", "|1,1,0,0> + 1@90*|0,0,1,1>"),
    ("noon", TINY + "*|1,1,0,0>", "1,1,0,0"),
    ("noon", BIG + "*|1,1,0,0>", "1,1,0,0"),
], ids=["big", "big-beside-small", "big-parts-sum", "tiny-pair", "noon-tiny", "noon-big"])
def test_spec_coefficients_are_scaled_before_the_norm(command, spec, same_as, capsys):
    """A finite nonzero coefficient names its ket however large or small it is."""
    argv = [command, "--json", "--matrix", SPLITTER_II_PATH, "--input"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, spec]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert main([*argv, same_as]) == 0
    expected = serialize.loads(capsys.readouterr().out)
    got = serialize.loads(captured.out)
    if command == "noon":  # noon echoes the spec as given
        del expected["input"], got["input"]
    assert got == expected


@pytest.mark.parametrize("spec", [
    f"{'1' + '0' * 308}*|1,1,0,0> + |0,0,1,1> + {'1' + '0' * 308}*|1,1,0,0>",
    f"{BIG}@90*|1,1,0,0> + {BIG}@90*|1,1,0,0>",
], ids=["real-sum-beside-another-ket", "imaginary-sum"])
def test_spec_terms_summing_past_the_float_range_are_refused(spec, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--matrix", SPLITTER_II_PATH, "--input", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("noonforge: input error: the terms on |1,1,0,0> sum to a "
                          "non-finite coefficient in spec ")


def test_capacity_env_override(run, monkeypatch):
    monkeypatch.setenv("NOONFORGE_CAP", "5")
    code, _ = run("evolve", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--photons", "200"],
    ["evolve", "--input", "200,0,0,0"],
    ["evolve", "--input", "|17,0,0,0> + |0,17,0,0>", "--json"],
    ["noon", "--input", "200,0,0,0"],
    ["noon", "--input", "9,8,0,0", "--select", "17,0,0,0"],
])
def test_photons_above_the_permanent_cap_refused_before_any_basis(argv, monkeypatch, capsys):
    def no_basis(modes, photons):
        raise AssertionError("basis built")
    monkeypatch.setattr(fock, "enumerate_basis", no_basis)
    monkeypatch.setattr(noon, "enumerate_basis", no_basis)
    assert main([*argv, "--matrix", SPLITTER_II_PATH]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"noonforge: input error: a (\d+)x\1 permanent \(\1 photons\) "
                    r"exceeds the cap of 16$", captured.err)


# --- noon ----------------------------------------------------------------------

def test_noon_four_photons(run):
    code, output = run("noon", "--matrix", SPLITTER_II_PATH, "--input", "1,1,1,1",
                       "--json")
    assert code == 0
    payload = serialize.loads(output)
    assert 0.317 <= float(payload["success_probability"]) <= 0.368
    assert float(payload["fidelity"]) >= 0.995
    assert len(payload["components"]) == 4


def test_noon_text_output(run):
    code, output = run("noon", "--matrix", SPLITTER_II_PATH, "--input", "1,1,1,1")
    assert code == 0
    assert output == (
        "matrix: splitter-II   input: 1,1,1,1\n"
        "photons: 4   modes: 4\n"
        "success probability: 0.3415\n"
        "fidelity           : 0.9999\n"
        "bunched components:\n"
        "  |4,0,0,0>  mag 0.2935  normalized 0.5023  shifter   +11 deg\n"
        "  |0,4,0,0>  mag 0.2949  normalized 0.5047  shifter   +27 deg\n"
        "  |0,0,4,0>  mag 0.2890  normalized 0.4946  shifter   -36 deg\n"
        "  |0,0,0,4>  mag 0.2912  normalized 0.4983  shifter   +17 deg\n")


def test_noon_select_same_side_pairs(run):
    code, output = run("noon", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1",
                       "--select", "1,1,0,0;0,0,1,1", "--json")
    assert code == 0
    payload = serialize.loads(output)
    assert float(payload["probability"]) == pytest.approx(0.47, abs=0.03)
    mags = [float(c["mag"]) for c in payload["components"]]
    assert mags == pytest.approx([0.686, 0.728], abs=0.02)


def test_noon_select_echoes_each_state_once(run):
    code, output = run("noon", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1",
                       "--select", "1,1,0,0;0,0,1,1;1,1,0,0", "--json")
    assert code == 0
    assert serialize.loads(output)["selection"] == ["1,1,0,0", "0,0,1,1"]


def test_noon_reads_only_bunched_amplitudes(run, monkeypatch):
    _, expected = run("noon", "--matrix", SPLITTER_II_PATH, "--input", "1,1,1,1",
                      "--json")

    def refuse(*args):
        raise AssertionError("noon without --select evolved the full table")

    monkeypatch.setattr(cli, "evolve_state", refuse)
    code, output = run("noon", "--matrix", SPLITTER_II_PATH, "--input", "1,1,1,1",
                       "--json")
    assert code == 0
    assert output == expected


def test_noon_select_ranks_each_kept_state_once(run, monkeypatch):
    index_of, calls = fock.FockBasis.index_of, []
    monkeypatch.setattr(fock.FockBasis, "index_of",
                        lambda self, state: calls.append(state) or index_of(self, state))
    code, _ = run("noon", "--matrix", SPLITTER_II_PATH, "--input", "1,1,1,1",
                  "--select", "4,0,0,0;0,4,0,0;0,0,4,0")
    assert code == 0
    assert calls == [(1, 1, 1, 1), (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0)]


def test_noon_two_port_splitter(run, symmetric2):
    code, output = run("noon", "--matrix", symmetric2, "--input", "1,1", "--json")
    assert code == 0
    payload = serialize.loads(output)
    assert float(payload["success_probability"]) == pytest.approx(1.0)
    assert float(payload["fidelity"]) == pytest.approx(1.0)


def test_noon_zero_weight_is_numeric_failure(run, identity4):
    code, _ = run("noon", "--matrix", identity4, "--input", "0,0,1,1")
    assert code == 3


# --- sweep -----------------------------------------------------------------------

def test_sweep_single_photon(run):
    code, output = run("sweep", "--matrix", SPLITTER_II_PATH, "--photons", "1",
                       "--json")
    assert code == 0
    payload = serialize.loads(output)
    assert len(payload["rows"]) == 4
    assert all(float(r["success_probability"]) == 1.0 for r in payload["rows"])


def test_sweep_four_photons_ranks_spread_first(run):
    code, output = run("sweep", "--matrix", SPLITTER_II_PATH, "--photons", "4")
    assert code == 0
    first_row = output.splitlines()[2]
    assert first_row.startswith("1,1,1,1")


def test_sweep_eight_photons_row_count(run, operator_ii):
    code, output = run("sweep", "--matrix", SPLITTER_II_PATH, "--photons", "8",
                       "--json")
    assert code == 0
    rows = json.loads(output)["rows"]
    assert len(rows) == 165
    for row in rows:
        mags = np.abs(bunched_amplitudes(operator_ii, row["input"].split(",")))
        success = float(np.sum(mags ** 2))
        fidelity = float(np.sum(mags)) ** 2 / (4 * success)
        # the JSON carries 4 decimals
        assert abs(row["success_probability"] - success) <= 5e-5 + 1e-12, (row, success)
        assert abs(row["fidelity"] - fidelity) <= 5e-5 + 1e-12, (row, fidelity)


# --- reproduce ---------------------------------------------------------------------

def test_reproduce_stock_bundle_passes(run):
    code, output = run("reproduce")
    assert code == 0
    assert "FAIL" not in output
    assert output.count("[PASS]") == 18


def test_reproduce_json_deterministic(run):
    code, first = run("reproduce", "--json")
    _, second = run("reproduce", "--json")
    assert code == 0
    assert first == second
    assert serialize.loads(first)["passed"] is True


def test_reproduce_identity_substitute_fails_claims(run, identity4):
    code, output = run("reproduce", "--matrix", identity4)
    assert code == 1
    assert "[FAIL]" in output


def test_reproduce_corrupted_file(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _ = run("reproduce", "--matrix", str(bad))
    assert code == 2


def test_reproduce_permutation_fails_same_side_branch(run, tmp_path):
    # port 0 -> 1, 1 -> 3, 2 -> 0, 3 -> 2 sends |0,0,1,1> to |1,0,1,0>, which
    # holds no weight on either same-side pair
    perm = np.zeros((4, 4))
    for src, dst in {0: 1, 1: 3, 2: 0, 3: 2}.items():
        perm[dst, src] = 1.0
    path = tmp_path / "perm.json"
    save_matrix(path, MatrixFile.from_array(perm, "permutation"))
    code, output = run("reproduce", "--matrix", str(path))
    assert code == 1
    assert ("[FAIL] same-side pair branch: error: post-selection kept zero probability "
            "(expected probability in [0.44, 0.52])") in output.splitlines()


def test_undecodable_matrix_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    for argv in (["evolve", "--matrix", str(path), "--input", "1,1"],
                 ["reproduce", "--matrix", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("noonforge: input error:")


def test_boolean_dim_is_not_an_integer(tmp_path, capsys):
    # bool is an int subclass; true must not pass as a dimension of 1
    path = tmp_path / "bool_dim.json"
    path.write_text('{"dim": true, "label": "m", "entries": [{"mag": 1, "phase_deg": 0}]}')
    assert main(["evolve", "--matrix", str(path), "--input", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"noonforge: input error: {path}: dim must be an integer, got True\n"


def test_matrix_file_nested_past_the_recursion_limit_is_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 2, "label": "deep", "entries": ' + "[" * 3000 + "]" * 3000 + "}")
    assert main(["evolve", "--matrix", str(path), "--input", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("noonforge: input error:")
    assert len(captured.err.splitlines()) == 1


def test_matrix_file_integer_past_the_digit_limit_is_input_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"dim": ' + "1" * 5000 + ', "label": "long", "entries": []}')
    assert main(["evolve", "--matrix", str(path), "--input", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("noonforge: input error:")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "abc"])
def test_reproduce_rejects_bad_tolerance(run, tol):
    with pytest.raises(SystemExit) as exc:
        run("reproduce", "--tol", tol)
    assert exc.value.code == 2


def test_reproduce_zero_tolerance_is_accepted(run):
    code, output = run("reproduce", "--tol", "0")
    assert code == 1
    assert "(tolerance scale 0)" in output


def test_reproduce_tiny_tolerance_fails(run):
    code, output = run("reproduce", "--tol", "1e-6")
    assert code == 1
    assert "[FAIL]" in output


@pytest.mark.parametrize("tol, code", [("5e307", 2), ("1e308", 2), ("1e300", 0)])
def test_reproduce_tolerance_bands_stay_finite(tol, code, capsys):
    assert main(["reproduce", "--tol", tol]) == code
    err = capsys.readouterr().err
    assert err.startswith("noonforge: input error: tol_scale ") if code else err == ""


@pytest.mark.parametrize("name", sorted(REPRODUCE_FAILURES))
def test_reproduce_failure_paths_match_golden(name, run, tmp_path):
    golden = REPRODUCE_FAILURES[name]
    argv = ["reproduce", "--json", "--tol", golden["tol"]]
    if golden["matrix"] is not None:
        path = tmp_path / "substitute.json"
        save_matrix(path, MatrixFile.from_array(np.array(golden["matrix"]), name))
        argv += ["--matrix", str(path)]
    assert run(*argv) == (golden["exit"], golden["stdout"])


# --- argument parser ------------------------------------------------------------

def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["evolve", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1"]) == 0
    built.clear()
    for argv in (["evolve", "--json", "--matrix", SPLITTER_II_PATH, "--input", "1,1,0,0"],
                 ["noon", "--matrix", SPLITTER_II_PATH, "--input", "1,1,1,1"],
                 ["sweep", "--matrix", SPLITTER_II_PATH, "--photons", "2"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def test_reused_parser_carries_nothing_between_calls(capsys):
    for argv, code in ((["sweep"], 2), (["--help"], 0), (["reproduce", "--tol", "nan"], 2)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert main(["noon", "--json", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1",
                 "--select", "1,1,0,0;0,0,1,1"]) == 0
    capsys.readouterr()
    # a --select left over from the call before would print a post-selection instead
    assert main(["noon", "--json", "--matrix", SPLITTER_II_PATH, "--input", "0,0,1,1"]) == 0
    captured = capsys.readouterr()
    golden = json.loads(PAPER_GOLDENS.read_text())["noon-0,0,1,1"]
    assert (captured.out, captured.err) == (golden["stdout"], "")


@pytest.mark.parametrize("name", list(CLI_HELP))
def test_help_and_usage_match_golden(name, monkeypatch, capsys):
    golden = CLI_HELP[name]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(golden["argv"])
    captured = capsys.readouterr()
    assert (captured.out, captured.err, exc.value.code) == (
        golden["stdout"], golden["stderr"], golden["code"])


# --- exit-code contract -----------------------------------------------------------

_KETS = ["1,1,1,1", "0,0,1,1", "1,1,0,0", "2,0,0,0", "0,0,0,0", "1,1", "1,1,1", "16,0,0,0",
         "17,0,0,0", "9,8,0,0", "1,-1,0,0", "1.5,0,0,0", "a,0,0,0", "1,,0,0",
         "1" * 5000 + ",0,0,0"]
_COEFFICIENTS = ["", "0.6*", "1@30*", "-1@-90*", "0*", "1e400*", "1" + "0" * 400 + "*",
                 "0." + "0" * 400 + "1*", "*", "1@*"]
_SPECS = st.one_of(
    st.sampled_from(["1,1,1,1", "0,0,1,1", "2,0,0,0", "1,1"]),  # so that some runs exit 0
    st.sampled_from(_KETS + ["", " ", "|", "|1,1,0,0", "+", ";"]),
    st.lists(st.builds("{}|{}>".format, st.sampled_from(_COEFFICIENTS), st.sampled_from(_KETS)),
             min_size=1, max_size=3).map(" + ".join),
    st.text("0123456789,|<>*@+-.e ;", max_size=12),
)
# JSON leaves a matrix file may hold: wrong types, bool, huge and tiny decimals, deep nesting
_LEAVES = ["null", "true", "false", "0", "1", "2", "4", "-1", "0.5", "4.0", '"4"', '"x"', "[]",
           "{}", "1e999", "-1e999", "1e-999", "1" + "0" * 400, "1" * 5000, "NaN", "Infinity",
           "[" * 3000 + "]" * 3000]
_KEYS = ["dim", "label", "entries", "meta", "mag", "phase_deg"]
_JSON = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: (
        st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]")
        | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4).map(
            lambda d: "{" + ", ".join(f'"{k}": {v}' for k, v in d.items()) + "}")),
    max_leaves=12)
_ENTRY = st.sampled_from([f'{{"mag": 0.5, "phase_deg": {p}}}' for p in (0, 90, -180, 30)])
_BAD_ENTRY = st.builds('{{"mag": {}, "phase_deg": {}}}'.format,
                       st.sampled_from(["0.5", "-0.5", "1e999", "1e-999", "1" * 5000]),
                       st.sampled_from(["0", "1e999", "1" + "0" * 400])) | _JSON


@st.composite
def _matrix_doc(draw):
    kind = draw(st.sampled_from(["json", "grid", "zeros", "identity"]))
    if kind == "json":
        return draw(_JSON)
    dim = draw(st.sampled_from([2, 4]))
    dim_token = draw(st.sampled_from([str(dim)] * 4 + ["true", f"{dim}.0", f'"{dim}"', "1" * 5000]))
    if kind == "grid":
        entries = draw(st.lists(_ENTRY, min_size=dim * dim, max_size=dim * dim))
        if draw(st.booleans()):  # one entry wrong or missing
            entries[draw(st.integers(0, dim * dim - 1))] = draw(_BAD_ENTRY | st.none())
        entries = [entry for entry in entries if entry is not None]
    else:
        entries = [f'{{"mag": {int(kind == "identity" and i % (dim + 1) == 0)}, "phase_deg": 0}}'
                   for i in range(dim * dim)]
    label = draw(st.sampled_from(['"m"', '"m"', "null", "[]"]))
    return f'{{"dim": {dim_token}, "label": {label}, "entries": [{", ".join(entries)}]}}'


# the file a --matrix or --out names; {root} is a fresh directory
_MATRICES = st.sampled_from([SPLITTER_II_PATH] * 2 + ["{root}/doc.json"] * 4 + [
    "{root}/absent.json", "{root}", "{root}/absent/m.json"])
_OUTS = st.sampled_from(["{root}/out.json", "{root}", "{root}/absent/out.json"])
_PHOTONS = st.sampled_from(["0", "1", "2", "4", "16", "17", "-1", "200", "1" * 5000, "1.5", "x"])
_TOLS = st.sampled_from(["0", "1", "1e-6", "1e300", "5e307", "1e308", "1e-400", "nan", "inf",
                         "-1", "x"])


@st.composite
def _cli_case(draw):
    command = draw(st.sampled_from(["unitarize", "evolve", "noon", "sweep", "reproduce"]))
    argv = [command]
    if command != "reproduce" or draw(st.booleans()):
        argv += ["--matrix", draw(_MATRICES)]
    if command == "unitarize":
        argv += ["--out", draw(_OUTS)]
    elif command in ("evolve", "noon"):
        argv += ["--input", draw(_SPECS)]
    elif command == "sweep":
        argv += ["--photons", draw(_PHOTONS)]
    elif draw(st.booleans()):
        argv += ["--tol", draw(_TOLS)]
    if command == "noon" and draw(st.booleans()):
        argv += ["--select", draw(st.lists(_SPECS, min_size=1, max_size=3).map(";".join))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, draw(_matrix_doc())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_cli_case())
def test_every_argv_keeps_the_exit_code_contract(case):
    """Exit 0, 2 or 3 (1 only from reproduce), no traceback and no warning, and
    one `noonforge:` line for each exit 2 or 3 that argparse did not raise.
    A basis cap of 50 states keeps each run to at most 4 photons over 4 ports."""
    argv, doc = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.dict(os.environ, {fock.CAP_ENV_VAR: "50"}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        Path(root, "doc.json").write_text(doc)
        argv = [arg.replace("{root}", root) for arg in argv]
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    assert code in (0, 2, 3) or (code == 1 and argv[0] == "reproduce"), (code, argv)
    if code in (2, 3) and not by_argparse:
        lines = stderr.getvalue().splitlines()
        assert sum(line.startswith("noonforge: ") for line in lines) == 1, lines

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg

import cplab
from cplab import NoNegativeDirection, Superoperator
from cplab.dynamics import tensor_extension
from cplab.cli import build_parser, load_config, main
from cplab.linalg import POSITIVITY_TOL, eps_pos, min_eigenvalue

from helpers import (
    coeff_at_cutoff,
    random_generator,
    random_hermitian,
    random_psd,
    random_pure_vector,
    random_traceless_hermitian,
)

DATA = Path(__file__).parent / "data"
NEGATIVE_GENERATOR = json.loads((DATA / "config_negative.json").read_text())["generator"]


def _to_json(m):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def _write_gks_config(path, h, coeff):
    generator = {"hamiltonian": _to_json(h), "coeff": _to_json(coeff)}
    path.write_text(json.dumps({"dim": h.shape[0], "generator": generator}))


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _canonical(node, digits=9):
    """Round every float to a fixed number of significant digits so golden
    comparisons tolerate last-ulp variation between LAPACK builds."""
    if isinstance(node, dict):
        return {k: _canonical(v, digits) for k, v in node.items()}
    if isinstance(node, list):
        return [_canonical(v, digits) for v in node]
    if isinstance(node, float):
        return 0.0 if node == 0.0 else float(f"{node:.{digits}e}")
    return node


def _data(name):
    return str(DATA / name)


NEGATIVE = ["--config", _data("config_negative.json")]
DEPOLARIZING = ["--config", _data("config_depolarizing.json")]

GOLDEN_CASES = [
    ("golden_checkcp_depolarizing.json", ["check-cp", *DEPOLARIZING], 0),
    ("golden_checkcp_negative.json", ["check-cp", *NEGATIVE], 2),
    ("golden_witness_negative.json", ["witness", *NEGATIVE], 2),
    ("golden_scan_negative.json", ["scan", *NEGATIVE], 2),
    ("golden_convert_lowering.json", ["convert", "--config", _data("config_lowering.json")], 0),
    ("golden_witness_depolarizing.json", ["witness", *DEPOLARIZING], 0),
    ("golden_convert_depolarizing.json", ["convert", *DEPOLARIZING], 0),
    ("golden_witness_negative_bell.json", ["witness", *NEGATIVE, "--bell-fixture"], 2),
    (
        "golden_evolve_negative.json",
        ["evolve", *NEGATIVE, "--time", "0.3", "--state", _data("state_d2.json")],
        0,
    ),
    (
        "golden_evolve_meson_negative.json",
        ["evolve", *NEGATIVE, "--time", "0.3", "--preset", "meson-d2"],
        2,
    ),
]


@pytest.mark.parametrize("golden, argv, exit_code", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES])
def test_golden_report(golden, argv, exit_code, capsys):
    """Reports match their checked-in goldens up to last-ulp rounding."""
    code, out, _ = _run(argv, capsys)
    assert code == exit_code
    expected = json.loads((DATA / golden).read_text())
    assert _canonical(json.loads(out)) == _canonical(expected)


def test_problem_config_compares_by_identity():
    args = build_parser().parse_args(["check-cp", *DEPOLARIZING])
    a, b = load_config(args), load_config(args)
    assert a == a
    assert (a == b) is False


class TestCheckCpExamples:
    def test_depolarizing_exit_zero(self, capsys):
        code, out, _ = _run(["check-cp", "--config", str(DATA / "config_depolarizing.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"]["is_cp"] is True
        assert report["verdict"]["min_coeff_eigenvalue"] == 1.0
        assert "witness" not in report

    def test_negative_coeff_exit_two_with_witness(self, capsys):
        code, out, _ = _run(["check-cp", "--config", str(DATA / "config_negative.json")], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["verdict"]["is_cp"] is False
        assert report["verdict"]["min_coeff_eigenvalue"] == -1.0
        assert report["witness"]["value"] < 0
        assert report["witness"]["quadratic_form"] == pytest.approx(-1.0)

    def test_generated_d4_non_psd_exit_two_with_witness(self, tmp_path, capsys):
        # ||C||_F ~ 28 hides the negativity from Choi spectra of exp(tL) at
        # fixed sample times; the verdict must still certify non-CP.
        rng = np.random.default_rng(7)
        h = random_traceless_hermitian(4, rng)
        coeff = random_hermitian(15, rng)
        coeff -= (np.linalg.eigvalsh(coeff)[0] + 0.5) * np.eye(15)
        cfg = tmp_path / "d4.json"
        _write_gks_config(cfg, h, coeff)
        code, out, _ = _run(["check-cp", "--config", str(cfg)], capsys)
        assert code == 2
        report = json.loads(out)
        assert report["verdict"]["is_cp"] is False
        assert report["witness"]["value"] < 0

    @pytest.mark.parametrize("psd", [True, False])
    @pytest.mark.parametrize("command", ["check-cp", "witness"])
    def test_rotated_basis_config_gives_the_same_verdict(self, command, psd, tmp_path, capsys):
        # F'_b = sum_a Q_ab F_a with a complex unitary Q and C' = Q^H C Q
        # describe the same generator as C over the standard basis.
        rng = np.random.default_rng(23)
        h = random_traceless_hermitian(3, rng)
        coeff = random_psd(8, rng) if psd else random_hermitian(8, rng)
        mix = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        rotated = np.einsum("ab,aij->bij", mix, cplab.standard_basis(3).elements)
        std_cfg, rot_cfg = tmp_path / "std.json", tmp_path / "rot.json"
        _write_gks_config(std_cfg, h, coeff)
        generator = {
            "hamiltonian": _to_json(h),
            "coeff": _to_json(mix.conj().T @ coeff @ mix),
            "basis": [_to_json(f) for f in rotated],
        }
        rot_cfg.write_text(json.dumps({"dim": 3, "generator": generator}))
        std_code, std_out, _ = _run([command, "--config", str(std_cfg)], capsys)
        rot_code, rot_out, _ = _run([command, "--config", str(rot_cfg)], capsys)
        assert std_code == rot_code == (0 if psd else 2)
        std, rot = json.loads(std_out)["verdict"], json.loads(rot_out)["verdict"]
        assert std["is_cp"] is rot["is_cp"] is psd
        for key in ("min_coeff_eigenvalue", "min_choi_eigenvalue"):
            assert rot[key] == pytest.approx(std[key], abs=1e-12)

    def test_malformed_matrix_exit_one_names_field(self, capsys):
        code, out, err = _run(["check-cp", "--config", str(DATA / "config_malformed.json")], capsys)
        assert code == 1
        assert out == ""
        assert "generator.hamiltonian" in err
        assert "expected 2" in err

    def test_byte_determinism(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"vector": [1, 0, 0, 1]}))
        negative = ["--config", str(DATA / "config_negative.json")]
        for argv in (
            ["check-cp", "--config", str(DATA / "config_depolarizing.json")],
            ["check-cp", *negative],
            ["witness", *negative],
            ["convert", "--config", str(DATA / "config_lowering.json")],
            ["evolve", *negative, "--time", "0.3", "--state", str(state)],
            ["scan", *negative],
        ):
            out_a = tmp_path / "a.json"
            out_b = tmp_path / "b.json"
            main([*argv, "--output", str(out_a)])
            main([*argv, "--output", str(out_b)])
            assert out_a.read_bytes() == out_b.read_bytes()
            capsys.readouterr()


class TestWitnessCommand:
    def test_negative_config_scan_attached(self, capsys):
        code, out, _ = _run(
            ["witness", "--config", str(DATA / "config_negative.json")], capsys
        )
        assert code == 2
        report = json.loads(out)
        assert report["witness"]["value"] < 0
        assert report["scan"]["first_negative_time"] <= 1e-2
        overlaps = report["scan"]["overlap_values"]
        assert overlaps[0] < 0

    def test_cp_config_reports_no_direction(self, capsys):
        code, out, _ = _run(
            ["witness", "--config", str(DATA / "config_depolarizing.json")], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert "witness" not in report
        assert report["no_negative_direction"]["min_coeff_eigenvalue"] == 1.0
        assert "scan" not in report

    def test_bell_fixture_matrices(self, capsys):
        code, out, _ = _run(
            ["witness", "--config", str(DATA / "config_negative.json"), "--bell-fixture"],
            capsys,
        )
        assert code == 2
        report = json.loads(out)
        phi = np.array([[complex(re, im) for re, im in row] for row in report["witness"]["phi_matrix"]])
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(phi, expected, atol=1e-12)
        assert report["witness"]["transpose_sign"] == -1

    def test_linear_grid_from_zero(self, capsys):
        argv = ["scan", "--config", str(DATA / "config_negative.json"), "--grid", "0:1:5:lin"]
        code, out, _ = _run(argv, capsys)
        assert code == 2
        assert json.loads(out)["scan"]["times"] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_log_grid_to_1e10_stays_finite(self, capsys):
        argv = ["scan", "--config", str(DATA / "config_negative.json"), "--grid", "1:1e10:4:log"]
        code, out, _ = _run(argv, capsys)
        assert code == 2
        assert json.loads(out)["scan"]["first_negative_time"] is not None

    def test_custom_grid(self, capsys):
        code, out, _ = _run(
            [
                "witness",
                "--config",
                str(DATA / "config_negative.json"),
                "--grid",
                "1e-3:0.5:5:log",
            ],
            capsys,
        )
        assert code == 2
        report = json.loads(out)
        assert len(report["scan"]["times"]) == 5
        assert report["scan"]["times"][0] == pytest.approx(1e-3)


class TestConvertCommand:
    def test_lowering_operator_to_gks(self, capsys):
        code, out, _ = _run(["convert", "--config", str(DATA / "config_lowering.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["generator"]["form"] == "gks"
        coeff = np.array(
            [[complex(re, im) for re, im in row] for row in report["generator"]["coeff"]]
        )
        expected = np.array(
            [[0.5, 0.5j, 0.0], [-0.5j, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex
        )
        np.testing.assert_allclose(coeff, expected, atol=1e-14)

    def test_negative_gks_refused(self, capsys):
        code, out, err = _run(["convert", "--config", str(DATA / "config_negative.json")], capsys)
        assert code == 2
        assert out == ""
        assert "refused" in err

    def test_gks_to_lindblad_round_trip(self, tmp_path, capsys):
        code, out, _ = _run(
            ["convert", "--config", str(DATA / "config_depolarizing.json")], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["generator"]["form"] == "lindblad"
        assert len(report["generator"]["jump_ops"]) == 3

    def test_empty_jump_list_gives_zero_coeff(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"dim": 2, "generator": {"jump_ops": []}}))
        code, out, _ = _run(["convert", "--config", str(cfg)], capsys)
        assert code == 0
        report = json.loads(out)
        coeff = np.array(
            [[complex(re, im) for re, im in row] for row in report["generator"]["coeff"]]
        )
        np.testing.assert_array_equal(coeff, np.zeros((3, 3)))


class TestEvolveCommand:
    def test_time_zero_echo(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"matrix": [[0.5, 0], [0, 0.5]]}))
        code, out, _ = _run(
            [
                "evolve",
                "--config",
                str(DATA / "config_negative.json"),
                "--state",
                str(state),
                "--time",
                "0",
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        evolved = np.array([[complex(re, im) for re, im in row] for row in report["state"]])
        np.testing.assert_allclose(evolved, np.eye(2) / 2, atol=1e-12)
        assert report["mode"] == "single"

    def test_entangled_state_under_cp_tensor_dynamics(self, tmp_path, capsys):
        cfg = tmp_path / "cp.json"
        cfg.write_text(
            json.dumps({"generator": {"coeff": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}})
        )
        code, out, _ = _run(
            ["evolve", "--preset", "meson-d2", "--config", str(cfg), "--time", "0.5"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["mode"] == "extended"
        assert report["min_eigenvalue"] >= -1e-9
        assert report["trace"][0] == pytest.approx(1.0, abs=1e-9)
        assert abs(report["trace"][1]) <= 1e-12

    def test_witness_state_under_non_cp_dynamics(self, capsys):
        code, out, _ = _run(
            [
                "evolve",
                "--preset",
                "meson-d2",
                "--config",
                str(DATA / "config_negative.json"),
                "--time",
                "0.001",
            ],
            capsys,
        )
        assert code == 2
        report = json.loads(out)
        assert report["min_eigenvalue"] < -1e-9
        assert report["positivity_violated"] is True

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_doubled_state_matches_tensor_extension_reference(self, d, tmp_path, capsys):
        rng = np.random.default_rng(50 + d)
        coeff = random_hermitian(d * d - 1, rng)
        g = random_generator(d, rng, coeff=coeff / np.linalg.norm(coeff))
        cfg = tmp_path / "cfg.json"
        _write_gks_config(cfg, g.hamiltonian, g.coeff)
        v = random_pure_vector(d * d, rng)
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"vector": [[z.real, z.imag] for z in v]}))
        t = 0.3
        _, out, _ = _run(
            ["evolve", "--config", str(cfg), "--state", str(state), "--time", str(t)], capsys
        )
        report = json.loads(out)
        assert report["mode"] == "extended"
        evolved = np.array([[complex(re, im) for re, im in row] for row in report["state"]])
        propagator = Superoperator(dim=d * d, matrix=scipy.linalg.expm(t * tensor_extension(g).matrix))
        np.testing.assert_allclose(evolved, propagator.apply(np.outer(v, v.conj())), atol=1e-12)

    @pytest.mark.parametrize("config", ["config_depolarizing.json", "config_negative.json"])
    def test_long_time_keeps_the_trace(self, config, tmp_path, capsys):
        """At t = 1e3 the propagator still keeps Tr rho to 1e-10: no trace refusal."""
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"matrix": [[0.5, 0], [0, 0.5]]}))
        argv = ["evolve", "--config", str(DATA / config), "--state", str(state), "--time", "1e3"]
        code, out, _ = _run(argv, capsys)
        assert code in (0, 2)
        assert abs(complex(*json.loads(out)["trace"]) - 1.0) <= 1e-10

    def test_dimension_mismatch(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"matrix": [[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]}))
        code, _, err = _run(
            [
                "evolve",
                "--config",
                str(DATA / "config_negative.json"),
                "--state",
                str(state),
                "--time",
                "0.1",
            ],
            capsys,
        )
        assert code == 1
        assert "neither" in err


def _diagonal_state_at_cutoff(n, tol, ulps):
    """``diag(1 + e, -e, 0, ...)`` of size ``n``, with ``e`` stepped ``ulps`` floats
    from the largest ``e`` at which ``lambda_min = -e`` still meets ``-eps_pos(state, tol)``."""

    def state(e):
        return np.diag([1.0 + e, -e] + [0.0] * (n - 2)).astype(complex)

    def accepted(e):
        return min_eigenvalue(state(e)) >= -eps_pos(state(e), tol)

    lo, hi = 0.0, 2.0 * tol
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    e = lo
    for _ in range(abs(ulps)):
        e = np.nextafter(e, np.sign(ulps) * np.inf)
    return state(e)


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-3])
@pytest.mark.parametrize("n", [2, 4], ids=["d", "d2"])
def test_evolve_checks_the_state_at_the_resolved_tolerance(n, tol, tmp_path, capsys):
    """At t = 0 the evolved state is the input: the intake refuses it (exit 1)
    exactly when the state is not PSD at ``--tol``, and the evolution never
    certifies a violation (exit 2) for a state the intake accepted."""
    codes = set()
    path = tmp_path / "s.json"
    for ulps in range(-2, 3):
        state = _diagonal_state_at_cutoff(n, tol, ulps)
        path.write_text(json.dumps({"matrix": state.real.tolist()}))
        argv = ["evolve", "--config", str(DATA / "config_depolarizing.json"), "--state", str(path)]
        code, _, err = _run([*argv, "--time", "0", "--tol", repr(tol)], capsys)
        refused = min_eigenvalue(state) < -eps_pos(state, tol)
        assert code == (1 if refused else 0), (ulps, err)
        assert ("below -eps_pos" in err) == refused
        codes.add(code)
    assert codes == {0, 1}


class TestScanCommand:
    def test_explicit_pair(self, tmp_path, capsys):
        code, out, _ = _run(["witness", "--config", str(DATA / "config_negative.json")], capsys)
        witness = json.loads(out)["witness"]
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"psi": witness["psi"], "phi": witness["phi"]}))
        code, out, _ = _run(
            [
                "scan",
                "--config",
                str(DATA / "config_negative.json"),
                "--state",
                str(pair),
                "--grid",
                "1e-4:0.1:8:log",
            ],
            capsys,
        )
        assert code == 2
        report = json.loads(out)
        assert report["scan"]["first_negative_time"] is not None
        assert len(report["scan"]["times"]) == 8

    def test_cp_config_scans_nothing(self, capsys):
        code, out, _ = _run(["scan", "--config", str(DATA / "config_depolarizing.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert "scan" not in report
        assert report["no_negative_direction"]["min_coeff_eigenvalue"] == 1.0


class TestConfigHandling:
    def test_missing_dim(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"generator": {"coeff": [[1]]}}))
        code, _, err = _run(["check-cp", "--config", str(cfg)], capsys)
        assert code == 1
        assert "dim" in err

    def test_both_forms_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"dim": 2, "generator": {"coeff": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "jump_ops": []}}
            )
        )
        code, _, err = _run(["check-cp", "--config", str(cfg)], capsys)
        assert code == 1
        assert "exactly one" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = _run(["check-cp", "--frobnicate"], capsys)
        assert code == 1

    def test_missing_config_file(self, capsys):
        code, _, err = _run(["check-cp", "--config", "/nonexistent/x.json"], capsys)
        assert code == 1
        assert "cannot read config" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = _run(
            ["witness", "--config", str(DATA / "config_negative.json"), "--grid", "oops"],
            capsys,
        )
        assert code == 1
        assert "--grid" in err

    def test_env_tolerance_lowest_precedence(self, monkeypatch, capsys):
        monkeypatch.setenv("CPLAB_TOL", "1e-7")
        code, out, _ = _run(
            ["check-cp", "--config", str(DATA / "config_depolarizing.json")], capsys
        )
        assert code == 0
        assert json.loads(out)["provenance"]["tolerance"] == 1e-7

        code, out, _ = _run(
            ["check-cp", "--config", str(DATA / "config_depolarizing.json"), "--tol", "1e-8"],
            capsys,
        )
        assert json.loads(out)["provenance"]["tolerance"] == 1e-8

    def test_config_tolerance_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CPLAB_TOL", "1e-7")
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "generator": {"coeff": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                    "tolerances": {"positivity": 1e-6},
                }
            )
        )
        code, out, _ = _run(["check-cp", "--config", str(cfg)], capsys)
        assert json.loads(out)["provenance"]["tolerance"] == 1e-6

    def test_preset_requires_coeff(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"generator": {"jump_ops": []}}))
        code, _, err = _run(
            ["check-cp", "--preset", "meson-d2", "--config", str(cfg)], capsys
        )
        assert code == 1
        assert "coeff" in err

    def test_complex_entries_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "generator": {
                        "coeff": [
                            [[0.5, 0], [0, 0.5], [0, 0]],
                            [[0, -0.5], [0.5, 0], [0, 0]],
                            [[0, 0], [0, 0], [0, 0]],
                        ]
                    },
                }
            )
        )
        code, out, _ = _run(["check-cp", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"]["is_cp"] is True


def _assert_typed_error(argv, capsys):
    code, _, err = _run(argv, capsys)
    assert code == 1
    assert re.match(r"cplab: (config )?error: ", err)
    assert "Traceback" not in err
    return err


def _config_with(tmp_path, name, **fields):
    """Copy of ``tests/data/<name>`` with top-level ``fields`` replaced."""
    raw = json.loads((DATA / name).read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**raw, **fields}))
    return cfg


class TestNonFiniteTimes:
    """Non-finite or non-numeric times end in a typed error line, exit 1."""

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_evolve_time(self, time, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"matrix": [[0.5, 0], [0, 0.5]]}))
        argv = ["evolve", "--config", str(DATA / "config_negative.json"), "--state", str(state)]
        _assert_typed_error([*argv, "--time", time], capsys)

    def test_scan_grid_spec_with_infinite_stop(self, capsys):
        argv = ["scan", "--config", str(DATA / "config_negative.json"), "--grid", "0:inf:3:lin"]
        _assert_typed_error(argv, capsys)

    @pytest.mark.parametrize("grid", [[float("nan")], ["x"], [[1]]])
    def test_config_grid_entries(self, grid, tmp_path, capsys):
        cfg = _config_with(tmp_path, "config_negative.json", grid=grid)
        _assert_typed_error(["scan", "--config", str(cfg)], capsys)


class TestNonFiniteNumbers:
    """Non-finite, overflowing or empty JSON inputs end in a typed error naming the field."""

    @staticmethod
    def _coeff_config(tmp_path, entry):
        # Written as text so that literals json.dumps cannot produce (1e400) survive.
        cfg = tmp_path / "coeff.json"
        cfg.write_text(
            '{"dim": 2, "generator": {"coeff": [[%s, 0, 0], [0, 1, 0], [0, 0, 1]]}}' % entry
        )
        return cfg

    @pytest.mark.parametrize(
        "entry",
        ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "[0, NaN]"],
        ids=["nan", "inf", "-inf", "1e400", "int-1e400", "imag-nan"],
    )
    def test_coeff_entry(self, entry, tmp_path, capsys):
        cfg = self._coeff_config(tmp_path, entry)
        err = _assert_typed_error(["check-cp", "--config", str(cfg)], capsys)
        assert "generator.coeff[0][0]" in err

    def test_evolve_state_vector(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text('{"vector": [1, NaN]}')
        argv = ["evolve", "--config", str(DATA / "config_negative.json"), "--time", "0.1"]
        assert "state.vector[1]" in _assert_typed_error([*argv, "--state", str(state)], capsys)

    def test_scan_state_pair(self, tmp_path, capsys):
        pair = tmp_path / "pair.json"
        pair.write_text('{"psi": [0, 1, Infinity, 0], "phi": [1, 0, 0, 1]}')
        argv = ["scan", "--config", str(DATA / "config_negative.json"), "--state", str(pair)]
        assert "state.psi[2]" in _assert_typed_error(argv, capsys)

    def test_empty_basis(self, tmp_path, capsys):
        generator = json.loads((DATA / "config_negative.json").read_text())["generator"]
        cfg = _config_with(tmp_path, "config_negative.json", generator={**generator, "basis": []})
        assert "generator.basis" in _assert_typed_error(["check-cp", "--config", str(cfg)], capsys)


class TestToleranceAndSeed:
    """Tolerances must lie in [0, 1), seeds be non-bool integers >= 0; otherwise exit 1."""

    @pytest.mark.parametrize(
        "config, flags, env, positivity",
        [
            ("config_depolarizing.json", ["--tol", "nan"], None, None),
            ("config_depolarizing.json", ["--tol", "inf"], None, None),
            ("config_depolarizing.json", [], "nan", None),
            ("config_depolarizing.json", [], "-1e-9", None),
            ("config_lowering.json", ["--tol", "-1"], None, None),
            ("config_depolarizing.json", [], None, "abc"),
            ("config_depolarizing.json", [], None, [1]),
            ("config_depolarizing.json", [], None, True),
            ("config_depolarizing.json", [], None, float("nan")),
            ("config_depolarizing.json", [], None, -1.0),
            ("config_negative.json", ["--tol", "1e300"], None, None),
            ("config_negative.json", ["--tol", "1"], None, None),
            ("config_negative.json", [], "1", None),
            ("config_negative.json", [], None, 1.0),
        ],
        ids=[
            "flag-nan",
            "flag-inf",
            "env-nan",
            "env-negative",
            "flag-negative",
            "config-string",
            "config-list",
            "config-bool",
            "config-nan",
            "config-negative",
            "flag-huge",
            "flag-one",
            "env-one",
            "config-one",
        ],
    )
    def test_invalid_tolerance(self, config, flags, env, positivity, tmp_path, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("CPLAB_TOL", env)
        cfg = DATA / config
        if positivity is not None:
            cfg = _config_with(tmp_path, config, tolerances={"positivity": positivity})
        err = _assert_typed_error(["check-cp", "--config", str(cfg), *flags], capsys)
        source = "--tol" if flags else "CPLAB_TOL" if env is not None else "tolerances.positivity"
        assert source in err

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = _run(
            ["check-cp", "--config", str(DATA / "config_depolarizing.json"), "--tol", "0"], capsys
        )
        assert code == 0
        assert json.loads(out)["provenance"]["tolerance"] == 0.0

    @pytest.mark.parametrize("command", ["check-cp", "witness"])
    def test_negative_seed_flag(self, command, capsys):
        argv = [command, "--config", str(DATA / "config_negative.json"), "--seed", "-1"]
        assert "config error: --seed: expected an integer" in _assert_typed_error(argv, capsys)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "7"])
    def test_invalid_config_seed(self, seed, tmp_path, capsys):
        cfg = _config_with(tmp_path, "config_negative.json", seed=seed)
        err = _assert_typed_error(["check-cp", "--config", str(cfg)], capsys)
        assert "config error: seed: expected an integer" in err


class _Like(NamedTuple):
    """The value at the same report path in a run with these config fields and flags."""

    fields: dict
    flags: tuple = ()
    equal: bool = True


# (command, config_negative.json fields or None for no config, flags, expected): a dict of
# report path -> value or _Like, or the error fragment of an exit-1 refusal.
_PRECEDENCE_CASES = {
    "flag-seed-beats-config": (
        "witness",
        {"seed": 3},
        ["--seed", "5"],
        {"provenance.seed": 5, "witness.phi": _Like({"seed": 5})},
    ),
    "config-seed-draws-its-own-pair": (
        "witness",
        {"seed": 3},
        [],
        {"witness.phi": _Like({"seed": 5}, equal=False)},
    ),
    "config-grid": ("scan", {"grid": [0.001, 0.01, 0.1]}, [], {"scan.times": [0.001, 0.01, 0.1]}),
    "flag-grid-beats-config": (
        "scan",
        {"grid": [0.001, 0.01, 0.1]},
        ["--grid", "0:1:5:lin"],
        {"scan.times": [0.0, 0.25, 0.5, 0.75, 1.0]},
    ),
    "flag-tol-beats-config": (
        "check-cp",
        {"tolerances": {"positivity": 1e-6}},
        ["--tol", "1e-8"],
        {"provenance.tolerance": 1e-8},
    ),
    "default-tol": ("check-cp", {}, [], {"provenance.tolerance": POSITIVITY_TOL}),
    "tolerance-refused-before-seed-and-grid": (
        "scan",
        {"tolerances": {"positivity": 2}, "seed": True, "grid": 0.5},
        [],
        "config error: tolerances.positivity: ",
    ),
    "seed-refused-before-grid": ("scan", {"seed": True, "grid": 0.5}, [], "config error: seed: "),
    # A null optional field is an absent one.
    "null-seed-is-the-default": (
        "witness",
        {"seed": None},
        [],
        {"provenance.seed": 0, "witness.phi": _Like({"seed": 0})},
    ),
    "null-tolerances-is-the-default": (
        "check-cp", {"tolerances": None}, [], {"provenance.tolerance": POSITIVITY_TOL}
    ),
    "null-form-is-inferred": (
        "check-cp",
        {"generator": {**NEGATIVE_GENERATOR, "form": None}},
        [],
        {"verdict": _Like({}), "provenance.config.generator.form": None},
    ),
    "unreadable-config-before-bad-grid": (
        "scan",
        None,
        ["--config", "/nonexistent/x.json", "--grid", "oops"],
        "config error: cannot read config",
    ),
}


@pytest.mark.parametrize(
    "command, fields, flags, expected", _PRECEDENCE_CASES.values(), ids=_PRECEDENCE_CASES.keys()
)
def test_flag_then_config_then_default(command, fields, flags, expected, tmp_path, monkeypatch, capsys):
    """``--tol``, ``--seed`` and ``--grid`` beat the config, which beats the default, and
    the config is read, then its tolerance, seed and grid checked, in that order."""
    monkeypatch.delenv("CPLAB_TOL", raising=False)

    def run(fields, flags):
        if fields is not None:
            flags = ["--config", str(_config_with(tmp_path, "config_negative.json", **fields)), *flags]
        return _run([command, *flags], capsys)

    code, out, err = run(fields, flags)
    if isinstance(expected, str):
        assert code == 1 and out == ""
        assert expected in err
        return
    assert code in (0, 2), err
    for path, want in expected.items():
        got = _at(json.loads(out), path)
        if isinstance(want, _Like):
            other = _at(json.loads(run(want.fields, want.flags)[1]), path)
            assert (got == other) == want.equal
        else:
            assert got == want


def test_report_invariant_is_enforced(monkeypatch, capsys):
    """A non-CP verdict without a witness is not reported: ``check-cp`` exits 1."""
    monkeypatch.setattr("cplab.cli.construct_witness", lambda *a, **k: NoNegativeDirection(0.0))
    err = _assert_typed_error(["check-cp", *NEGATIVE], capsys)
    assert "report invariant violated" in err


def _at(report, path):
    for key in path.split("."):
        report = report[key]
    return report


_PSD_COMMANDS = ("check-cp", "witness", "convert")


class TestOnePsdDecision:
    """``check-cp``, ``witness`` and ``convert`` agree on whether C is PSD."""

    def test_zero_tolerance_dephasing_is_cp(self, tmp_path, capsys):
        # The compressed Choi matrix finds -5.6e-17 where eigvalsh finds 0;
        # roundoff in the cross-check must not turn into a verdict.
        cfg = tmp_path / "dephasing.json"
        dephasing = {"jump_ops": [np.diag([-1, 0, 1]).tolist()]}
        cfg.write_text(json.dumps({"dim": 3, "generator": dephasing}))
        for command in _PSD_COMMANDS:
            assert _run([command, "--config", str(cfg), "--tol", "0"], capsys)[0] == 0
        _, out, _ = _run(["check-cp", "--config", str(cfg), "--tol", "0"], capsys)
        assert json.loads(out)["verdict"]["is_cp"] is True

    @pytest.mark.parametrize("ulps", range(-4, 5))
    def test_configs_at_the_cutoff(self, ulps, tmp_path, capsys):
        # Three separate PSD decisions once gave exit codes 0, 1 and 2 at ulps = 0.
        coeff = coeff_at_cutoff(random_hermitian(8, np.random.default_rng(3)), POSITIVITY_TOL, ulps)
        cfg = tmp_path / "boundary.json"
        _write_gks_config(cfg, np.zeros((3, 3)), coeff)
        codes = {cmd: _run([cmd, "--config", str(cfg)], capsys)[0] for cmd in _PSD_COMMANDS}
        assert len(set(codes.values())) == 1 and codes["check-cp"] in (0, 2), codes
        if ulps < 0:
            assert codes["check-cp"] == 2


_GKS2 = {"dim": 2, "generator": {"coeff": np.eye(3).tolist()}}
_GKS2_NEG = {"dim": 2, "generator": {"coeff": np.diag([1.0, 1.0, -1.0]).tolist()}}
_CHECK = ["check-cp", "--config", "{tmp}/c.json"]
_NEG = ["--config", "{data}/config_negative.json"]
_EVOLVE = ["evolve", *_NEG, "--time", "0.1"]
_ADJACENT_FLOATS = "1:1.0000000000000002:5:lin"
_NOT_UTF8 = b'\xff\xfe{"dim": 2}'
_TOO_DEEP = "[" * 100000
_TOO_LONG = '{"dim": ' + "1" * 5000 + "}"

#: A CP generator at d = 4 (C = random_psd, zero Hamiltonian) whose e^{tL} at t = 1e15
#: keeps almost nothing of the trace of I/4.
_GKS4_CP = {
    "dim": 4,
    "generator": {"coeff": _to_json(random_psd(15, np.random.default_rng(3)))},
}
_MAXIMALLY_MIXED = {d: {"matrix": (np.eye(d) / d).tolist()} for d in (2, 4)}

#: name: (argv, config written to {tmp}/c.json, state written to {tmp}/s.json,
#: CPLAB_TOL, a fragment of the error line); a str or bytes entry is written verbatim.
CLI_ERROR_CASES = {
    "dim-not-int": (_CHECK, {**_GKS2, "dim": "2"}, None, None, "dim: expected an integer"),
    "dim-below-2": (_CHECK, {**_GKS2, "dim": 1}, None, None, "dim: expected an integer"),
    "dim-missing": (_CHECK, {"generator": _GKS2["generator"]}, None, None, "missing field 'dim'"),
    "generator-missing": (_CHECK, {"dim": 2}, None, None, "'generator'"),
    "generator-not-object": (_CHECK, {"dim": 2, "generator": [1]}, None, None, "'generator'"),
    "form-mismatch": (
        _CHECK,
        {"dim": 2, "generator": {**_GKS2["generator"], "form": "lindblad"}},
        None,
        None,
        "does not match",
    ),
    # The form is read off the supplied fields; a non-null form must name that one.
    "form-gks-beside-jump-ops": (
        _CHECK,
        {"dim": 2, "generator": {"form": "gks", "jump_ops": [[[0, 0], [1, 0]]]}},
        None,
        None,
        "generator.form 'gks' does not match the supplied fields",
    ),
    "form-upper-case": (
        _CHECK,
        {"dim": 2, "generator": {**_GKS2["generator"], "form": "GKS"}},
        None,
        None,
        "generator.form 'GKS' does not match the supplied fields",
    ),
    "form-not-a-string": (
        _CHECK,
        {"dim": 2, "generator": {**_GKS2["generator"], "form": 5}},
        None,
        None,
        "generator.form 5 does not match the supplied fields",
    ),
    "tolerances-not-object": (
        _CHECK, {**_GKS2, "tolerances": [1e-9]}, None, None, "tolerances: expected"
    ),
    "grid-not-list": (
        ["scan", "--config", "{tmp}/c.json"], {**_GKS2, "grid": 0.5}, None, None, "grid: expected"
    ),
    "env-tol-not-number": (_CHECK, _GKS2, None, "abc", "CPLAB_TOL='abc' is not a number"),
    "invalid-json": (_CHECK, '{"dim": 2,', None, None, "not valid JSON"),
    # Not UTF-8, nested past Python's recursion limit, and past its 4300-digit integer limit.
    "config-not-utf8": (_CHECK, _NOT_UTF8, None, None, "config is not valid JSON"),
    "config-nested-too-deep": (_CHECK, _TOO_DEEP, None, None, "config is not valid JSON"),
    "config-integer-too-long": (_CHECK, _TOO_LONG, None, None, "config is not valid JSON"),
    "state-not-utf8": (
        [*_EVOLVE, "--state", "{tmp}/s.json"], None, _NOT_UTF8, None, "state is not valid JSON"
    ),
    "state-nested-too-deep": (
        [*_EVOLVE, "--state", "{tmp}/s.json"], None, _TOO_DEEP, None, "state is not valid JSON"
    ),
    "state-integer-too-long": (
        [*_EVOLVE, "--state", "{tmp}/s.json"], None, _TOO_LONG, None, "state is not valid JSON"
    ),
    "top-level-not-object": (_CHECK, [1, 2], None, None, "top level must be a JSON object"),
    "state-without-matrix-or-vector": (
        ["evolve", *_NEG, "--time", "0.1", "--state", "{tmp}/s.json"],
        None,
        {"psi": [1, 0]},
        None,
        "'matrix' or 'vector'",
    ),
    "scan-pair-without-phi": (
        ["scan", *_NEG, "--state", "{tmp}/s.json"], None, {"psi": [1, 0, 0, 1]}, None, "'phi'"
    ),
    "bell-fixture-at-d3": (
        ["witness", "--config", "{tmp}/c.json", "--bell-fixture"],
        {"dim": 3, "generator": {"coeff": (-np.eye(8)).tolist()}},
        None,
        None,
        "only defined for dim = 2",
    ),
    "no-config": (["check-cp"], None, None, None, "--config is required"),
    "grid-bad-number": (["scan", *_NEG, "--grid", "a:1:5:lin"], None, None, None, "could not"),
    "grid-log-from-zero": (["scan", *_NEG, "--grid", "0:1:5:log"], None, None, None, "start > 0"),
    "grid-overflows-at-1e20": (
        ["scan", *_NEG, "--grid", "1:1e20:4:log"], None, None, None, "overflowed at t = 1e+20"
    ),
    "grid-overflows-at-1e100": (
        ["scan", *_NEG, "--grid", "1:1e300:4:log"], None, None, None, "overflowed at t = 1e+100"
    ),
    "grid-unknown-spacing": (
        ["scan", *_NEG, "--grid", "1e-3:1:5:cubic"], None, None, None, "spacing must be"
    ),
    "grid-spacing-linear": (
        ["scan", *_NEG, "--grid", "0:1:3:linear"], None, None, None,
        "spacing must be 'log' or 'lin'",
    ),
    "jump-op-3x3-at-d2": (
        _CHECK,
        {"dim": 2, "generator": {"jump_ops": [np.diag([1, -1, 0]).tolist()]}},
        None,
        None,
        "generator.jump_ops[0]",
    ),
    "jump-ops-not-list": (
        _CHECK, {"dim": 2, "generator": {"jump_ops": 5}}, None, None, "generator.jump_ops"
    ),
    "coeff-two-rows": (
        _CHECK, {"dim": 2, "generator": {"coeff": np.eye(3)[:2].tolist()}}, None, None,
        "generator.coeff",
    ),
    "coeff-ragged-row": (
        _CHECK,
        {"dim": 2, "generator": {"coeff": [[1, 0, 0], [0, 1], [0, 0, 1]]}},
        None,
        None,
        "generator.coeff",
    ),
    "basis-not-list": (
        _CHECK, {**_GKS2, "generator": {**_GKS2["generator"], "basis": {}}}, None, None,
        "generator.basis",
    ),
    "state-matrix-ragged": (
        ["evolve", *_NEG, "--time", "0.1", "--state", "{tmp}/s.json"],
        None,
        {"matrix": [[0.5, 0], [0]]},
        None,
        "state.matrix",
    ),
    "scan-psi-three-entries": (
        ["scan", *_NEG, "--state", "{tmp}/s.json"],
        None,
        {"psi": [1, 0, 0], "phi": [0, 1, 0, 0]},
        None,
        "state.psi",
    ),
    "preset-without-config": (
        ["check-cp", "--preset", "meson-d2"], None, None, None, "--config is required"
    ),
    "preset-dim-3": (
        [*_CHECK, "--preset", "meson-d2"],
        {"dim": 3, "generator": {"coeff": np.eye(8).tolist()}},
        None,
        None,
        "dim = 2",
    ),
    # A null required field is refused.
    "coeff-null": (_CHECK, {"dim": 2, "generator": {"coeff": None}}, None, None, "generator.coeff"),
    "jump-ops-null": (
        _CHECK, {"dim": 2, "generator": {"jump_ops": None}}, None, None, "generator.jump_ops"
    ),
    "dim-null": (_CHECK, {**_GKS2, "dim": None}, None, None, "dim: expected an integer"),
    "generator-null": (_CHECK, {"dim": 2, "generator": None}, None, None, "'generator'"),
    "coeff-leaf-string": (
        _CHECK,
        {"dim": 2, "generator": {"coeff": [[1, "a", 0], [0, 1, 0], [0, 0, 1]]}},
        None,
        None,
        "generator.coeff[0][1]: entry 'a' is not a number or [re, im] pair",
    ),
    "coeff-leaf-triple": (
        _CHECK,
        {"dim": 2, "generator": {"coeff": [[1, [1, 2, 3], 0], [0, 1, 0], [0, 0, 1]]}},
        None,
        None,
        "generator.coeff[0][1]: entry [1, 2, 3] is not a number or [re, im] pair",
    ),
    "state-vector-empty": (
        [*_EVOLVE, "--state", "{tmp}/s.json"],
        None,
        {"vector": []},
        None,
        "state.vector: expected a nonempty list of entries",
    ),
    "state-matrix-empty": (
        [*_EVOLVE, "--state", "{tmp}/s.json"],
        None,
        {"matrix": []},
        None,
        "state.matrix: expected a nonempty list of rows",
    ),
    "evolve-without-state-or-preset": (
        _EVOLVE, None, None, None, "no state supplied and the preset provides none"
    ),
    "grid-decreasing": (
        ["scan", "--config", "{tmp}/c.json"],
        {**_GKS2_NEG, "grid": [0.5, 0.1]},
        None,
        None,
        "grid: time grid must be",
    ),
    "grid-decreasing-cp": (
        ["scan", "--config", "{tmp}/c.json"],
        {**_GKS2, "grid": [0.5, 0.1]},
        None,
        None,
        "grid: time grid must be",
    ),
    "grid-empty": (
        ["witness", "--config", "{tmp}/c.json"],
        {**_GKS2_NEG, "grid": []},
        None,
        None,
        "grid: time grid must be",
    ),
    # Five points between two adjacent floats collapse to two values.
    "grid-spec-collapses": (
        ["scan", *_NEG, "--grid", _ADJACENT_FLOATS],
        None,
        None,
        None,
        "config error: --grid: time grid must be",
    ),
    "grid-spec-collapses-cp": (
        ["scan", "--config", "{data}/config_depolarizing.json", "--grid", _ADJACENT_FLOATS],
        None,
        None,
        None,
        "config error: --grid: time grid must be",
    ),
    # The squarings of e^{tL} lose the trace without overflowing; the state is refused.
    "evolve-trace-lost-at-1e300": (
        ["evolve", "--config", "{data}/config_depolarizing.json", "--state", "{tmp}/s.json",
         "--time", "1e300"],
        None,
        _MAXIMALLY_MIXED[2],
        None,
        "error: evolved state at t = 1e+300 lost its trace",
    ),
    "evolve-trace-lost-at-1e15-d4": (
        ["evolve", "--config", "{tmp}/c.json", "--state", "{tmp}/s.json", "--time", "1e15"],
        _GKS4_CP,
        _MAXIMALLY_MIXED[4],
        None,
        "error: evolved state at t = 1e+15 lost its trace",
    ),
    # config_negative.json is non-CP, so a report that was written would exit 2.
    "output-is-a-directory": (
        ["check-cp", *_NEG, "--output", "{tmp}"], None, None, None, "cannot write report"
    ),
    "output-in-missing-directory": (
        ["witness", *_NEG, "--output", "{tmp}/missing/r.json"],
        None,
        None,
        None,
        "cannot write report",
    ),
}


@pytest.mark.parametrize(
    "argv, config, state, env, message", CLI_ERROR_CASES.values(), ids=CLI_ERROR_CASES.keys()
)
def test_cli_error_paths(argv, config, state, env, message, tmp_path, monkeypatch, capsys):
    """Malformed configs, state files, flags and environment exit 1 with a typed error."""
    for name, content in (("c.json", config), ("s.json", state)):
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        elif content is not None:
            text = content if isinstance(content, str) else json.dumps(content)
            (tmp_path / name).write_text(text)
    if env is not None:
        monkeypatch.setenv("CPLAB_TOL", env)
    err = _assert_typed_error([a.format(tmp=tmp_path, data=DATA) for a in argv], capsys)
    assert message in err


_HUGE_C = {"dim": 2, "generator": {"coeff": (1e200 * np.diag([1.0, 1.0, -1.0])).tolist()}}
_GROWING = {"dim": 2, "generator": {"coeff": np.diag([0.0, 0.0, -1.0]).tolist()}}
_HUGE_H = {"dim": 2, "generator": {"coeff": np.eye(3).tolist(), "hamiltonian": [[0, 1e200], [0, 0]]}}
_HUGE_HERMITIAN_H = {
    "dim": 2, "generator": {"coeff": np.eye(3).tolist(), "hamiltonian": [[0, 1e200], [1e200, 0]]}
}
_NOT_FINITE = "error: positivity cutoff is not finite"
OVERFLOW_CASES = {
    "check-cp-huge-coeff": (_HUGE_C, ["check-cp"], _NOT_FINITE),
    "convert-huge-coeff": (_HUGE_C, ["convert"], _NOT_FINITE),
    "witness-huge-coeff": (_HUGE_C, ["witness"], _NOT_FINITE),
    "evolve-norm-overflows-at-200": (_GROWING, ["evolve", "--preset", "meson-d2", "--time", "200"], _NOT_FINITE),
    "evolve-state-overflows-at-400": (_GROWING, ["evolve", "--preset", "meson-d2", "--time", "400"], _NOT_FINITE),
    "scan-norm-overflows": (_GROWING, ["scan", "--grid", "200:300:2:lin"], _NOT_FINITE),
    "scan-state-overflows": (_GROWING, ["scan", "--grid", "1:530:2:log"], _NOT_FINITE),
    "check-cp-huge-non-hermitian-h": (
        _HUGE_H, ["check-cp"], "config error: generator: hamiltonian deviates from Hermiticity by nan"
    ),
    "check-cp-huge-hermitian-h": (
        _HUGE_HERMITIAN_H,
        ["check-cp"],
        "config error: generator: hamiltonian has a Frobenius norm that overflows",
    ),
}


@pytest.mark.parametrize("config, argv, message", OVERFLOW_CASES.values(), ids=OVERFLOW_CASES.keys())
def test_overflowing_norm_is_a_typed_refusal(config, argv, message, tmp_path, capsys):
    """A matrix whose Frobenius norm overflows, or a Hermiticity deviation of inf / inf,
    ends in a typed exit 1, not in a verdict that its own numbers contradict; ``main``
    raises no floating-point warning on the way (the suite turns warnings into errors)."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    err = _assert_typed_error([argv[0], "--config", str(cfg), *argv[1:]], capsys)
    assert message in err


def _env_with_src():
    """The environment with the tested ``cplab`` first on ``PYTHONPATH``, for a child process."""
    src = str(Path(cplab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize(
    "case",
    ["check-cp-huge-hermitian-h", "check-cp-huge-coeff", "evolve-state-overflows-at-400",
     "scan-state-overflows"],
)
def test_overflow_refusal_prints_one_stderr_line(case, tmp_path):
    """Run as a process, an overflow refusal writes only its ``cplab: ...`` line to stderr:
    no numpy ``RuntimeWarning`` with its source line comes before it."""
    config, argv, message = OVERFLOW_CASES[case]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    result = subprocess.run(
        [sys.executable, "-m", "cplab.cli", argv[0], "--config", str(cfg), *argv[1:]],
        env=_env_with_src(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cplab: ") and message in lines[0], result.stderr


def _shifted_probe(d: int, seed: int, lam_min: float) -> dict:
    """A ``random_hermitian`` C at ``d`` shifted to smallest eigenvalue ``lam_min``, zero H."""
    c = random_hermitian(d * d - 1, np.random.default_rng(seed))
    c -= (np.linalg.eigvalsh(c)[0] - lam_min) * np.eye(d * d - 1)
    return {"dim": d, "generator": {"coeff": _to_json(c)}}


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A ``witness`` report is the same bytes under one and two BLAS threads, on the d = 2
    test config and on the d = 8 probe (lambda_min(C) = -0.5), each certified non-CP."""
    probe = tmp_path / "probe_d8.json"
    probe.write_text(json.dumps(_shifted_probe(8, 7, -0.5)))
    for config in (DATA / "config_negative.json", probe):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "cplab.cli", "witness", "--config", str(config)],
                env={**_env_with_src(), "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
            )
            for threads in ("1", "2")
        ]
        assert [r.returncode for r in runs] == [2, 2], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr, config.name


def test_coeff_is_shape_checked_before_the_basis_is_built(tmp_path, monkeypatch, capsys):
    """A wrong-sized coeff at large d is refused without building the d^2 - 1 basis matrices."""

    def no_basis(d):
        pytest.fail(f"standard_basis({d}) was built for a config that the reader refuses")

    monkeypatch.setattr("cplab.cli.standard_basis", no_basis)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dim": 40, "generator": {"coeff": [[1]]}}))
    err = _assert_typed_error(["check-cp", "--config", str(cfg)], capsys)
    assert "generator.coeff: expected 1599 rows" in err


def test_cli_import_loads_no_scipy():
    probe = "import cplab.cli, sys; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_env_with_src(), capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"

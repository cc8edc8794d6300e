import ast
import contextlib
import copy
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import causalcap
from causalcap import bounds as bounds_mod
from causalcap import channels as channels_mod
from causalcap.bounds import causality_bound
from causalcap.channels import (
    CHANNEL_NAMES,
    MAX_FILE_QUBITS,
    channel_to_dict,
    from_kraus,
    named_channel,
    random_channel,
    save_channel,
    shifted_depolarizing,
    tensor,
)
from causalcap.cli import MAX_SWEEP_POINTS, main
from test_bounds import hw_ceiling, padded
from test_channels import noisy_kraus
from test_verify import break_suite


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(params=[float("nan"), float("inf")], ids=["nan", "inf"])
def non_finite_file(request, tmp_path):
    """Channel file whose first Kraus entry is NaN or infinite (JSON NaN/Infinity)."""
    data = channel_to_dict(shifted_depolarizing(0.1, 0.0))
    data["kraus"][0][0][0] = [request.param, 0.0]
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(data))
    return path


class TestBound:
    def test_identity_causality(self, capsys):
        code, out, _ = run(
            capsys, ["bound", "--channel", "identity", "--qubits", "1", "--method", "causality"]
        )
        assert code == 0
        rep = json.loads(out.strip())
        assert rep["method"] == "causality"
        assert np.isclose(rep["value"], 1.0)

    def test_analytic_endpoint(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "--channel", "shifted-depolarizing", "--p", "0.25",
             "--gamma", "0", "--method", "analytic"],
        )
        assert code == 0
        assert np.isclose(json.loads(out.strip())["value"], 0.0, atol=1e-12)

    def test_all_methods(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "--channel", "shifted-depolarizing", "--p", "0.1",
             "--gamma", "0", "--method", "all"],
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        by_method = {rep["method"]: rep["value"] for rep in lines}
        assert np.isclose(by_method["causality"], 0.485427, atol=1e-6)
        assert np.isclose(by_method["analytic_shifted_depol"], by_method["causality"])
        assert abs(by_method["holevo_werner"] - by_method["causality"]) < 1e-3

    def test_hw_not_below_causality_where_they_coincide(self, capsys):
        code, out, _ = run(
            capsys,
            ["bound", "--channel", "shifted-depolarizing", "--p", "0.16",
             "--gamma", "0", "--method", "all"],
        )
        assert code == 0
        by_method = {rep["method"]: rep["value"] for rep in map(json.loads, out.splitlines())}
        assert by_method["holevo_werner"] >= by_method["causality"]

    def test_channel_file(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        save_channel(shifted_depolarizing(0.1, 0.0), path)
        code, out, _ = run(capsys, ["bound", "--channel", str(path), "--method", "causality"])
        assert code == 0
        assert np.isclose(json.loads(out.strip())["value"], np.log2(1.4))

    def test_near_trace_preserving_file_reads_zero(self, capsys, tmp_path):
        # a trace defect of 5e-10 is accepted (CPTP_ATOL), so every norm >= 1 - 5e-10
        paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1.0, -1.0])]
        kraus = [math.sqrt((1.0 - 5e-10) / 4.0) * np.asarray(a) for a in paulis]
        path = tmp_path / "near_tp.json"
        save_channel(from_kraus(kraus, label="near-tp"), path)
        code, out, _ = run(capsys, ["bound", "--channel", str(path), "--method", "all"])
        assert code == 0
        by_method = {rep["method"]: rep["value"] for rep in map(json.loads, out.splitlines())}
        assert by_method == {"causality": 0.0, "holevo_werner": 0.0, "maxrains_surrogate": 0.0}

    def test_channel_name_wins_over_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name in CHANNEL_NAMES:
            save_channel(named_channel("amplitude-damping", eta=0.3), tmp_path / name)
        argv = ["bound", "--method", "causality", "--channel"]
        code, out, _ = run(capsys, [*argv, "dephasing", "--strength", "0.4"])
        assert code == 0 and json.loads(out)["channel"] == "dephasing(0.4)"
        code, out, _ = run(capsys, [*argv, "dephasing"])
        assert code == 0 and json.loads(out)["channel"] == "dephasing(1)"
        code, out, _ = run(capsys, [*argv, "./dephasing"])
        assert code == 0 and json.loads(out)["channel"] == "amplitude-damping(0.3)"
        code, out, err = run(capsys, [*argv, "nosuch"])
        assert_clean_failure(code, out, err, 2)
        assert "unknown channel name 'nosuch'" in err and "amplitude-damping" in err

    def test_invalid_file_exit3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, ["bound", "--channel", str(path), "--method", "causality"])
        assert code == 3
        assert "error" in err

    def test_non_finite_file_exit3(self, capsys, non_finite_file):
        code, out, err = run(
            capsys, ["bound", "--channel", str(non_finite_file), "--method", "causality"]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err

    def test_bad_params_exit2(self, capsys):
        code, _, err = run(
            capsys, ["bound", "--channel", "shifted-depolarizing", "--p", "0.9",
                     "--gamma", "0", "--method", "causality"]
        )
        assert code == 2
        assert "error" in err


class TestSweep:
    def test_grid_shape_and_consistency(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            ["sweep", "--p-min", "0", "--p-max", "0.25", "--p-steps", "6",
             "--gamma-min", "0", "--gamma-max", "1", "--gamma-steps", "6",
             "--out", str(out_path)],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "p,gamma,causality,analytic,hw,hw_minus_causality"
        assert len(lines) == 37
        assert "\r" not in out_path.read_text()
        for line in lines[1:]:
            p, gamma, caus, analytic, hw, diff = map(float, line.split(","))
            assert abs(caus - analytic) < 1e-8
            assert abs(diff - (hw - caus)) < 1e-12
            if gamma == 0.0:
                assert abs(diff) < 1e-3
            if gamma == 1.0 and p >= 0.05 and p <= 0.2:
                assert diff > 0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = ["sweep", "--p-steps", "2", "--gamma-steps", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, args + ["--out", str(a)])[0] == 0
        assert run(capsys, args + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exit4(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["sweep", "--p-steps", "1", "--gamma-steps", "1",
             "--out", str(tmp_path / "missing_dir" / "x.csv")],
        )
        assert code == 4
        assert "cannot write" in err


class TestVerify:
    def test_pdm_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "pdm", "--cases", "25", "--seed", "1"])
        assert code == 0
        assert "pass" in out

    def test_lemmas_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "lemmas", "--cases", "20", "--seed", "2"])
        assert code == 0

    def test_failing_case_exit1(self, capsys, monkeypatch):
        break_suite(monkeypatch, "pdm")
        code, out, err = run(capsys, ["verify", "--suite", "pdm", "--cases", "3"])
        assert code == 1
        assert "FAIL: 0/3 cases" in out
        assert err == ""

    def test_zero_cases_exit2(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "all", "--cases", "0"])
        assert_clean_failure(code, out, err, 2)
        assert "cases" in err

    def test_negative_seed_exit2(self, capsys):
        code, out, err = run(capsys, ["verify", "--suite", "pdm", "--seed", "-1"])
        assert_clean_failure(code, out, err, 2)
        assert "seed" in err


class TestChannelInfo:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, ["channel-info", "--channel", "identity", "--qubits", "1"])
        assert code == 0
        info = json.loads(out.strip())
        assert info["kraus_rank"] == 1
        assert np.allclose(sorted(info["choi_spectrum"]), [0, 0, 0, 1], atol=1e-9)

    def test_identity_too_many_qubits_exit2(self, capsys, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("np.eye called for an identity channel that is too large")

        monkeypatch.setattr(np, "eye", no_alloc)
        code, out, err = run(capsys, ["channel-info", "--channel", "identity", "--qubits", "25"])
        assert code == 2
        assert out == ""
        assert "1 to 3 qubits" in err

    def test_fully_depolarizing_spectrum(self, capsys):
        code, out, _ = run(
            capsys,
            ["channel-info", "--channel", "shifted-depolarizing", "--p", "0.25", "--gamma", "0"],
        )
        assert code == 0
        info = json.loads(out.strip())
        assert np.allclose(info["choi_spectrum"], [0.25] * 4, atol=1e-9)

    def test_malformed_file_exit3(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("[1, 2")
        code, _, err = run(capsys, ["channel-info", "--channel", str(path)])
        assert code == 3
        assert "error" in err

    def test_file_from_noisy_choi_reports_validated_residual(self, capsys, tmp_path):
        # a 2-qubit channel whose Kraus operators carry 2e-10 noise, complete to first order
        exact = random_channel(2, 2, env_qubits=2, seed=5)
        path = tmp_path / "noisy.json"
        save_channel(from_kraus(noisy_kraus(exact, 2e-10, 5)), path)
        code, out, _ = run(capsys, ["channel-info", "--channel", str(path)])
        assert code == 0
        assert json.loads(out.strip())["tp_residual"] <= 1e-9
        code, out, _ = run(capsys, ["bound", "--channel", str(path), "--method", "causality"])
        assert code == 0
        assert abs(json.loads(out.strip())["value"] - causality_bound(exact).value) < 1e-8

    def test_oversized_file_exit3_before_allocating(self, capsys, tmp_path, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("a channel was built from a file that is too large")

        # a valid isometry from 1 qubit into 16: its J would take 256 GiB
        doc = {"label": "wide", "qubits_in": 1, "qubits_out": 16,
               "kraus": [[[[float(x), 0.0] for x in row] for row in np.eye(2**16, 2)]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(channels_mod, "from_kraus", no_alloc)
        code, out, err = run(capsys, ["channel-info", "--channel", str(path)])
        assert_clean_failure(code, out, err, 3)
        assert len(err.splitlines()) == 1 and str(MAX_FILE_QUBITS) in err

    def test_file_at_the_qubit_limit_loads(self, capsys, tmp_path):
        pair = tensor(random_channel(2, 2, seed=1), random_channel(2, 2, seed=2))
        assert pair.qubits_in + pair.qubits_out == MAX_FILE_QUBITS
        path = tmp_path / "pair.json"
        save_channel(pair, path)
        code, out, _ = run(capsys, ["channel-info", "--channel", str(path)])
        assert code == 0
        assert json.loads(out.strip())["kraus_rank"] == len(pair.kraus)

    def test_non_finite_file_exit3(self, capsys, non_finite_file):
        code, out, err = run(capsys, ["channel-info", "--channel", str(non_finite_file)])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err


def ad_doc():
    """Channel-file contents for amplitude damping at eta = 0.3."""
    return channel_to_dict(named_channel("amplitude-damping", eta=0.3))


def write_doc(tmp_path, doc):
    path = tmp_path / "ad.json"
    path.write_text(json.dumps(doc))
    return path


def assert_clean_failure(code, out, err, expected):
    assert code == expected
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err and "Warning" not in err


class TestExitCodes:
    @pytest.mark.parametrize(
        "flags, missing",
        [
            (["--channel", "depolarizing"], "p"),
            (["--channel", "shifted-depolarizing", "--p", "0.1"], "gamma"),
            (["--channel", "amplitude-damping"], "eta"),
        ],
    )
    def test_missing_channel_parameter_exit2(self, capsys, flags, missing):
        code, out, err = run(capsys, ["bound", *flags, "--method", "causality"])
        assert_clean_failure(code, out, err, 2)
        assert f"'{missing}'" in err

    def test_non_utf8_file_exit3(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_bytes(b'{"label": "\xff\xfe"}')
        assert_clean_failure(*run(capsys, ["channel-info", "--channel", str(path)]), 3)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_exit3(self, capsys, tmp_path, kind):
        path = tmp_path / "chan.json"
        if kind == "directory":
            path.mkdir()
        assert_clean_failure(*run(capsys, ["bound", "--channel", str(path)]), 3)

    @pytest.mark.parametrize(
        "flags",
        [["--p", "0.1", "--method", "analytic"], ["--eta", "0.3"], ["--qubits", "1"]],
    )
    def test_channel_flags_with_a_file_exit2(self, capsys, tmp_path, flags):
        # the analytic case printed the depolarizing closed form under the file's label
        path = write_doc(tmp_path, ad_doc())
        code, out, err = run(capsys, ["bound", "--channel", str(path), *flags])
        assert_clean_failure(code, out, err, 2)
        assert flags[0] in err

    @pytest.mark.parametrize("command", ["bound", "channel-info"])
    def test_overflowing_kraus_entry_exit3(self, capsys, tmp_path, command):
        doc = ad_doc()
        doc["kraus"][0][0][0] = [1e308, 0.0]
        code, out, err = run(capsys, [command, "--channel", str(write_doc(tmp_path, doc))])
        assert_clean_failure(code, out, err, 3)
        assert "magnitude" in err

    @pytest.mark.parametrize(
        "qubits", [1.5, True, "1", 10**400], ids=["float", "bool", "str", "huge"]
    )
    def test_qubit_count_that_is_not_a_positive_int_exit3(self, capsys, tmp_path, qubits):
        doc = ad_doc()
        doc["qubits_in"] = qubits
        path = write_doc(tmp_path, doc)
        assert_clean_failure(*run(capsys, ["channel-info", "--channel", str(path)]), 3)

    @pytest.mark.parametrize(
        "kraus, message",
        [
            ([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [[[1.0, 0.0]]]],
             "Kraus operators must share a common shape"),
            ([[]], "expected a 2-d matrix, got shape (0,)"),
        ],
        ids=["different-shapes", "not-2d"],
    )
    @pytest.mark.parametrize("command", ["bound", "channel-info"])
    def test_malformed_kraus_list_exit3(self, capsys, tmp_path, command, kraus, message):
        doc = ad_doc()
        doc["kraus"] = kraus
        code, out, err = run(capsys, [command, "--channel", str(write_doc(tmp_path, doc))])
        assert_clean_failure(code, out, err, 3)
        assert err == f"error: {message}\n"

    def test_entry_too_large_for_a_float_exit3(self, capsys, tmp_path):
        doc = ad_doc()
        doc["kraus"][0][0][0] = [10**400, 0]
        path = write_doc(tmp_path, doc)
        assert_clean_failure(*run(capsys, ["bound", "--channel", str(path)]), 3)

    @pytest.mark.parametrize("command", ["sweep"])
    def test_zero_restarts_exit2(self, capsys, tmp_path, command):
        # sweep is the one command left with the no-op --restarts
        argv = [command, "--p-steps", "1", "--gamma-steps", "1", "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, argv + ["--restarts", "0"])
        assert_clean_failure(code, out, err, 2)
        assert "restarts" in err

    @pytest.mark.parametrize("flag", ["--restarts", "--seed"])
    def test_bound_has_no_restarts_or_seed_flag(self, capsys, flag):
        code, out, err = run(capsys, ["bound", "--channel", "identity", flag, "4"])
        assert_clean_failure(code, out, err, 2)
        assert f"unrecognized arguments: {flag} 4" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--cases", "x"], "invalid int value: 'x'"),
            (["verify", "--suite", "nope"], "invalid choice: 'nope'"),
            (["bound", "--channel", "identity", "--method", "nope"], "invalid choice: 'nope'"),
            (["bound"], "required: --channel"),
            ([], "required: command"),
        ],
    )
    def test_argparse_rejections_exit2_with_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert_clean_failure(code, out, err, 2)
        assert message in err and err.count("\n") == 1 and "usage" not in err

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--cases" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--p-steps", "--gamma-steps"])
    def test_empty_grid_exit2(self, capsys, tmp_path, flag):
        argv = ["sweep", flag, "0", "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, argv)
        assert_clean_failure(code, out, err, 2)
        assert flag in err
        assert not (tmp_path / "x.csv").exists()

    def test_huge_grid_exit2_before_allocating(self, capsys, tmp_path, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("a grid was built for a sweep that is too large")

        monkeypatch.setattr(np, "linspace", no_alloc)
        argv = ["sweep", "--p-steps", "100000", "--gamma-steps", "100000",
                "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, argv)
        assert_clean_failure(code, out, err, 2)
        assert str(MAX_SWEEP_POINTS) in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("gamma_steps, code", [(100, 0), (101, 2)])
    def test_grid_size_limit_is_inclusive(self, capsys, tmp_path, monkeypatch, gamma_steps, code):
        monkeypatch.setattr(bounds_mod, "sweep_shifted_depol", lambda *args: [])
        argv = ["sweep", "--p-steps", str(MAX_SWEEP_POINTS // 100),
                "--gamma-steps", str(gamma_steps), "--out", str(tmp_path / "x.csv")]
        assert run(capsys, argv)[0] == code

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p-max", "0.3"], "p=0.252 outside [0, 1/4]"),
            (["--gamma-max", "1.5"], "gamma=1.05 outside [0, 1]"),
            (["--p-min", "nan"], "p=nan outside [0, 1/4]"),
        ],
    )
    def test_grid_outside_the_family_exit2(self, capsys, tmp_path, flags, message):
        argv = ["sweep", *flags, "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, argv)
        assert_clean_failure(code, out, err, 2)
        assert err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p-min=-inf"], "--p-min = -inf is not finite"),
            (["--p-max", "inf"], "--p-max = inf is not finite"),
            (["--gamma-min=-inf"], "--gamma-min = -inf is not finite"),
            (["--gamma-max", "inf"], "--gamma-max = inf is not finite"),
            (["--gamma-min=-1e308", "--gamma-max", "1e308"],
             "--gamma-max - --gamma-min = inf is not finite"),
        ],
    )
    def test_infinite_grid_end_exit2(self, capsys, tmp_path, flags, message):
        argv = ["sweep", *flags, "--out", str(tmp_path / "x.csv")]
        code, out, err = run(capsys, argv)
        assert_clean_failure(code, out, err, 2)
        assert err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("method", ["causality", "maxrains", "all"])
    def test_unequal_qubit_counts_exit0(self, capsys, tmp_path, method):
        methods = {
            "causality": ["causality"],
            "maxrains": ["maxrains_surrogate"],
            "all": ["causality", "holevo_werner", "maxrains_surrogate"],
        }[method]
        chan = random_channel(2, 1, env_qubits=2, seed=0)
        path = tmp_path / "two_to_one.json"
        save_channel(chan, path)
        code, out, err = run(capsys, ["bound", "--channel", str(path), "--method", method])
        assert code == 0 and err == ""
        reps = [json.loads(line) for line in out.splitlines()]
        assert [rep["method"] for rep in reps] == methods
        value = causality_bound(padded(chan)).value
        for rep in reps:
            if rep["method"] == "holevo_werner":
                assert rep["value"] >= value
            else:
                assert abs(rep["value"] - value) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unequal_qubit_counts_hw_exit0(self, capsys, tmp_path, seed):
        chan = random_channel(2, 1, env_qubits=2, seed=seed)
        path = tmp_path / "two_to_one.json"
        save_channel(chan, path)
        code, out, err = run(capsys, ["bound", "--channel", str(path), "--method", "hw"])
        assert code == 0 and err == ""
        rep = json.loads(out)
        diag = rep["diagnostics"]
        assert rep["method"] == "holevo_werner"
        assert diag["lower"] <= rep["value"] <= hw_ceiling(chan) + 1e-12
        assert diag["gap"] == rep["value"] - diag["lower"]
        assert diag["converged_restarts"] == int(diag["gap"] <= diag["tolerance"])


def test_only_main_maps_exceptions_to_exit_codes():
    """cli.py has one try statement, in main, and only main names the error codes."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(causalcap.__file__).parent.glob("*.py"))
    }
    cli = trees["cli.py"]
    (main_def,) = [n for n in cli.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    in_main = list(ast.walk(main_def))
    tries = [n for n in ast.walk(cli) if isinstance(n, ast.Try)]
    assert len(tries) == 1 and tries[0] in in_main
    codes = {"EXIT_USAGE", "EXIT_BAD_CHANNEL", "EXIT_BAD_OUTPUT"}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in codes:
                defined = isinstance(node.ctx, ast.Store) and name == "cli.py"
                assert defined or node in in_main, f"{name}:{node.lineno} names {node.id}"


# --------------------------------------------- exit-code contract, fuzzed in process

VALID_DOCS = [
    ad_doc(),
    channel_to_dict(random_channel(1, 1, env_qubits=1, seed=3)),
    channel_to_dict(random_channel(2, 1, env_qubits=1, seed=4)),
]
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**400), 10**400),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
NAMES = ["identity", "depolarizing", "shifted-depolarizing", "dephasing",
         "amplitude-damping", "teleporter"]
FLAG_VALUES = {
    "qubits": st.integers(-1, 3),
    **{k: st.floats(allow_nan=True, allow_infinity=True) | st.floats(0.0, 1.0)
       for k in ("p", "gamma", "eta", "strength")},
}


@st.composite
def channel_files(draw):
    """Bytes of a channel file: valid, with one part replaced, truncated or not UTF-8."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    kraus = doc["kraus"]
    k, r = draw(st.integers(0, len(kraus) - 1)), draw(st.integers(0, len(kraus[0]) - 1))
    c = draw(st.integers(0, len(kraus[0][0]) - 1))
    kind = draw(st.sampled_from(
        ["valid"] * 4 + ["entry", "part", "row", "operator", "field", "drop", "truncate", "bytes"]
    ))
    if kind == "entry":  # an [re, im] pair replaced: wrong nesting, non-numeric, NaN, huge
        kraus[k][r][c] = draw(JSON_VALUES)
    elif kind == "part":
        kraus[k][r][c][draw(st.integers(0, 1))] = draw(JSON_VALUES)
    elif kind == "row":  # unequal Kraus shapes
        kraus[k][r] = kraus[k][r][:c] if c else kraus[k][r] + [[0.0, 0.0]]
    elif kind == "operator":
        kraus[k] = draw(JSON_VALUES)
    elif kind == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JSON_VALUES)
    elif kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc).encode()
    if kind == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "bytes":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.binary(min_size=1, max_size=4)) + b"\xff" + text[at:]
    return text


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(
        [["channel-info"]]
        + [["bound", "--method", m] for m in ("causality", "analytic", "hw", "maxrains", "all")]
    ),
    source=st.one_of(st.sampled_from(NAMES), channel_files()),
    flags=st.just({})
    | st.sets(st.sampled_from(sorted(FLAG_VALUES)), min_size=1, max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({k: FLAG_VALUES[k] for k in sorted(keys)})
    ),
)
def test_exit_code_contract(fuzz_dir, command, source, flags):
    if isinstance(source, bytes):
        path = fuzz_dir / "chan.json"
        path.write_bytes(source)
        source = str(path)
    argv = [*command, "--channel", source] + [f"--{k}={v!r}" for k, v in flags.items()]
    code, out, err = call(argv)
    assert code in (0, 2, 3), (argv, err)
    if code == 0:
        assert out and all(json.loads(line) for line in out.splitlines())
    else:
        assert out == "" and err.startswith("error:"), (argv, out, err)
    if source.endswith(".json") and flags:
        assert code == 2, (argv, err)

import json

import numpy as np
import pytest

from causalcap.bounds import causality_bound
from causalcap.channels import (
    channel_to_dict,
    kraus_from_choi,
    random_channel,
    save_channel,
    shifted_depolarizing,
)
from causalcap.cli import main
from causalcap.linalg import random_complex

FAST = ["--restarts", "4"]


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
             "--gamma", "0", "--method", "all", "--seed", "7"] + FAST,
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
             "--out", str(out_path), "--seed", "1"] + FAST,
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
        args = ["sweep", "--p-steps", "2", "--gamma-steps", "2",
                "--seed", "9", "--restarts", "2"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, args + ["--out", str(a)])[0] == 0
        assert run(capsys, args + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exit4(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["sweep", "--p-steps", "1", "--gamma-steps", "1", "--restarts", "1",
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

    def test_zero_cases_exit2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "all", "--cases", "0"])
        assert exc.value.code == 2


class TestChannelInfo:
    def test_identity(self, capsys):
        code, out, _ = run(capsys, ["channel-info", "--channel", "identity", "--qubits", "1"])
        assert code == 0
        info = json.loads(out.strip())
        assert info["kraus_rank"] == 1
        assert np.allclose(sorted(info["choi_spectrum"]), [0, 0, 0, 1], atol=1e-9)

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
        # an exactly trace-preserving 2-qubit Choi matrix with 2e-10 Hermitian noise
        exact = random_channel(2, 2, env_qubits=2, seed=5)
        g = random_complex(16, 16, np.random.default_rng(5))
        h = 0.5 * (g + g.conj().T)
        h -= np.kron(np.einsum("xyzy->xz", h.reshape(4, 4, 4, 4)), np.eye(4) / 4)
        path = tmp_path / "noisy.json"
        save_channel(kraus_from_choi(exact.choi + 2e-10 * h / np.max(np.abs(h)), 2, 2), path)
        code, out, _ = run(capsys, ["channel-info", "--channel", str(path)])
        assert code == 0
        assert json.loads(out.strip())["tp_residual"] <= 1e-9
        code, out, _ = run(capsys, ["bound", "--channel", str(path), "--method", "causality"])
        assert code == 0
        assert abs(json.loads(out.strip())["value"] - causality_bound(exact).value) < 1e-8

    def test_non_finite_file_exit3(self, capsys, non_finite_file):
        code, out, err = run(capsys, ["channel-info", "--channel", str(non_finite_file)])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err

import json

import numpy as np
import pytest

from entbound import hermitian, to_json_dict
from entbound.cli import main
from conftest import bell_state


def write_matrix(path, matrix):
    path.write_text(json.dumps(to_json_dict(matrix)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPipeline:
    def test_boundary_to_family_to_verify(self, tmp_path, capsys):
        s = tmp_path / "sigma.json"
        phi = tmp_path / "phi.json"
        fam = tmp_path / "family.json"
        assert main(["boundary-sample", "--dims", "2x2", "--seed", "1", "--out", str(s)]) == 0
        assert main(["ppt-functional", "--sigma-star", str(s), "--out", str(phi)]) == 0
        assert main(
            ["ree", "family", "--sigma-star", str(s), "--phi", str(phi), "--out", str(fam)]
        ) == 0
        fam_d = json.loads(fam.read_text())
        assert fam_d["x_max"] > 0
        assert len(fam_d["values"]) == 4
        assert all(v["ree"] >= 0 for v in fam_d["values"])

        # Verify a family member against the anchor through the CLI.
        from entbound import family_from_json_dict

        family = family_from_json_dict(fam_d)
        rho = tmp_path / "rho.json"
        write_matrix(rho, family.state(family.x_max))
        code, out = run(
            capsys, "ree", "verify", "--rho", str(rho), "--sigma-star", str(s)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert "seed" not in payload and "samples" not in payload

    def test_rains_pipeline(self, tmp_path, capsys):
        tau = tmp_path / "tau.json"
        phi = tmp_path / "phi.json"
        rho = tmp_path / "rho.json"
        write_matrix(tau, hermitian(bell_state().mat / 2, (2, 2)))
        assert main(["rains", "functional", "--tau-star", str(tau), "--out", str(phi)]) == 0
        assert main(
            ["rains", "converse", "--tau-star", str(tau), "--phi", str(phi), "--out", str(rho)]
        ) == 0
        code, out = run(capsys, "rains", "verify", "--rho", str(rho), "--tau-star", str(tau))
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["dual_ok"] is True
        assert "seed" not in payload and "samples" not in payload
        code, out = run(
            capsys,
            "rains", "closed-form",
            "--tau-star", str(tau), "--phi", str(phi), "--rho", str(rho),
        )
        assert code == 0
        assert json.loads(out)["rains"] == pytest.approx(np.log(2), abs=1e-9)

    def test_rains_converse_refusal_exit_one(self, tmp_path, capsys):
        tau = tmp_path / "tau.json"
        phi = tmp_path / "phi.json"
        write_matrix(tau, hermitian(bell_state().mat / 2, (2, 2)))
        assert main(["rains", "functional", "--tau-star", str(tau), "--out", str(phi)]) == 0
        shrunk = tmp_path / "shrunk.json"
        write_matrix(shrunk, hermitian(0.9 * bell_state().mat / 2, (2, 2)))
        code, out = run(capsys, "rains", "converse", "--tau-star", str(shrunk), "--phi", str(phi))
        assert code == 1
        assert json.loads(out)["accepted"] is False


class TestCompare:
    def test_ppt_state_all_zero(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        write_matrix(rho, hermitian(np.eye(4) / 4, (2, 2)))
        code, out = run(capsys, "compare", "--rho", str(rho))
        assert code == 0
        d = json.loads(out)
        assert abs(d["ree"]) < 1e-8
        assert abs(d["rains"]) < 1e-8
        assert abs(d["log_negativity"]) < 1e-8

    def test_bell_all_log2(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        write_matrix(rho, bell_state())
        code, out = run(capsys, "compare", "--rho", str(rho))
        assert code == 0
        d = json.loads(out)
        for key in ("ree", "rains", "log_negativity"):
            assert d[key] == pytest.approx(np.log(2), abs=2e-4)
        assert d["solver"]["ree_cert_gap"] <= 1e-4
        assert d["solver"]["rains_cert_gap"] <= 1e-4
        assert "ree_residual" not in d["solver"] and "seed" not in d

    def test_bits_flag(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        write_matrix(rho, bell_state())
        code, out = run(capsys, "compare", "--rho", str(rho), "--bits")
        assert json.loads(out)["log_negativity"] == pytest.approx(1.0, abs=1e-9)


class TestMisc:
    def test_hppt_bell(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        write_matrix(m, bell_state())
        code, out = run(capsys, "hppt", "--m", str(m))
        assert code == 0
        d = json.loads(out)
        assert d["value"] == pytest.approx(0.5, abs=1e-5)
        assert "certificate" in d
        assert "seed" not in d

    def test_divergence_relent(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        sigma = tmp_path / "sigma.json"
        write_matrix(rho, hermitian(np.diag([1.0, 0.0])))
        write_matrix(sigma, hermitian(np.eye(2) / 2))
        code, out = run(
            capsys, "divergence", "--kind", "relent", "--rho", str(rho), "--sigma", str(sigma)
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(np.log(2), abs=1e-12)

    @pytest.mark.parametrize("command", ["divergence", "compare", "hppt"])
    def test_seed_only_where_read(self, tmp_path, capsys, command):
        rho = write_matrix(tmp_path / "rho.json", bell_state())
        argv = {
            "divergence": ["--kind", "relent", "--rho", rho, "--sigma", rho],
            "compare": ["--rho", rho],
            "hppt": ["--m", rho],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--seed", "5"])
        assert exc.value.code == 2

    def test_audit_small(self, tmp_path, capsys):
        code, out = run(
            capsys, "audit", "qubit-equality", "--dims", "2x2", "--samples", "2", "--seed", "3"
        )
        assert code == 0
        d = json.loads(out)
        assert d["passed"] is True
        assert d["max_gap"] < 5e-4
        assert d["nonconverged"] == 0

    @pytest.mark.parametrize(
        "dims, samples", [("1x2", "1"), ("2x2", "0"), ("2x2", "-3")]
    )
    def test_audit_without_evidence_exit_two(self, capsys, dims, samples):
        code, out = run(
            capsys, "audit", "qubit-equality", "--dims", dims, "--samples", samples, "--seed", "0"
        )
        assert code == 2
        assert "error" in json.loads(out)

    def test_malformed_input_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run(capsys, "compare", "--rho", str(bad))
        assert code == 2
        assert "error" in json.loads(out)

    def test_dimension_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": [2, 2], "re": [[1.0]], "im": [[0.0]]}))
        code, out = run(capsys, "compare", "--rho", str(bad))
        assert code == 2

    def test_determinism_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["boundary-sample", "--dims", "2x3", "--seed", "9", "--out", str(a)])
        main(["boundary-sample", "--dims", "2x3", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

import json

import numpy as np
import pytest

from entbound import (
    PreconditionError,
    functional_from_json_dict,
    hermitian,
    ppt_functional,
    random_boundary_state,
    random_hermitian,
    to_json_dict,
    trace_inner_product,
)
from entbound.cli import main
from entbound.ppt import pt_zero_subspace
from conftest import antisymmetric_werner, bell_state


def write_matrix(path, matrix):
    path.write_text(json.dumps(to_json_dict(matrix)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_ppt_functional(path, phi, anchor):
    """A PPT functional file with the ``certificate`` key that older files carry.

    The certificate pairs coefficient 1 with each zero eigenvector of
    anchor^Γ; readers ignore it.
    """
    vecs = pt_zero_subspace(anchor)
    d = {
        "phi": to_json_dict(phi),
        "anchor": to_json_dict(anchor),
        "set": "PPT",
        "certificate": {
            "a": [1.0] * vecs.shape[1],
            "zero_eigenvectors_re": vecs.real.tolist(),
            "zero_eigenvectors_im": vecs.imag.tolist(),
        },
    }
    path.write_text(json.dumps(d))
    return d


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
        assert payload["passed"] is True and payload["in_set"] is True
        assert "seed" not in payload and "samples" not in payload
        code, out = run(
            capsys,
            "rains", "closed-form",
            "--tau-star", str(tau), "--phi", str(phi), "--rho", str(rho),
        )
        assert code == 0
        assert json.loads(out)["rains"] == pytest.approx(np.log(2), abs=1e-9)

    def test_verify_refuses_an_anchor_outside_its_set(self, tmp_path, capsys):
        # An NPT state is its own minimizer of S(rho||.) over all states, so its
        # first-order gap is zero; only membership shows it is not its own
        # closest PPT (or Rains-set) state.
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = tmp_path / "rho.json"
        write_matrix(rho, hermitian(a @ a.conj().T / np.trace(a @ a.conj().T).real, (3, 3)))
        payloads = []
        for argv in (
            ("ree", "verify", "--rho", str(rho), "--sigma-star", str(rho)),
            ("rains", "verify", "--rho", str(rho), "--tau-star", str(rho)),
        ):
            code, out = run(capsys, *argv)
            payload = json.loads(out)
            assert code == 1
            assert payload["passed"] is False and payload["in_set"] is False
            assert payload["max_violation"] <= 1e-8
            payloads.append(payload)
        # One schema for both verifiers.
        assert set(payloads[0]) == set(payloads[1]) == {
            "version", "passed", "in_set", "anchor_value", "max_violation",
            "form_ok", "anchor_singular", "phi_hat",
        }

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


class TestFunctionalInput:
    def refused(self, tmp_path, capsys, phi, sigma):
        d = write_ppt_functional(tmp_path / "phi.json", phi, sigma)
        with pytest.raises(PreconditionError):
            functional_from_json_dict(d)
        write_matrix(tmp_path / "sigma.json", sigma)
        code, out = run(
            capsys, "ree", "family",
            "--sigma-star", str(tmp_path / "sigma.json"), "--phi", str(tmp_path / "phi.json"),
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "PreconditionError"

    def test_phi_off_the_supporting_form_exit_two(self, tmp_path, capsys):
        # The shift keeps Tr[phi sigma*] = 1, so only the form check sees it.
        sigma = random_boundary_state((2, 3), 4)
        x = random_hermitian((2, 3), np.random.default_rng(0))
        shift = x.mat - trace_inner_product(x, sigma) * np.eye(6)
        phi = hermitian(ppt_functional(sigma).phi.mat + 0.05 * shift, (2, 3))
        self.refused(tmp_path, capsys, phi, sigma)

    def test_anchor_outside_the_ppt_set_exit_two(self, tmp_path, capsys):
        # sigma* = Phi+/5 + 4 tau/5, with Phi+ on |00>, |11> and tau diagonal:
        # sigma*^Gamma has eigenvalues -0.01 (on |01> - |10>) and 0 (on |02>),
        # and phi = 1 - |02><02| has Tr[phi sigma*] = 1 and the hyperplane form.
        psi = np.zeros(6)
        psi[0] = psi[4] = 2**-0.5
        tau = np.diag([0.25, 0.1125, 0.0, 0.1125, 0.25, 0.275])
        sigma = hermitian(0.2 * np.outer(psi, psi) + 0.8 * tau, (2, 3))
        assert np.linalg.eigvalsh(sigma.pt.mat)[:2] == pytest.approx([-0.01, 0.0], abs=1e-15)
        phi = hermitian(np.eye(6) - np.diag(np.eye(6)[2]), (2, 3))
        self.refused(tmp_path, capsys, phi, sigma)


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

    def test_antisymmetric_werner_rains_below_ree(self, tmp_path, capsys):
        # R = log(5/3) < E = log 2 on 3x3, both certified.
        rho = tmp_path / "rho.json"
        write_matrix(rho, antisymmetric_werner(3))
        code, out = run(capsys, "compare", "--rho", str(rho))
        assert code == 0
        d = json.loads(out)
        assert d["solver"]["ree_status"] == d["solver"]["rains_status"] == "CONVERGED"
        assert d["gaps"]["ree_minus_rains"] == pytest.approx(np.log(6 / 5), abs=1e-9)

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

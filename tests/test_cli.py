import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from kidecomp import commutant_of_family, decompose
from kidecomp.cli import main
from kidecomp.exceptions import NoConvergence

from cli_outputs import invocations
from helpers import (
    build_family,
    cli_env,
    count_linalg_calls,
    fail_lapack_at,
    haar_unitary,
    lifted_preserving_channel,
    random_density,
    remixed_channel,
    rotated_info_channel,
    write_family_file,
    write_kraus_file,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
JSON_RUNS = [argv for argv in invocations() if "--format" not in argv]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_golden(capsys):
    code, out, err = run_cli(capsys, ["decompose", str(DATA / "orthogonal_pair.json")])
    assert code == 0 and err == ""
    assert out == (GOLDEN / "decompose_orthogonal_pair.json").read_text()


@pytest.mark.parametrize("argv", JSON_RUNS, ids=[" ".join(a).replace("tests/data/", "") for a in JSON_RUNS])
def test_zero_boundary_tolerances_change_no_output(argv, monkeypatch, capsys):
    # tol_sym, tol_psd and tol_trace check the files' states; what the
    # pipeline builds from them is not checked again, so its roundoff cannot
    # fail a run that sets all three to zero
    monkeypatch.chdir(DATA.parent.parent)
    code, out, _ = run_cli(capsys, argv)
    strict_code, strict_out, _ = run_cli(capsys, argv + ["--tol", "sym=0", "--tol", "trace=0", "--tol", "psd=0"])
    assert strict_code == code
    if code != 2:
        base, strict = json.loads(out), json.loads(strict_out)
        assert base.pop("tolerances") != strict.pop("tolerances")
        assert strict == base


def test_check_broadcast_golden(capsys):
    code, out, err = run_cli(
        capsys, ["check", "broadcast", str(DATA / "commuting_triple.json")]
    )
    assert code == 0 and err == ""
    assert out == (GOLDEN / "check_broadcast_commuting_triple.json").read_text()


def test_entropy_golden(capsys):
    code, out, err = run_cli(capsys, ["entropy", str(DATA / "uniform_pair.json")])
    assert code == 0 and err == ""
    assert out == (GOLDEN / "entropy_uniform_pair.json").read_text()
    payload = json.loads(out)
    assert payload["entropy"]["classical_bits"] == 1.0
    assert payload["entropy"]["nonclassical_bits"] == 0.0
    assert payload["entropy"]["redundant_bits"] == 0.0


def test_console_script_matches_golden():
    # look beside the running interpreter, not on PATH, so the script found
    # belongs to the environment whose `kidecomp` this test imported
    dirs = [
        sysconfig.get_path("scripts"),
        sysconfig.get_path("scripts", sysconfig.get_preferred_scheme("user")),
    ]
    script = shutil.which("kidecomp", path=os.pathsep.join(dirs))
    assert script is not None, (
        f"no `kidecomp` console script in {dirs}; install it into this "
        f"interpreter with `{sys.executable} -m pip install -e . --no-build-isolation`"
    )
    proc = subprocess.run(
        [script, "decompose", str(DATA / "orthogonal_pair.json")],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "decompose_orthogonal_pair.json").read_text()


def test_byte_identical_reruns(tmp_path, capsys):
    rng = np.random.default_rng(50)
    built = build_family(rng, [(2, 2), (1, 2)], 3)
    path = write_family_file(tmp_path / "fam.json", built["states"])
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["decompose", str(path), "--seed", "7"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    # a different seed still reports the same structure
    code, out3, _ = run_cli(capsys, ["decompose", str(path), "--seed", "8"])
    assert code == 0
    a, b = json.loads(outs[0]), json.loads(out3)
    shapes = lambda p: [(blk["d_info"], blk["d_red"]) for blk in p["blocks"]]
    assert shapes(a) == shapes(b)
    assert np.allclose(a["weights"], b["weights"], atol=1e-7)


def test_output_flag_and_text_format(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        ["decompose", str(DATA / "orthogonal_pair.json"), "--output", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == (GOLDEN / "decompose_orthogonal_pair.json").read_text()
    code, out, _ = run_cli(
        capsys, ["decompose", str(DATA / "orthogonal_pair.json"), "--format", "text"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert "maximality.ok = true" in lines
    assert "support_dim = 2" in lines
    assert 'command = "decompose"' in lines


def test_seed_resolution(tmp_path, capsys, monkeypatch):
    path = str(DATA / "orthogonal_pair.json")
    monkeypatch.setenv("KIDECOMP_SEED", "42")
    code, out, _ = run_cli(capsys, ["decompose", path])
    assert code == 0 and json.loads(out)["seed"] == 42
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, ["decompose", path, "--seed", "3"])
    assert code == 0 and json.loads(out)["seed"] == 3
    monkeypatch.setenv("KIDECOMP_SEED", "not-a-number")
    code, _, err = run_cli(capsys, ["decompose", path])
    assert code == 2
    assert "KIDECOMP_SEED" in err


def test_negative_seed_from_the_flag_is_bad_input(capsys):
    path = str(DATA / "orthogonal_pair.json")
    code, out, err = run_cli(capsys, ["decompose", path, "--seed", "-5"])
    assert code == 2 and out == ""
    assert err == "kidecomp: error: --seed must be nonnegative, got -5\n"


def test_negative_seed_from_the_environment_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("KIDECOMP_SEED", "-3")
    code, out, err = run_cli(capsys, ["entropy", str(DATA / "orthogonal_pair.json")])
    assert code == 2 and out == ""
    assert err == "kidecomp: error: KIDECOMP_SEED must be nonnegative, got -3\n"


def test_tol_flag_paths(capsys):
    path = str(DATA / "orthogonal_pair.json")
    code, out, _ = run_cli(capsys, ["decompose", path, "--tol", "psd=1e-6"])
    assert code == 0
    assert json.loads(out)["tolerances"]["tol_psd"] == 1e-6
    # overrides may be zero, but not negative
    code, out, _ = run_cli(capsys, ["decompose", path, "--tol", "sym=0"])
    assert code == 0
    assert json.loads(out)["tolerances"]["tol_sym"] == 0.0
    for bad in ("psd", "psd=abc", "wobble=1e-3", "zero=1.0", "sym=-1e-3"):
        code, _, err = run_cli(capsys, ["decompose", path, "--tol", bad])
        assert code == 2, bad
        assert "error" in err


def test_input_error_exit_codes(tmp_path, capsys):
    # missing file
    code, _, err = run_cli(capsys, ["decompose", str(tmp_path / "nope.json")])
    assert code == 2
    # malformed json
    p = tmp_path / "junk.json"
    p.write_text("{oops")
    code, _, err = run_cli(capsys, ["decompose", str(p)])
    assert code == 2
    # a non-Hermitian state is named in the error
    bad = np.array([[0.5, 0.5], [0.0, 0.5]])
    good = np.diag([0.5, 0.5]).astype(complex)
    path = write_family_file(tmp_path / "fam.json", [good, bad], labels=["fine", "askew"])
    code, _, err = run_cli(capsys, ["decompose", str(path)])
    assert code == 2
    assert "askew" in err
    # a non-finite entry is named by its field
    payload = json.loads(path.read_text())
    payload["states"][1]["matrix"][0][1][0] = float("nan")
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, ["decompose", str(path)])
    assert code == 2 and out == ""
    assert "states[1].matrix[0][1]: value must be finite" in err
    # an --output path that cannot be written
    code, out, err = run_cli(capsys, ["decompose", str(DATA / "orthogonal_pair.json"), "--output", str(tmp_path)])
    assert code == 2 and out == ""
    assert "kidecomp: error:" in err


def test_lapack_failure_exits_as_numerical_failure(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NoConvergence):
        decompose([np.diag([1.0, 0.0]), np.diag([0.5, 0.5])])
    code, out, err = run_cli(capsys, ["decompose", str(DATA / "orthogonal_pair.json")])
    assert code == 3 and out == ""
    assert "SVD did not converge" in err


@pytest.mark.parametrize(
    "site, routine",
    [
        ("_hermitian_psd", "eigvalsh"),
        ("_eigh", "eigh"),
        ("isotypic_decompose", "eigh"),
        ("_spectral_frame", "eigh"),
        ("_compressed_generators", "svd"),
        ("_null_space_floor", "qr"),
        ("_null_space_floor", "svd"),
        ("_unitary_polish", "svd"),
        ("_nearest_density", "eigh"),
    ],
)
def test_lapack_failure_at_each_call_site_is_no_convergence(site, routine, tmp_path, monkeypatch, capsys):
    # a (2, 2) block makes the copy alignment in `_unitary_polish` run
    states = build_family(np.random.default_rng(7), [(2, 2), (1, 1)], 3)["states"]
    path = str(write_family_file(tmp_path / "fam.json", states))
    message = fail_lapack_at(monkeypatch, site, routine)
    with pytest.raises(NoConvergence, match=message):
        decompose(states)
    code, out, err = run_cli(capsys, ["decompose", path])
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "command, site, routine",
    [
        ("clone", "sequential_clonability", "eigh"),
        ("channel", "_trace_deviations", "eigvalsh"),
    ],
)
def test_lapack_failure_in_check_commands_exits_3(command, site, routine, tmp_path, monkeypatch, capsys):
    if command == "clone":
        # pure inputs, so the pairwise-overlap shortcut runs too
        pure = [np.diag(np.eye(4)[k]).astype(complex) for k in (0, 3)]
        argv = [str(write_family_file(tmp_path / "pure.json", pure, factor_dims=[2, 2]))]
    else:
        argv = [str(DATA / "orthogonal_pair.json"), str(DATA / "identity_channel.json")]
    message = fail_lapack_at(monkeypatch, site, routine)
    code, out, err = run_cli(capsys, ["check", command] + argv)
    assert code == 3 and out == ""
    assert message in err


def test_frame_eigh_failure_raises_no_convergence(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NoConvergence, match="Eigenvalues did not converge"):
        commutant_of_family([np.diag([1.0, 0.0]), np.diag([0.5, 0.5])])


def test_python_m_kidecomp_matches_golden():
    proc = subprocess.run(
        [sys.executable, "-m", "kidecomp", "decompose", str(DATA / "orthogonal_pair.json")],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "decompose_orthogonal_pair.json").read_text()


def test_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kidecomp; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_check_broadcast_negative(tmp_path, capsys):
    rng = np.random.default_rng(51)
    built = build_family(rng, [(2, 1)], 2)
    path = write_family_file(tmp_path / "fam.json", built["states"])
    code, out, _ = run_cli(capsys, ["check", "broadcast", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["witness_block"] is not None
    assert payload["commutator_defect"] > 1e-6


def test_check_imprint(tmp_path, capsys):
    # orthogonal supports let a preserving channel record the label
    code, out, _ = run_cli(capsys, ["check", "imprint", str(DATA / "orthogonal_pair.json")])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["offending"] == [0, 1, 0]
    assert np.isclose(payload["max_weight_gap"], 1.0)
    # equal block probabilities pass
    rng = np.random.default_rng(52)
    built = build_family(rng, [(1, 2), (2, 1)], 2, equal_weights=True)
    path = write_family_file(tmp_path / "fam.json", built["states"])
    code, out, _ = run_cli(capsys, ["check", "imprint", str(path)])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_check_clone(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["check", "clone", str(DATA / "clone_pair.json")])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["factor_dims"] == [2, 2]
    # same marginals with overlapping second parties cannot be cloned
    chi1 = np.kron(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])).astype(complex)
    chi2 = np.kron(np.diag([0.5, 0.5]), np.diag([0.5, 0.5])).astype(complex)
    path = write_family_file(tmp_path / "pair.json", [chi1, chi2], factor_dims=(2, 2))
    code, out, _ = run_cli(capsys, ["check", "clone", str(path)])
    assert code == 1
    assert json.loads(out)["ok"] is False
    # factor_dims is mandatory for clone
    path2 = write_family_file(tmp_path / "nodims.json", [chi1, chi2])
    code, _, err = run_cli(capsys, ["check", "clone", str(path2)])
    assert code == 2
    assert "factor_dims" in err


def test_check_clone_validates_its_family_once(monkeypatch, capsys):
    # the loaded family reaches sequential_clonability as it is, and the
    # first-party marginals built from it are not checked again: one stacked
    # eigvalsh checks the states
    counts = count_linalg_calls(monkeypatch)
    code, _, _ = run_cli(capsys, ["check", "clone", str(DATA / "clone_pair.json")])
    assert code == 0
    assert counts["eigvalsh"] == 1


def test_check_channel(tmp_path, capsys):
    fam = str(DATA / "orthogonal_pair.json")
    code, out, _ = run_cli(capsys, ["check", "channel", fam, str(DATA / "identity_channel.json")])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["preserves_family"]["ok"] is True
    assert payload["block_form"]["ok"] is True
    # a rotation moves the family and breaks block form
    theta = 0.4
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    ch_path = write_kraus_file(tmp_path / "rot.json", [rot], input_dim=2)
    code, out, _ = run_cli(capsys, ["check", "channel", fam, str(ch_path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["preserves_family"]["max_deviation"] > 1e-4
    # wrong number of inputs
    code, _, err = run_cli(capsys, ["check", "channel", fam])
    assert code == 2
    code, _, err = run_cli(capsys, ["check", "broadcast", fam, fam])
    assert code == 2


def test_check_channel_independent_of_kraus_presentation(tmp_path, capsys):
    # a remixed copy with extra operators is the same channel, so the report
    # must give the same verdicts, violations and exit code
    rng = np.random.default_rng(55)
    built = build_family(rng, [(2, 2), (1, 2)], 3, pad_to=8)
    fam = str(write_family_file(tmp_path / "fam.json", built["states"]))
    decomp = decompose(built["states"])
    reds = [r.mat for r in decomp.red_states]
    channels = {
        "preserving": lifted_preserving_channel(rng, decomp.structure, reds, decomp.support),
        "rotated": rotated_info_channel(rng, decomp, 0.3),
    }
    for name, ch in channels.items():
        reports = []
        for tag, ops in (("given", ch.kraus_ops), ("remixed", remixed_channel(rng, ch, extra=3).kraus_ops)):
            path = write_kraus_file(tmp_path / f"{name}-{tag}.json", ops)
            code, out, _ = run_cli(capsys, ["check", "channel", fam, str(path)])
            payload = json.loads(out)
            reports.append((code, payload["ok"], payload["block_form"]["ok"], payload["block_form"]["violations"]))
        assert reports[0] == reports[1], name
        assert reports[0][:3] == ((0, True, True) if name == "preserving" else (1, False, False)), name
        assert (reports[0][3] == []) == (name == "preserving"), name


def test_entropy_tensor_additive(tmp_path, capsys):
    rng = np.random.default_rng(53)
    a = write_family_file(tmp_path / "a.json", build_family(rng, [(2, 1), (1, 1)], 2)["states"])
    b = write_family_file(tmp_path / "b.json", build_family(rng, [(1, 2)], 2)["states"])
    code, out_a, _ = run_cli(capsys, ["entropy", str(a)])
    assert code == 0
    code, out_b, _ = run_cli(capsys, ["entropy", str(b)])
    assert code == 0
    code, out_t, _ = run_cli(capsys, ["entropy", "--tensor", str(a), str(b)])
    assert code == 0
    ea = json.loads(out_a)["entropy"]
    eb = json.loads(out_b)["entropy"]
    et = json.loads(out_t)["entropy"]
    for key in ("classical_bits", "nonclassical_bits", "redundant_bits", "total_bits"):
        assert abs(et[key] - ea[key] - eb[key]) <= 1e-6, key
    labels = json.loads(out_t)["labels"]
    assert len(labels) == 4 and labels[0].count("*") == 1
    # mutually exclusive input forms
    code, _, err = run_cli(capsys, ["entropy", str(a), "--tensor", str(a), str(b)])
    assert code == 2
    code, _, err = run_cli(capsys, ["entropy"])
    assert code == 2


def test_entropy_tensor_uses_one_set_of_tolerances(tmp_path, capsys):
    # each factor's file sets its own tolerances; the product is reported
    # under them only when the two agree
    loose = json.loads((DATA / "uniform_pair.json").read_text())
    loose["tolerances"] = {"rank": 1e-6}
    a = tmp_path / "loose.json"
    a.write_text(json.dumps(loose))
    b = DATA / "orthogonal_pair.json"
    code, out, err = run_cli(capsys, ["entropy", "--tensor", str(a), str(b)])
    assert code == 2 and out == ""
    assert "different tolerances: tol_rank" in err
    # the --tol override, on top of both files, makes them agree
    code, out, _ = run_cli(capsys, ["entropy", "--tensor", str(a), str(b), "--tol", "rank=1e-7"])
    assert code == 0
    assert json.loads(out)["tolerances"]["tol_rank"] == 1e-7
    code, out, _ = run_cli(capsys, ["entropy", "--tensor", str(a), str(a)])
    assert code == 0
    code, alone, _ = run_cli(capsys, ["entropy", str(a)])
    assert json.loads(out)["tolerances"] == json.loads(alone)["tolerances"]
    assert json.loads(out)["tolerances"]["tol_rank"] == 1e-6


def test_decompose_report_reassembles_input(tmp_path, capsys):
    # the report carries everything needed to rebuild the states
    rng = np.random.default_rng(54)
    built = build_family(rng, [(2, 2), (1, 2)], 2, pad_to=7)
    path = write_family_file(tmp_path / "fam.json", built["states"])
    code, out, _ = run_cli(capsys, ["decompose", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["maximality"]["ok"] is True
    assert payload["reassembly_residual"] <= 1e-7

    def pairs_to_matrix(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    transform = pairs_to_matrix(payload["transform"])
    support = pairs_to_matrix(payload["support"])
    weights = np.array(payload["weights"])
    reds = [pairs_to_matrix(r) for r in payload["red_states"]]
    blocks = [(b["d_info"], b["d_red"]) for b in payload["blocks"]]
    for s, rho in enumerate(built["states"]):
        inner = np.zeros((len(transform), len(transform)), dtype=complex)
        off = 0
        for l, (di, dr) in enumerate(blocks):
            size = di * dr
            if payload["info_states"][s][l] is not None:
                info = pairs_to_matrix(payload["info_states"][s][l])
                inner[off : off + size, off : off + size] = weights[s, l] * np.kron(
                    info, reds[l]
                )
            off += size
        rebuilt = support @ transform.conj().T @ inner @ transform @ support.conj().T
        assert np.linalg.norm(rebuilt - rho) <= 1e-7, f"state {s}"

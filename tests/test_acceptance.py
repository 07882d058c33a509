"""End-to-end acceptance suite.

Each test covers one numbered requirement and prints a single summary line
(visible with `pytest -s`; under `pytest -v` the test name itself is the
pass/fail line). The randomized corpora are generated once per run from
fixed seeds and shared across requirements.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kidecomp.applications import (
    broadcast_states,
    entropy_report,
    is_broadcastable,
    no_imprinting_holds,
)
from kidecomp.channels import (
    environment_state,
    has_block_form,
    preserves_family,
)
from kidecomp.cli import main
from kidecomp.linalg import partial_trace, state_family, von_neumann_entropy
from kidecomp.structure import (
    check_maximal,
    coherence_pairing,
    decompose,
    decompositions_equivalent,
    difference_split,
    tensor_structure,
)

from helpers import (
    build_family,
    cli_env,
    haar_unitary,
    preserving_block_channel,
    projected_preserving_channel,
    random_blocks,
    random_density,
    recovery_corpus,
    rotated_info_channel,
    split_decomp_identical_pair,
    trivial_decomp_of,
    weights_match,
    write_family_file,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def test_criterion_01_structure_recovery():
    cases, elapsed = recovery_corpus()
    hits = 0
    for built, decomp in cases:
        got = sorted(decomp.structure.blocks)
        want = sorted(built["blocks"])
        assert got == want, f"planted {want}, recovered {got}"
        assert weights_match(decomp.weights, built["weights"], atol=1e-6)
        hits += 1
    assert hits == 100
    assert elapsed <= 60.0, f"decompose took {elapsed:.1f}s"
    print(f"criterion 1: PASS (100/100 structures recovered in {elapsed:.1f}s)")


def test_criterion_02_uniqueness_across_seeds():
    rng = np.random.default_rng(2027)
    t0 = time.perf_counter()
    for fam_idx in range(20):
        blocks = random_blocks(rng, max_total=10, max_factor=3)
        built = build_family(rng, blocks, int(rng.integers(2, 5)))
        decs = [decompose(built["states"], seed=seed) for seed in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert decompositions_equivalent(decs[i], decs[j]), (
                    f"family {fam_idx}: seeds {i} and {j} disagree"
                )
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 2: PASS (20 families x 5 seeds agree in {elapsed:.1f}s)")


def test_criterion_03_reassembly():
    cases, _ = recovery_corpus()
    worst = max(check_maximal(decomp).reassembly_residual for _, decomp in cases)
    assert worst <= 1e-7, f"worst residual {worst:.3e}"
    print(f"criterion 3: PASS (worst reassembly residual {worst:.2e})")


def test_criterion_04_maximality_certificate():
    cases, _ = recovery_corpus()
    for _, decomp in cases:
        cert = check_maximal(decomp)
        assert cert.ok, f"certificate failed: {cert.violated}"
    rng = np.random.default_rng(2028)
    # hand-coarsened structures: merging everything into one block must be
    # flagged as a reducible information family on that block
    n_coarse = 0
    for _ in range(12):
        blocks = random_blocks(rng, max_total=8, max_factor=3)
        if len(blocks) == 1 and blocks[0][1] == 1:
            blocks.append((1, 2))
        built = build_family(rng, blocks, 3)
        cert = check_maximal(trivial_decomp_of(built["states"]))
        assert not cert.ok
        assert ("ii", 0) in cert.violated
        n_coarse += 1
    # hand-split structures: splitting an identical pair's eigenbasis into
    # two fake classical blocks must be flagged as mergeable blocks
    n_split = 0
    for p in np.linspace(0.55, 0.95, 10):
        cert = check_maximal(split_decomp_identical_pair(float(p)))
        assert not cert.ok
        assert any(v[0] == "iii" for v in cert.violated)
        n_split += 1
    assert n_coarse >= 10 and n_split >= 10
    print(
        f"criterion 4: PASS (100 certificates ok, {n_coarse} coarse and "
        f"{n_split} split structures rejected)"
    )


def force_info_blocks(rng):
    """Random block list guaranteed to contain a d_info >= 2 factor."""
    blocks = [(int(rng.integers(2, 4)), int(rng.integers(1, 3)))]
    rest = random_blocks(rng, max_total=6, max_factor=2)
    total = blocks[0][0] * blocks[0][1]
    for a, b in rest:
        if total + a * b <= 12:
            blocks.append((a, b))
            total += a * b
    return blocks


def test_criterion_05_soundness_and_disturbance():
    rng = np.random.default_rng(2029)
    # forward direction: assembled block channels fix every member
    n_sound = 0
    for _ in range(40):
        built = build_family(rng, random_blocks(rng, max_total=10), int(rng.integers(2, 4)))
        decomp = decompose(built["states"])
        for _ in range(5):
            ch = preserving_block_channel(rng, decomp)
            rep = preserves_family(ch, built["states"])
            assert rep.max_deviation <= 1e-8, f"deviation {rep.max_deviation:.3e}"
            n_sound += 1
    # disturbance: rotating an information factor moves some member and
    # breaks the block form
    n_rot = 0
    for _ in range(40):
        built = build_family(rng, force_info_blocks(rng), int(rng.integers(2, 4)))
        decomp = decompose(built["states"])
        for _ in range(5):
            angle = 0.1 + (np.pi / 2 - 0.1) * float(rng.random())
            ch = rotated_info_channel(rng, decomp, angle)
            rep = preserves_family(ch, built["states"])
            assert rep.max_deviation >= 1e-4, f"deviation {rep.max_deviation:.3e}"
            bf = has_block_form(ch, decomp.structure, support=decomp.support)
            assert not bf.ok
            n_rot += 1
    assert n_sound == 200 and n_rot == 200
    print("criterion 5: PASS (200 preserving channels exact, 200 rotations detected)")


def test_criterion_06_converse_by_constraint_projection():
    rng = np.random.default_rng(2030)
    n_ok = 0
    for _ in range(50):
        blocks = random_blocks(rng, max_total=8, max_factor=3)
        built = build_family(rng, blocks, int(rng.integers(2, 4)))
        decomp = decompose(built["states"])
        for _ in range(4):
            ch = projected_preserving_channel(rng, built)
            rep = preserves_family(ch, built["states"])
            assert rep.max_deviation <= 1e-8, f"deviation {rep.max_deviation:.3e}"
            bf = has_block_form(ch, decomp.structure, support=decomp.support)
            assert bf.max_violation <= 1e-7, f"violation {bf.max_violation:.3e}"
            n_ok += 1
    assert n_ok == 200
    print("criterion 6: PASS (200 projected preserving channels have block form)")


def test_criterion_07_split_and_pairing_primitives():
    rng = np.random.default_rng(2031)
    for trial in range(100):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        sig = random_density(rng, d)
        res = difference_split(rho, sig)
        assert res.basis_pos.shape[1] >= 1
        assert res.basis_neg.shape[1] >= 1
        wpos = np.linalg.eigvalsh(
            res.basis_pos.conj().T @ res.witness @ res.basis_pos
        )
        wneg = np.linalg.eigvalsh(
            res.basis_neg.conj().T @ res.witness @ res.basis_neg
        )
        assert wpos.min() > -1e-10, f"trial {trial}"
        assert wneg.max() < 1e-10, f"trial {trial}"
    for trial in range(100):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        extra = int(rng.integers(0, 3))
        d = d1 + d2 + extra
        n = min(d1, d2)
        vecs = []
        for _ in range(n):
            v = np.zeros(d, dtype=complex)
            v[:d1] = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
            v[:d1] /= np.linalg.norm(v[:d1])
            v[d1 : d1 + d2] = rng.standard_normal(d2) + 1j * rng.standard_normal(d2)
            v[d1 : d1 + d2] /= np.linalg.norm(v[d1 : d1 + d2])
            v /= np.linalg.norm(v)
            vecs.append(v)
        probs = rng.dirichlet([1.5] * n)
        rho = sum(pk * np.outer(v, v.conj()) for pk, v in zip(probs, vecs))
        rho = 0.85 * rho + 0.15 * random_density(rng, d)
        rho /= np.trace(rho).real
        b1 = np.zeros((d, d1), dtype=complex)
        b1[:d1] = np.eye(d1)
        b2 = np.zeros((d, d2), dtype=complex)
        b2[d1 : d1 + d2] = np.eye(d2)
        pair = coherence_pairing(rho, b1, b2)
        for p in (pair.p_plus, pair.p_minus):
            assert np.linalg.norm(p @ p - p) <= 1e-9
            assert np.linalg.norm(p - p.conj().T) <= 1e-9
        assert np.linalg.norm(pair.p_plus @ pair.p_minus) <= 1e-9
        p1 = b1 @ b1.conj().T
        p2 = b2 @ b2.conj().T
        off = p2 @ rho @ p1 + p1 @ rho @ p2
        rebuilt = pair.w @ pair.n + pair.n @ pair.w.conj().T
        assert np.linalg.norm(rebuilt - off) <= 1e-8, f"trial {trial}"
    print("criterion 7: PASS (100 sign splits and 100 coherence pairings verified)")


def test_criterion_08_entropy_accounting():
    cases, _ = recovery_corpus()
    rng = np.random.default_rng(2032)
    worst = 0.0
    for built, _ in cases:
        n = len(built["states"])
        pw = rng.dirichlet([3.0] * n)
        rep = entropy_report(decompose(state_family(built["states"], weights=pw)))
        avg = sum(p * s for p, s in zip(pw, built["states"]))
        worst = max(worst, abs(rep.total - von_neumann_entropy(avg)))
    assert worst <= 1e-7, f"worst consistency gap {worst:.3e}"
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    x0 = np.full((2, 2), 0.5, dtype=complex)
    x1 = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    four = entropy_report(decompose([z0, z1, x0, x1]))
    assert abs(four.classical) <= 1e-9
    assert abs(four.nonclassical - 1.0) <= 1e-9
    assert abs(four.redundant) <= 1e-9
    pair = entropy_report(decompose([z0, z1]))
    assert abs(pair.classical - 1.0) <= 1e-9
    assert abs(pair.nonclassical) <= 1e-9
    assert abs(pair.redundant) <= 1e-9
    print(f"criterion 8: PASS (entropy sums match, worst gap {worst:.2e})")


def test_criterion_09_additivity():
    rng = np.random.default_rng(2033)
    for trial in range(50):
        a_built = build_family(rng, random_blocks(rng, max_total=4, max_factor=2), 2)
        b_built = build_family(rng, random_blocks(rng, max_total=4, max_factor=2), 2)
        da = decompose(a_built["states"])
        db = decompose(b_built["states"])
        dt = tensor_structure(da, db)
        ra, rb, rt = entropy_report(da), entropy_report(db), entropy_report(dt)
        assert abs(rt.classical - ra.classical - rb.classical) <= 1e-6
        assert abs(rt.nonclassical - ra.nonclassical - rb.nonclassical) <= 1e-6
        assert abs(rt.redundant - ra.redundant - rb.redundant) <= 1e-6
        # entropy sums stay consistent on this corpus too
        avg_a = sum(a_built["states"]) / 2
        avg_b = sum(b_built["states"]) / 2
        assert abs(ra.total - von_neumann_entropy(avg_a)) <= 1e-7
        assert abs(rb.total - von_neumann_entropy(avg_b)) <= 1e-7
        assert abs(rt.total - von_neumann_entropy(np.kron(avg_a, avg_b))) <= 1e-7
        direct = decompose(dt.family)
        assert decompositions_equivalent(direct, dt), f"trial {trial}"
    print("criterion 9: PASS (50 family pairs additive and tensor-consistent)")


def test_criterion_10_broadcasting():
    rng = np.random.default_rng(2034)
    n_checked = 0
    for trial in range(200):
        d = int(rng.integers(2, 6))
        if trial % 2 == 0:
            u = haar_unitary(rng, d)
            states = [
                u @ np.diag(rng.dirichlet([1.0] * d)) @ u.conj().T
                for _ in range(int(rng.integers(2, 4)))
            ]
        else:
            built = build_family(rng, [(2, 1)] if d < 4 else [(2, 2)], int(rng.integers(2, 4)))
            states = built["states"]
            d = built["dim"]
        rep = is_broadcastable(states)
        commuting = max(
            float(np.linalg.norm(a @ b - b @ a))
            for i, a in enumerate(states)
            for b in states[i + 1 :]
        ) <= 1e-8
        assert rep.ok == commuting, f"trial {trial}"
        n_checked += 1
        if rep.ok:
            for mode in ("product", "classical", "quantum"):
                out = broadcast_states(rep.decomposition, mode=mode)
                assert out.marginal_defect <= 1e-7, f"trial {trial} mode {mode}"
                chi = out.chi[0].mat
                s0 = states[0]
                assert np.linalg.norm(partial_trace(chi, d, d, "left") - s0) <= 1e-7
                assert np.linalg.norm(partial_trace(chi, d, d, "right") - s0) <= 1e-7
    assert n_checked == 200
    print("criterion 10: PASS (200 families agree with the commutator oracle)")


def test_criterion_11_imprinting():
    rng = np.random.default_rng(2035)
    n_channels = 0
    for _ in range(10):
        blocks = random_blocks(rng, max_total=9)
        built = build_family(rng, blocks, int(rng.integers(2, 4)), equal_weights=True)
        rep = no_imprinting_holds(built["states"])
        assert rep.ok, f"gap {rep.max_weight_gap:.3e}"
        for _ in range(5):
            ch = preserving_block_channel(rng, rep.decomposition)
            envs = [environment_state(ch, s) for s in built["states"]]
            gap = max(
                float(np.linalg.norm(envs[i] - envs[0])) for i in range(1, len(envs))
            )
            assert gap <= 1e-6, f"environment gap {gap:.3e}"
            n_channels += 1
    assert n_channels == 50
    disjoint = [
        np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
        np.diag([0.0, 0.0, 0.5, 0.5]).astype(complex),
    ]
    rep = no_imprinting_holds(disjoint)
    assert not rep.ok
    assert rep.offending is not None
    print("criterion 11: PASS (50 preserving channels leak nothing; disjoint pair fails)")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    rng = np.random.default_rng(2036)
    built = build_family(rng, [(2, 2), (1, 2)], 3)
    fam = write_family_file(tmp_path / "family.json", built["states"])
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "kidecomp.cli", "decompose", str(fam), "--seed", "11"],
            capture_output=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        runs.append(proc.stdout)
    assert runs[0] == runs[1], "reports differ between identical runs"
    golden_cases = [
        (["decompose", str(DATA / "orthogonal_pair.json")], "decompose_orthogonal_pair.json"),
        (
            ["check", "broadcast", str(DATA / "commuting_triple.json")],
            "check_broadcast_commuting_triple.json",
        ),
        (["entropy", str(DATA / "uniform_pair.json")], "entropy_uniform_pair.json"),
    ]
    for argv, golden_name in golden_cases:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / golden_name).read_text(), f"golden {golden_name} drifted"
    print("criterion 12: PASS (byte-identical reruns, 3 golden fixtures match)")

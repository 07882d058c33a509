import dataclasses
import sys

import numpy as np
import pytest

from kidecomp.applications import (
    _weight_gaps,
    broadcast_states,
    entropy_report,
    generalized_no_imprinting,
    imprinting_parts,
    is_broadcastable,
    no_imprinting_holds,
    sequential_clonability,
)
from kidecomp.channels import environment_state
from kidecomp.exceptions import (
    DimensionMismatch,
    NotBroadcastable,
    NotHermitian,
    ValidationError,
    ZeroOperator,
)
from kidecomp.linalg import Tolerances, partial_trace, state_family, von_neumann_entropy
from kidecomp.structure import decompose, tensor_structure

from helpers import (
    build_family,
    haar_unitary,
    loop_broadcast_states,
    loop_commutator_defect,
    loop_entropy_report,
    loop_weight_gaps,
    preserving_block_channel,
    random_blocks,
    random_density,
    random_pure,
    zero_weight_block_states,
)


def commuting_family(rng, d, n_states):
    u = haar_unitary(rng, d)
    return [u @ np.diag(rng.dirichlet([1.0] * d)) @ u.conj().T for _ in range(n_states)]


def test_is_broadcastable_matches_commutator_oracle():
    rng = np.random.default_rng(20)
    for trial in range(15):
        if trial % 2 == 0:
            states = commuting_family(rng, int(rng.integers(2, 6)), int(rng.integers(2, 4)))
        else:
            built = build_family(rng, [(2, int(rng.integers(1, 3)))], int(rng.integers(2, 4)))
            states = built["states"]
        rep = is_broadcastable(states)
        commuting = loop_commutator_defect(states) <= 1e-8
        assert rep.ok == commuting, f"trial {trial}"
        assert np.isclose(rep.commutator_defect, loop_commutator_defect(states))
        if rep.ok:
            assert rep.witness_block is None
            assert all(di == 1 for di, _ in rep.decomposition.structure.blocks)
        else:
            di, _ = rep.decomposition.structure.blocks[rep.witness_block]
            assert di > 1


@pytest.mark.parametrize("commuting", [False, True])
def test_commutator_defect_matches_pairwise_loop(commuting):
    rng = np.random.default_rng(400 + commuting)
    if commuting:
        states = commuting_family(rng, 8, 60)
    else:
        states = build_family(rng, [(2, 2), (1, 3), (1, 1)], 60)["states"]
    rep = is_broadcastable(states)
    want = loop_commutator_defect(rep.decomposition.family.mats())
    assert rep.ok == commuting
    assert abs(rep.commutator_defect - want) <= 1e-12 * want


def test_broadcast_states_all_modes():
    rng = np.random.default_rng(21)
    for trial in range(6):
        states = commuting_family(rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)))
        decomp = is_broadcastable(states).decomposition
        d = states[0].shape[0]
        for mode in ("product", "classical", "quantum"):
            out = broadcast_states(decomp, mode=mode)
            assert out.mode == mode
            assert out.marginal_defect <= 1e-7
            for s, chi in enumerate(out.chi):
                m = chi.mat
                assert np.isclose(np.trace(m).real, 1.0, atol=1e-9)
                assert np.linalg.eigvalsh(m).min() > -1e-9
                # marginals reproduce the input on both sides
                assert np.allclose(partial_trace(m, d, d, keep="left"), states[s], atol=1e-7)
                assert np.allclose(partial_trace(m, d, d, keep="right"), states[s], atol=1e-7)


def test_broadcast_states_matches_per_state_loop():
    rng = np.random.default_rng(23)
    decs = [
        decompose(build_family(rng, [(1, 3), (1, 2), (1, 1)], 4)["states"]),
        decompose(build_family(rng, [(1, 2), (1, 1)], 3, pad_to=5)["states"]),
        decompose(zero_weight_block_states(rng)),
    ]
    for decomp in decs:
        for mode in ("product", "classical", "quantum"):
            got, want = broadcast_states(decomp, mode=mode), loop_broadcast_states(decomp, mode)
            assert abs(got.marginal_defect - want.marginal_defect) <= 1e-14
            for x, y in zip(got.chi, want.chi, strict=True):
                assert np.abs(x.mat - y.mat).max() <= 1e-14
                assert abs(np.trace(x.mat).real - np.trace(y.mat).real) <= 1e-14


@pytest.mark.parametrize("strict", [Tolerances(tol_trace=0.0), Tolerances(tol_psd=0.0)], ids=["tol_trace", "tol_psd"])
def test_broadcast_states_under_a_zero_output_tolerance(strict):
    # the outputs are states by construction, so a strict tolerance finds
    # no roundoff of theirs to reject
    for seed in range(20):
        decomp = decompose(build_family(np.random.default_rng(seed), [(1, 2), (1, 3), (1, 1)], 4)["states"])
        for mode in ("product", "classical", "quantum"):
            base, got = broadcast_states(decomp, mode), broadcast_states(decomp, mode, strict)
            assert abs(got.marginal_defect - base.marginal_defect) <= 1e-12


def test_broadcast_states_raises_zero_operator_for_an_output_without_weight():
    decomp = decompose([np.diag([0.7, 0.3]), np.diag([0.3, 0.7])])
    with pytest.raises(ZeroOperator):
        broadcast_states(dataclasses.replace(decomp, weights=np.zeros_like(decomp.weights)))


def test_broadcast_states_block_diagonal():
    # outputs live on the matched-block-pair subspace
    rng = np.random.default_rng(22)
    states = commuting_family(rng, 4, 3)
    decomp = is_broadcastable(states).decomposition
    d = 4
    proj = np.zeros((d * d, d * d), dtype=complex)
    for l in range(decomp.n_blocks):
        e = decomp.support @ decomp.structure.block_basis(l)
        lift = np.kron(e, e)
        proj += lift @ lift.conj().T
    for mode in ("product", "classical", "quantum"):
        for chi in broadcast_states(decomp, mode=mode).chi:
            m = chi.mat
            assert np.linalg.norm(m - proj @ m @ proj) <= 1e-8


def test_broadcast_modes_trivial_blocks_coincide():
    # with one-dimensional redundant factors there is nothing to correlate
    p = np.diag([0.7, 0.3]).astype(complex)
    q = np.diag([0.3, 0.7]).astype(complex)
    decomp = decompose([p, q])
    prod = broadcast_states(decomp, mode="product").chi[0].mat
    clas = broadcast_states(decomp, mode="classical").chi[0].mat
    quan = broadcast_states(decomp, mode="quantum").chi[0].mat
    assert np.allclose(prod, clas, atol=1e-9)
    assert np.allclose(clas, quan, atol=1e-9)
    # output is diagonal with perfectly correlated labels
    diag = np.diag(clas).real
    assert np.linalg.norm(clas - np.diag(np.diag(clas))) < 1e-9
    assert np.isclose(diag[0], 0.7) and np.isclose(diag[3], 0.3)


def test_broadcast_modes_differ_for_mixed_redundant_factor():
    # shared mixed redundant factor: the three modes give distinct couplings
    red = np.diag([0.6, 0.4]).astype(complex)
    states = []
    for w in (0.8, 0.4):
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = w * red
        m[2, 2] = 1.0 - w
        states.append(m)
    decomp = decompose(states)
    prod = broadcast_states(decomp, mode="product").chi[0].mat
    clas = broadcast_states(decomp, mode="classical").chi[0].mat
    quan = broadcast_states(decomp, mode="quantum").chi[0].mat
    assert np.linalg.norm(prod - clas) > 1e-3
    assert np.linalg.norm(clas - quan) > 1e-3
    assert np.linalg.norm(prod - quan) > 1e-3
    # classical output carries zero coherence between the two copies
    assert np.linalg.norm(clas - np.diag(np.diag(clas))) < 1e-9


def test_broadcast_rejects_noncommuting():
    rng = np.random.default_rng(23)
    built = build_family(rng, [(2, 1)], 2)
    rep = is_broadcastable(built["states"])
    assert not rep.ok
    with pytest.raises(NotBroadcastable):
        broadcast_states(rep.decomposition)
    with pytest.raises(ValueError):
        broadcast_states(rep.decomposition, mode="telepathic")


def test_no_imprinting_equal_weights():
    rng = np.random.default_rng(24)
    for trial in range(8):
        blocks = random_blocks(rng, max_total=9)
        built = build_family(rng, blocks, 3, equal_weights=True)
        rep = no_imprinting_holds(built["states"])
        assert rep.ok, f"trial {trial}: gap {rep.max_weight_gap:.3e}"
        assert rep.offending is None
        assert rep.max_weight_gap <= 1e-8


def test_no_imprinting_fails_for_varying_weights():
    rng = np.random.default_rng(25)
    for trial in range(8):
        built = build_family(rng, [(1, 2), (2, 1)], 2)
        if np.abs(built["weights"][0] - built["weights"][1]).max() < 1e-3:
            continue
        rep = no_imprinting_holds(built["states"])
        assert not rep.ok
        s, t, l = rep.offending
        gap = abs(rep.decomposition.weights[s, l] - rep.decomposition.weights[t, l])
        assert gap > 1e-8
        assert rep.max_weight_gap > 1e-3


def test_weight_gaps_match_pairwise_loop():
    rng = np.random.default_rng(401)
    cases = [np.full((6, 3), 0.25), np.full((1, 4), 0.5), rng.dirichlet([1.0] * 4, size=5)]
    for n, blocks in ((2, 1), (7, 3), (30, 5), (60, 4)):
        # quarters give exact ties; the offsets put gaps on both sides of 1e-8
        quarters = rng.integers(0, 4, size=(n, blocks)) / 4.0
        cases.append(quarters + rng.choice([0.0, 5e-9, 1e-8, 1.5e-8], size=(n, blocks)))
        cases.append(np.tile(quarters[:1], (n, 1)) + rng.choice([0.0, 1e-8], size=(n, blocks)))
    for w in cases:
        assert _weight_gaps(w) == loop_weight_gaps(w)
    assert _weight_gaps(np.full((6, 3), 0.25)) == (None, 0.0)


def test_no_imprinting_matches_pairwise_loop_on_many_states():
    rng = np.random.default_rng(402)
    for equal in (False, True):
        built = build_family(rng, [(2, 1), (1, 2), (1, 1)], 60, equal_weights=equal)
        rep = no_imprinting_holds(built["states"])
        assert (rep.offending, rep.max_weight_gap) == loop_weight_gaps(rep.decomposition.weights)
        assert rep.ok == equal


def test_no_imprinting_orthogonal_supports():
    # distinguishable states: any measure-and-keep channel records the label
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    rep = no_imprinting_holds([rho, sig])
    assert not rep.ok
    assert rep.offending == (0, 1, 0)
    assert np.isclose(rep.max_weight_gap, 1.0)


def test_no_imprinting_single_state_and_single_block():
    rng = np.random.default_rng(26)
    assert no_imprinting_holds([random_density(rng, 3)]).ok
    built = build_family(rng, [(2, 2)], 3)  # one block: weights are all 1
    assert no_imprinting_holds(built["states"]).ok


def test_no_imprinting_predicts_environment_behavior():
    # ok families: every preserving channel's environment ignores the label;
    # failing families: some preserving channel imprints it
    rng = np.random.default_rng(27)
    for trial in range(6):
        blocks = random_blocks(rng, max_total=8)
        built = build_family(rng, blocks, 2, equal_weights=True)
        rep = no_imprinting_holds(built["states"])
        assert rep.ok
        for _ in range(3):
            ch = preserving_block_channel(rng, rep.decomposition)
            envs = [environment_state(ch, s) for s in built["states"]]
            assert np.linalg.norm(envs[0] - envs[1]) <= 1e-6
    for trial in range(4):
        built = build_family(rng, [(1, 2), (1, 3)], 2)
        if np.abs(built["weights"][0] - built["weights"][1]).max() < 0.05:
            continue
        rep = no_imprinting_holds(built["states"])
        assert not rep.ok
        gaps = []
        for _ in range(5):
            ch = preserving_block_channel(rng, rep.decomposition, strength=0.9)
            envs = [environment_state(ch, s) for s in built["states"]]
            gaps.append(np.linalg.norm(envs[0] - envs[1]))
        assert max(gaps) > 1e-6


def test_imprinting_parts_of_family_members():
    rng = np.random.default_rng(28)
    built = build_family(rng, [(2, 2), (1, 2)], 2, pad_to=10)
    decomp = decompose(built["states"])
    for s, rho in enumerate(built["states"]):
        parts = imprinting_parts(rho, decomp)
        # members live inside the family support
        assert np.linalg.norm(parts.outer) < 1e-9
        assert np.linalg.norm(parts.outer_to_support) < 1e-9
        assert np.linalg.norm(parts.support_to_outer) < 1e-9
        # the block part is the weighted redundant state
        for l in range(decomp.n_blocks):
            want = decomp.weights[s, l] * decomp.red_states[l].mat
            assert np.allclose(parts.block_parts[l], want, atol=1e-8)
    with pytest.raises(DimensionMismatch):
        imprinting_parts(np.eye(3), decomp)


def test_generalized_no_imprinting():
    rng = np.random.default_rng(29)
    built = build_family(rng, [(1, 2), (1, 2)], 2, equal_weights=True, pad_to=7)
    decomp = decompose(built["states"])
    rep = generalized_no_imprinting(built["states"], decomp)
    assert rep.ok and rep.offending is None and rep.max_gap <= 1e-8
    # probes differing outside the support are caught by the outer part
    d = built["dim"]
    comp = np.eye(d) - decomp.support @ decomp.support.conj().T
    bump = 0.5 * comp @ random_density(rng, d) @ comp
    rep2 = generalized_no_imprinting([built["states"][0], built["states"][0] + bump], decomp)
    assert not rep2.ok
    assert rep2.offending[2] == "outer"
    # probes differing in a block's redundant compression are caught there
    varying = build_family(rng, [(1, 2), (1, 2)], 2)
    decomp3 = decompose(varying["states"])
    if np.abs(varying["weights"][0] - varying["weights"][1]).max() > 1e-3:
        rep3 = generalized_no_imprinting(varying["states"], decomp3)
        assert not rep3.ok
        assert rep3.offending[2].startswith("block_")
    with pytest.raises(ValidationError):
        generalized_no_imprinting([built["states"][0]], decomp)


def test_sequential_clonability_orthogonal_first_party():
    # distinguishable first parties can be measured and reprepared
    rng = np.random.default_rng(30)
    sig0 = random_density(rng, 3)
    sig1 = random_density(rng, 3)
    chi0 = np.kron(np.diag([1.0, 0.0]).astype(complex), sig0)
    chi1 = np.kron(np.diag([0.0, 1.0]).astype(complex), sig1)
    rep = sequential_clonability([chi0, chi1], 2, 3)
    assert rep.clonable
    assert rep.orthogonality_defect <= 1e-8
    assert all(di == 1 for di, _ in rep.blocks)


def test_sequential_clonability_shared_first_party():
    # same first party, distinguishable second parties: clonable iff the
    # residues stay orthogonal
    rng = np.random.default_rng(31)
    rho = random_density(rng, 2)
    ortho0 = np.zeros((4, 4), dtype=complex)
    ortho0[:2, :2] = random_density(rng, 2)
    ortho1 = np.zeros((4, 4), dtype=complex)
    ortho1[2:, 2:] = random_density(rng, 2)
    rep = sequential_clonability([np.kron(rho, ortho0), np.kron(rho, ortho1)], 2, 4)
    assert rep.clonable
    # overlapping second parties block cloning
    s0 = random_density(rng, 4)
    s1 = 0.5 * s0 + 0.5 * random_density(rng, 4)
    rep2 = sequential_clonability([np.kron(rho, s0), np.kron(rho, s1)], 2, 4)
    assert not rep2.clonable
    assert rep2.orthogonality_defect > 1e-3


def test_sequential_clonability_pure_shortcut():
    rng = np.random.default_rng(32)
    # identical pure entangled states are trivially clonable
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    bell = np.outer(v, v.conj())
    rep = sequential_clonability([bell, bell], 2, 2)
    assert rep.clonable
    # partially overlapping pure states are not
    w = np.zeros(4, dtype=complex)
    w[0] = 1.0
    other = np.outer(w, w.conj())
    rep2 = sequential_clonability([bell, other], 2, 2)
    assert not rep2.clonable
    # orthogonal pure states are
    x = np.zeros(4, dtype=complex)
    x[1] = x[2] = 1.0 / np.sqrt(2.0)
    rep3 = sequential_clonability([bell, np.outer(x, x.conj())], 2, 2)
    perp = abs(np.vdot(v, x))
    assert np.isclose(perp, 0.0)
    assert rep3.clonable


def test_sequential_clonability_reads_purity_off_one_stacked_eigh(monkeypatch):
    # the pure-input test takes every member's spectrum and top eigenvector
    # from one eigh of the stack, with matrix_rank's cut on |eigenvalue|
    rng = np.random.default_rng(33)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    chis = [np.outer(v, v.conj()) for v in [bell, bell] + [random_pure(rng, 4) for _ in range(3)]]
    want = [np.linalg.matrix_rank(m, tol=1e-9 * max(1.0, np.linalg.norm(m))) for m in chis]
    callers = []

    def eigh(*args, _real=np.linalg.eigh, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return _real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert want == [1] * 5
    assert not sequential_clonability(chis, 2, 2).clonable
    assert sequential_clonability(chis[:2], 2, 2).clonable
    assert callers.count("sequential_clonability") == 2


def test_sequential_clonability_validation():
    with pytest.raises(ValidationError):
        sequential_clonability([np.eye(4) / 4.0], 2, 2)
    with pytest.raises(DimensionMismatch):
        sequential_clonability([np.eye(4) / 4.0, np.eye(6) / 6.0], 2, 2)
    with pytest.raises(DimensionMismatch):
        sequential_clonability([np.eye(6) / 6.0, np.eye(6) / 6.0], 2, 2)
    # the inputs are checked as states, not only through their marginals:
    # |00><01| has a Hermitian first-party marginal
    askew = np.eye(4, dtype=complex) / 4.0
    askew[0, 1] = 0.1
    with pytest.raises(NotHermitian) as err:
        sequential_clonability([np.eye(4) / 4.0, askew], 2, 2)
    assert err.value.member == 1


def test_entropy_report_classical_pair():
    # perfectly distinguishable pair carries one classical bit
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    rep = entropy_report(decompose([rho, sig]))
    assert abs(rep.classical - 1.0) <= 1e-9
    assert abs(rep.nonclassical) <= 1e-9
    assert abs(rep.redundant) <= 1e-9


def test_entropy_report_conjugate_bases_pair():
    # two mutually unbiased pure-state pairs carry one quantum bit
    z0 = np.diag([1.0, 0.0]).astype(complex)
    z1 = np.diag([0.0, 1.0]).astype(complex)
    x0 = np.full((2, 2), 0.5, dtype=complex)
    x1 = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    rep = entropy_report(decompose([z0, z1, x0, x1]))
    assert abs(rep.classical) <= 1e-9
    assert abs(rep.nonclassical - 1.0) <= 1e-9
    assert abs(rep.redundant) <= 1e-9


def test_entropy_report_identical_pair():
    rho = np.diag([0.75, 0.25]).astype(complex)
    rep = entropy_report(decompose([rho, rho]))
    assert abs(rep.classical) <= 1e-9
    assert abs(rep.nonclassical) <= 1e-9
    assert np.isclose(rep.redundant, 0.8112781244591328, atol=1e-12)
    # report properties are simple sums
    assert np.isclose(rep.total, rep.classical + rep.nonclassical + rep.redundant)
    assert np.isclose(rep.compression_qubits, rep.classical + rep.nonclassical)
    assert np.isclose(rep.classical_replaceable_bits, rep.classical)
    assert np.isclose(rep.teleport_ebits, rep.nonclassical)


def test_entropy_report_sums_to_average_entropy():
    rng = np.random.default_rng(33)
    for trial in range(10):
        blocks = random_blocks(rng, max_total=9)
        n = int(rng.integers(2, 5))
        built = build_family(rng, blocks, n)
        pw = rng.dirichlet([3.0] * n)
        rep = entropy_report(decompose(state_family(built["states"], weights=pw)))
        avg = sum(p * s for p, s in zip(pw, built["states"]))
        assert abs(rep.total - von_neumann_entropy(avg)) <= 1e-7, f"trial {trial}"
        assert np.isclose(sum(b.weight for b in rep.per_block), 1.0, atol=1e-9)


def test_entropy_report_matches_per_state_loop():
    rng = np.random.default_rng(35)
    decs = [
        decompose(build_family(rng, [(2, 2), (1, 3)], 4)["states"]),
        decompose(build_family(rng, [(3, 1), (1, 2), (1, 1)], 60, pad_to=9)["states"]),
        decompose(zero_weight_block_states(rng)),
    ]
    decs.append(tensor_structure(decs[0], decs[2]))
    for decomp in decs:
        n = len(decomp.family)
        weighted = decompose(state_family(decomp.family.mats(), weights=rng.dirichlet([2.0] * n)))
        for d in (decomp, weighted):
            got, want = entropy_report(d), loop_entropy_report(d)
            for name in ("classical", "nonclassical", "redundant"):
                assert abs(getattr(got, name) - getattr(want, name)) <= 1e-14, name
            for x, y in zip(got.per_block, want.per_block, strict=True):
                assert x.weight == y.weight and x.red_bits == y.red_bits
                assert abs(x.info_bits - y.info_bits) <= 1e-14


def test_entropy_report_additive_under_tensor():
    rng = np.random.default_rng(34)
    for trial in range(6):
        a_built = build_family(rng, random_blocks(rng, max_total=4), 2)
        b_built = build_family(rng, random_blocks(rng, max_total=4), 2)
        da = decompose(a_built["states"])
        db = decompose(b_built["states"])
        dt = tensor_structure(da, db)
        ra, rb, rt = entropy_report(da), entropy_report(db), entropy_report(dt)
        assert abs(rt.classical - (ra.classical + rb.classical)) <= 1e-6
        assert abs(rt.nonclassical - (ra.nonclassical + rb.nonclassical)) <= 1e-6
        assert abs(rt.redundant - (ra.redundant + rb.redundant)) <= 1e-6
        assert abs(rt.total - (ra.total + rb.total)) <= 1e-6


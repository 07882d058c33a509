import dataclasses

import numpy as np
import pytest

from kidecomp import (
    DecomposedFamily,
    Structure,
    Tolerances,
    check_maximal,
    coherence_pairing,
    decompose,
    decompositions_equivalent,
    density_matrix,
    difference_split,
    family_average,
    state_family,
    structures_equivalent,
    tensor_structure,
)
from kidecomp import algebra, structure
from kidecomp.exceptions import (
    DimensionMismatch,
    MaximalityCheckFailed,
    NotHermitian,
    StatesIdentical,
    ValidationError,
    ZeroOffBlock,
    ZeroOperator,
)

import noise_band
from helpers import (
    CLASSICAL_64,
    ENVELOPE_64,
    build_family,
    haar_unitary,
    hand_decomp,
    loop_block_matrix,
    loop_max_residual,
    loop_maximality_violations,
    loop_tensor_structure,
    random_blocks,
    random_density,
    random_pure,
    recovery_corpus,
    split_decomp_identical,
    split_decomp_identical_pair,
    trivial_decomp_of,
    weights_match,
    zero_weight_block_states,
)


PADDED_64 = [(5, 3), (4, 3), (3, 2), (2, 3), (1, 4), (1, 2), (2, 2)]  # 49 dims


def plus_minus():
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    m = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return p, m


def test_decompose_classical_overlapping_pair():
    # two classical states sharing the middle outcome: three 1x1 blocks
    fam = state_family([np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.5, 0.5])])
    dec = decompose(fam)
    assert dec.structure.blocks == ((1, 1), (1, 1), (1, 1))
    assert np.allclose(dec.weights, [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], atol=1e-9)
    assert check_maximal(dec).reassembly_residual < 1e-10


def test_decompose_bb84_single_block():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    plus, minus = plus_minus()
    dec = decompose(state_family([zero, one, plus, minus]))
    assert dec.structure.blocks == ((2, 1),)
    assert np.allclose(dec.weights, np.ones((4, 1)), atol=1e-9)
    assert check_maximal(dec).reassembly_residual < 1e-12


def test_decompose_identical_pair_is_pure_redundancy():
    rho = np.diag([0.75, 0.25, 0.0, 0.0]).astype(complex)
    dec = decompose(state_family([rho, rho]))
    assert dec.structure.blocks == ((1, 2),)
    assert dec.support.shape == (4, 2)
    assert np.allclose(dec.red_spectra[0], [0.75, 0.25], atol=1e-12)
    assert check_maximal(dec).reassembly_residual < 1e-12


def test_decompose_single_state():
    rng = np.random.default_rng(50)
    rho = random_density(rng, 4)
    dec = decompose(state_family([rho]))
    assert dec.structure.blocks == ((1, 4),)
    w = np.linalg.eigvalsh(rho)[::-1]
    assert np.allclose(dec.red_spectra[0], w, atol=1e-10)


def test_decompose_orthogonal_pure_pair():
    v = np.zeros((3, 1), dtype=complex)
    a = np.outer([1, 0, 0], [1, 0, 0]).astype(complex)
    b = np.outer([0, 1, 0], [0, 1, 0]).astype(complex)
    dec = decompose(state_family([a, b]))
    assert dec.structure.blocks == ((1, 1), (1, 1))
    assert dec.support.shape == (3, 2)
    assert np.allclose(sorted(np.asarray(dec.weights)[0]), [0.0, 1.0], atol=1e-12)


def test_decompose_recovers_planted_structure():
    rng = np.random.default_rng(51)
    for trial in range(8):
        blocks = [[(2, 2), (1, 3)], [(3, 1), (1, 1)], [(2, 1), (1, 2), (1, 1)],
                  [(1, 1), (1, 1)], [(2, 3)], [(3, 2)], [(1, 4)], [(2, 2), (2, 1)]][trial]
        built = build_family(rng, blocks, n_states=3)
        dec = decompose(state_family(built["states"]))
        got = sorted(dec.structure.blocks)
        assert got == sorted(built["blocks"]), f"trial {trial}"
        assert weights_match(dec.weights, built["weights"], atol=1e-7)
        rep = check_maximal(dec)
        assert rep.reassembly_residual < 1e-8
        assert rep.ok


def test_decompose_with_support_deficient_family():
    rng = np.random.default_rng(52)
    built = build_family(rng, [(2, 1), (1, 2)], n_states=2, pad_to=7)
    dec = decompose(state_family(built["states"]))
    assert dec.support.shape == (7, 4)
    assert np.allclose(dec.support.conj().T @ dec.support, np.eye(4), atol=1e-10)
    assert sorted(dec.structure.blocks) == [(1, 2), (2, 1)]
    assert check_maximal(dec).reassembly_residual < 1e-8


@pytest.mark.parametrize(
    "seed, blocks, pad_to",
    [
        (8, [(6, 2), (2, 2), (1, 4), (1, 4)], 30),
        (117, [(3, 3), (2, 4), (1, 4), (1, 3)], None),
    ],
)
def test_decompose_recovers_families_whose_commutant_svd_failed(seed, blocks, pad_to):
    # a thin SVD of the stacked commutant system did not converge on these
    # families (d = 24 and a 24-dim support in d = 30) with two BLAS threads
    built = build_family(np.random.default_rng(seed), blocks, 4, pad_to=pad_to)
    dec = decompose(state_family(built["states"]))
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    assert weights_match(dec.weights, built["weights"], atol=1e-7)
    assert check_maximal(dec).reassembly_residual < 1e-7


@pytest.mark.parametrize(
    "seed, blocks, n_states, pad_to",
    [
        (90, [(4, 2), (3, 3), (2, 4), (1, 3), (1, 2), (1, 2)], 4, None),  # d = 32
        (91, [(5, 2), (4, 3), (2, 4), (3, 1), (1, 3), (3, 3), (1, 3)], 4, None),  # d = 48
        (92, ENVELOPE_64, 4, None),  # d = 64
        (93, [(4, 3), (3, 2), (2, 3), (1, 4), (2, 2), (1, 2), (3, 2)], 4, 48),  # 40 of 48 dims
        (94, [(3, 2), (2, 3), (2, 2), (1, 2), (1, 4), (1, 2)], 60, None),  # d = 24, 60 states
        (92, CLASSICAL_64, 60, None),  # d = 64, 60 states
        (92, ENVELOPE_64, 60, None),  # d = 64, 60 states spanning 60 dimensions
        (97, PADDED_64, 4, 64),  # 49 of 64 dims
        (97, PADDED_64, 60, 64),
    ],
)
def test_decompose_envelope(seed, blocks, n_states, pad_to):
    built = build_family(np.random.default_rng(seed), blocks, n_states, pad_to=pad_to)
    dec = decompose(state_family(built["states"]))
    assert dec.support.shape == (built["dim"], built["planted_dim"])
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    assert weights_match(dec.weights, built["weights"], atol=1e-7)
    rep = check_maximal(dec)
    assert rep.reassembly_residual <= 1e-7
    assert rep.ok


@pytest.mark.parametrize("blocks", [[(8, 8)], [(4, 16)], [(1, 32), (1, 32)]], ids=["8x8", "4x16", "1x32+1x32"])
def test_decompose_multiplicity_heavy_block(blocks):
    # d = 64 with maximally mixed redundant factors of dimension 8 to 32:
    # every spectral cluster comes from a multiplicity: pass 1 keeps 8
    # clusters of 8, 4 of 16 or 2 of 32 (each case about 1.5 s with
    # check_maximal on 2 vCPUs; (2, 32) and (1, 64) are in the d = 64
    # decision corpus)
    built = build_family(np.random.default_rng(5), blocks, 4, mixed_red=True)
    dec = decompose(state_family(built["states"]))
    assert dec.support.shape == (64, 64)
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    assert weights_match(dec.weights, built["weights"], atol=1e-7)
    rep = check_maximal(dec)
    assert rep.reassembly_residual <= 1e-7
    assert rep.ok


def merged_classical(blocks, weights):
    """The finest blocks and weights of an equal-weight family: its d_info = 1
    blocks merge into one, whose weight is the sum of theirs."""
    classical = [l for l, (a, _) in enumerate(blocks) if a == 1]
    rest = [l for l in range(len(blocks)) if l not in classical]
    merged = [blocks[l] for l in rest] + [(1, sum(blocks[l][1] for l in classical))]
    return merged, np.column_stack([weights[:, rest], weights[:, classical].sum(axis=1)])


@pytest.mark.parametrize(
    "seed, n_states, options",
    [
        (95, 4, {"red_rank": 1}),  # a 20-dim support of (d_info, 1) blocks
        (95, 60, {"red_rank": 1}),
        (96, 4, {"equal_weights": True}),  # the d_info = 1 blocks merge into (1, 8)
        (96, 60, {"equal_weights": True}),
        (98, 4, {"mixed_red": True}),  # maximally mixed redundant factors: pass 1 is non-abelian
        # the same with 60 states: each cluster pair compresses to one row
        (98, 60, {"mixed_red": True}),
    ],
)
def test_decompose_envelope_variants(seed, n_states, options):
    built = build_family(np.random.default_rng(seed), ENVELOPE_64, n_states, **options)
    want_blocks, want_weights = built["blocks"], built["weights"]
    if options.get("red_rank") == 1:
        want_blocks = [(a, 1) for a, _ in want_blocks]
    if options.get("equal_weights"):
        want_blocks, want_weights = merged_classical(want_blocks, want_weights)
    dec = decompose(state_family(built["states"]))
    assert dec.support.shape == (64, sum(a * b for a, b in want_blocks))
    assert sorted(dec.structure.blocks) == sorted(want_blocks)
    assert weights_match(dec.weights, want_weights, atol=1e-7)
    assert check_maximal(dec).ok


@pytest.mark.parametrize("seed", range(20))
def test_decompose_classical_sixty_states(seed):
    # all-classical shape of a family that once failed its certificate with
    # 60 states (reassembly residual 2.3e-6)
    built = build_family(np.random.default_rng(seed), [(1, 2), (1, 3), (1, 1), (1, 2)], 60)
    dec = decompose(state_family(built["states"]))
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    assert weights_match(dec.weights, built["weights"], atol=1e-7)
    assert check_maximal(dec).ok


def test_decompose_lapack_calls_do_not_grow_with_family_size(monkeypatch):
    # per-member work is stacked, so 12 and 60 states make the same eigen calls
    built = build_family(np.random.default_rng(95), [(3, 2), (2, 1), (1, 3), (1, 1)], 60, pad_to=16)
    counts = {}
    for name in ("eigh", "eigvalsh"):

        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def calls(states):
        counts.update(eigh=0, eigvalsh=0)
        decompose(states)
        return dict(counts)

    few = calls(built["states"][:12])
    assert few["eigh"] > 0 and few["eigvalsh"] > 0
    assert calls(built["states"]) == few


def count_calls(monkeypatch, names, modules=(algebra, structure)):
    """Count the calls of the named functions of `kidecomp.algebra`, wherever
    the modules bind them; a name that algebra does not define fails, so a
    count of zero cannot pass for a deleted function."""
    calls = dict.fromkeys(names, 0)
    for name in calls:
        assert callable(getattr(algebra, name, None)), f"kidecomp.algebra defines no {name}"

        def counted(*args, _real=getattr(algebra, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_decompose_makes_one_commutant_solve_per_isotypic_pass(monkeypatch):
    # the d = 64 envelope family; the copies come aligned out of
    # isotypic_decompose, so no intertwiner solve aligns or groups them, and
    # the certificate makes the third solve; every solve is read in its
    # frame, so no ambient basis is built
    built = build_family(np.random.default_rng(92), ENVELOPE_64, 4)
    calls = count_calls(monkeypatch, ("_commutant_basis", "_ambient_commutant", "intertwiner_space"))
    dec = decompose(built["states"])
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    assert calls == {"_commutant_basis": 3, "_ambient_commutant": 0, "intertwiner_space": 0}


@pytest.mark.parametrize("shape", [ENVELOPE_64, CLASSICAL_64], ids=["envelope", "classical"])
def test_check_maximal_makes_one_commutant_solve(monkeypatch, shape):
    # conditions (ii) and (iii) of all blocks come from one solve, counted
    # on its frame basis
    dec = decompose(build_family(np.random.default_rng(92), shape, 4)["states"])
    calls = count_calls(monkeypatch, ("_commutant_basis", "_ambient_commutant"))
    assert check_maximal(dec).ok
    assert calls == {"_commutant_basis": 1, "_ambient_commutant": 0}


def test_second_pass_runs_in_the_piece_frame(monkeypatch):
    # the rescaled family is exactly block diagonal over the pass-1 simple
    # pieces, one block per piece, so pass 2 solves per pair of pieces
    built = build_family(np.random.default_rng(92), ENVELOPE_64, 4)
    passes = []
    real = structure.isotypic_decompose

    def recorded(gens, seed=0, tol=Tolerances()):
        passes.append((np.asarray(gens), real(gens, seed=seed, tol=tol)))
        return passes[-1][1]

    monkeypatch.setattr(structure, "isotypic_decompose", recorded)
    dec = decompose(built["states"])
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    (_, first), (rescaled, _) = passes
    pieces = [c.simple_dim for c in first.components for _ in c.submodule_bases]
    assert len(pieces) == sum(d_red for _, d_red in built["blocks"])
    assert np.diff(algebra._diagonal_blocks(rescaled)).tolist() == pieces


def test_reassembly_residual_matches_reassemble_loop():
    rng = np.random.default_rng(96)
    decs = [
        trivial_decomp_of([np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]),
        split_decomp_identical_pair(),
    ]
    for blocks, n, pad in (([(2, 2), (1, 3)], 3, None), ([(2, 1), (1, 2)], 5, 7), ([(2, 2), (1, 2), (1, 1)], 60, 12)):
        decs.append(decompose(build_family(rng, blocks, n, pad_to=pad)["states"]))
    decs.append(decompose(zero_weight_block_states(rng)))
    assert any(None in row for row in decs[-1].info_states)
    for dec in decs:
        assert abs(check_maximal(dec).reassembly_residual - loop_max_residual(dec)) <= 1e-14
        for s in range(len(dec.family)):
            assert np.abs(dec.block_matrix(s) - loop_block_matrix(dec, s)).max() <= 1e-14


def test_block_matrix_builds_only_its_member(monkeypatch):
    dec = decompose(build_family(np.random.default_rng(97), [(2, 2), (1, 3)], 5)["states"])
    built = []
    real = structure._block_matrices
    monkeypatch.setattr(structure, "_block_matrices", lambda *args: built.append(real(*args)) or built[-1])
    for s in range(5):
        assert np.abs(dec.block_matrix(s) - loop_block_matrix(dec, s)).max() <= 1e-14
        assert np.abs(dec.reassemble(s) - dec.family.mats()[s]).max() <= 1e-12
    assert [b.shape[0] for b in built] == [1] * 10


@pytest.mark.parametrize("s", [-1, 5, 6])
def test_block_matrix_rejects_a_member_out_of_range(s):
    dec = decompose(build_family(np.random.default_rng(97), [(2, 2), (1, 3)], 5)["states"])
    with pytest.raises(DimensionMismatch, match=f"member {s} out of range for 5 members"):
        dec.block_matrix(s)
    with pytest.raises(DimensionMismatch, match=f"member {s} out of range for 5 members"):
        dec.reassemble(s)


def test_decompose_classical_sectors_with_small_red_eigenvalues():
    # eight d_info = 1 blocks: after the first pass every class is rescaled
    # by 1 / c_m; roundoff between classes, amplified that way, once left
    # the second pass's commutant solve near its rank floor, and this family
    # failed its certificate
    blocks = [(1, 4), (1, 4), (1, 4), (1, 3), (1, 3), (1, 2), (1, 2), (1, 2)]
    built = build_family(np.random.default_rng(13), blocks, 4)
    dec = decompose(state_family(built["states"]))
    assert sorted(dec.structure.blocks) == sorted(blocks)
    assert check_maximal(dec).reassembly_residual <= 1e-7


def light_block_family(rng, weight, n_states=3):
    """A (3, 2) block plus a (2, 2) block whose weight in state s is weight * (s + 1) / n."""
    u = haar_unitary(rng, 10)
    red_heavy, red_light = random_density(rng, 2), random_density(rng, 2)
    states = []
    for s in range(n_states):
        w = weight * (s + 1) / n_states
        m = np.zeros((10, 10), dtype=complex)
        m[:6, :6] = (1.0 - w) * np.kron(random_density(rng, 3), red_heavy)
        m[6:, 6:] = w * np.kron(random_density(rng, 2), red_light)
        states.append(u @ m @ u.conj().T)
    return states


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_weight_boundary(seed):
    # a block of weight 1e-4 is recovered; one of weight 1e-8 holds data
    # accurate only to about eps / 1e-8, far coarser than tol_rank, and is
    # refused rather than certified with a wrong shape
    dec = decompose(light_block_family(np.random.default_rng(seed), 1e-4))
    assert sorted(dec.structure.blocks) == [(2, 2), (3, 2)]
    assert check_maximal(dec).ok
    with pytest.raises(MaximalityCheckFailed, match=r"\('i', 1\)"):
        decompose(light_block_family(np.random.default_rng(seed), 1e-8))


def test_decompose_rejects_state_leaking_out_of_average_support():
    # with tol_rank = 0.1 the average diag(0.95, 0.05) has a 1-dim support
    fam = [np.diag([1.0, 0.0]), np.diag([0.9, 0.1])]
    with pytest.raises(ValidationError, match="state 1 leaks 1.000e-01"):
        decompose(fam, tol=Tolerances(tol_rank=0.1))


def test_decompose_handles_zero_weight_blocks():
    # first state misses the second block entirely
    dec = decompose(state_family(zero_weight_block_states(np.random.default_rng(53))))
    assert check_maximal(dec).reassembly_residual < 1e-8
    w = np.asarray(dec.weights)
    assert np.isclose(w[0].max(), 1.0, atol=1e-9)
    assert np.isclose(w[0].min(), 0.0, atol=1e-9)
    zero_slot = int(np.argmin(w[0]))
    assert dec.info_states[0][zero_slot] is None


def test_decompose_seed_stability():
    rng = np.random.default_rng(54)
    built = build_family(rng, [(2, 2), (1, 3)], n_states=3)
    fam = state_family(built["states"])
    decs = [decompose(fam, seed=s) for s in (0, 1, 5, 11, 12345)]
    for other in decs[1:]:
        assert decs[0].structure.blocks == other.structure.blocks
        assert structures_equivalent(decs[0].structure, other.structure,
                                     connector=other.support.conj().T @ decs[0].support)
        assert decompositions_equivalent(decs[0], other)


def test_structure_validate_and_matrix_units():
    rng = np.random.default_rng(55)
    built = build_family(rng, [(2, 1), (1, 2)], n_states=2)
    dec = decompose(state_family(built["states"]))
    st = dec.structure
    assert st.validate() < 1e-9
    with pytest.raises(DimensionMismatch):
        st.matrix_unit(0, 0, 5)
    # a block index past the end, or negative, names no block
    for l in (len(st.blocks), -1):
        with pytest.raises(DimensionMismatch):
            st.matrix_unit(l, 0, 0)
    # unit (l, a, b) maps like |a><b| on the info factor
    l = next(i for i, (di, _) in enumerate(st.blocks) if di == 2)
    u01 = st.matrix_unit(l, 0, 1)
    u10 = st.matrix_unit(l, 1, 0)
    assert np.allclose(u01.conj().T, u10, atol=1e-12)


@pytest.mark.parametrize("l", [-1, 2, 5])
def test_structure_block_methods_reject_an_index_out_of_range(l):
    st = Structure(3, ((1, 1), (2, 1)), np.eye(3, dtype=complex))
    calls = [st.block_offset, st.block_size, st.block_basis, lambda l: st.matrix_unit(l, 0, 0)]
    for call in calls:
        with pytest.raises(DimensionMismatch, match=f"block {l} out of range for 2 blocks"):
            call(l)


def test_structure_validate_rejects():
    rng = np.random.default_rng(56)
    built = build_family(rng, [(2, 2), (1, 3)], n_states=3)
    st = decompose(state_family(built["states"])).structure
    g = st.transform
    with pytest.raises(ValidationError):
        Structure(st.dim, st.blocks, (1 + 1e-6) * g).validate()
    assert Structure(st.dim, st.blocks, (1 + 1e-12) * g).validate() < 1e-9
    with pytest.raises(DimensionMismatch):
        Structure(st.dim, st.blocks, g[:, :-1]).validate()
    with pytest.raises(DimensionMismatch):
        Structure(st.dim, st.blocks[:-1], g).validate()
    with pytest.raises(DimensionMismatch):
        Structure(st.dim, st.blocks + ((0, 2),), g).validate()


def test_family_average_weights_and_support_guard():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    avg = family_average(state_family([a, b], weights=[3.0, 1.0]))
    assert np.allclose(avg.mat, np.diag([0.75, 0.25]), atol=1e-12)
    # a tiny-weight state whose support the average loses to rank cutoff
    leaky = state_family(
        [np.diag([1.0, 0.0]), np.diag([1.0 - 1e-6, 1e-6])], weights=[1.0 - 1e-4, 1e-4]
    )
    with pytest.raises(ValidationError):
        family_average(leaky)


def test_difference_split_sign_conditions():
    rng = np.random.default_rng(56)
    for trial in range(20):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        rho2 = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        res = difference_split(rho, rho2)
        vp, vn = res.basis_pos, res.basis_neg
        assert vp.shape[1] >= 1 and vn.shape[1] >= 1
        # the two bases are orthonormal, orthogonal, and exhaust the joint support
        joint = np.hstack([vp, vn])
        assert np.allclose(joint.conj().T @ joint, np.eye(joint.shape[1]), atol=1e-9)
        assert joint.shape[1] == np.linalg.matrix_rank(rho + rho2, tol=1e-9)
        wpos = np.linalg.eigvalsh(vp.conj().T @ res.witness @ vp)
        wneg = np.linalg.eigvalsh(vn.conj().T @ res.witness @ vn)
        assert wpos.min() > -1e-10
        assert wneg.max() < 1e-10


def test_difference_split_degenerate_inputs():
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(StatesIdentical):
        difference_split(rho, 2.0 * rho)  # same state after normalization
    with pytest.raises(ZeroOperator):
        difference_split(rho, np.zeros((2, 2)))


def test_raw_state_inputs_are_checked_where_they_enter():
    # the hermiticity and PSD checks of density_matrix, with any trace
    sigma = np.diag([0.2, 0.3, 0.5])
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        difference_split(np.diag([2.0, -1.0, 0.0]), sigma)
    with pytest.raises(NotHermitian, match="hermiticity defect 5.657e-01"):
        difference_split(np.diag([0.2, 0.8]), [[0.7, 0.4], [0.0, 0.3]])
    b1, b2 = np.eye(2)[:, :1], np.eye(2)[:, 1:]
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        coherence_pairing([[0.5, 0.9], [0.9, 0.5]], b1, b2)
    # the trace is free: a scaled state passes both checks
    assert difference_split(3.0 * np.diag([0.7, 0.3]), sigma[:2, :2]).basis_pos.shape == (2, 1)
    assert coherence_pairing(2.0 * np.full((2, 2), 0.5), b1, b2).w.shape == (2, 2)


@pytest.mark.parametrize("eps", [1e-8, 1e-6])
@pytest.mark.parametrize("seed", range(5))
def test_noise_above_the_rank_floor_gives_the_trivial_structure(seed, eps):
    # a slice of the noise band (tests/noise_band.py): the noisy members
    # generate the full matrix algebra, so one (20, 1) block comes back
    assert noise_band.outcome(seed, eps) == "trivial"


def coherent_two_block_state(rng, d1, d2, extra=0):
    """Random state on C^(d1+d2+extra) with nonzero coherence between the
    first two subspace slots."""
    d = d1 + d2 + extra
    n = min(d1, d2)
    vecs = []
    for k in range(n):
        v = np.zeros(d, dtype=complex)
        v[:d1] = random_pure(rng, d1)
        v[d1 : d1 + d2] = random_pure(rng, d2)
        v /= np.linalg.norm(v)
        vecs.append(v)
    probs = rng.dirichlet([1.5] * n)
    rho = sum(p * np.outer(v, v.conj()) for p, v in zip(probs, vecs))
    mix = random_density(rng, d)
    rho = 0.85 * rho + 0.15 * mix
    return rho / np.trace(rho).real


def test_coherence_pairing_identities():
    rng = np.random.default_rng(57)
    for trial in range(15):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        extra = int(rng.integers(0, 3))
        d = d1 + d2 + extra
        rho = coherent_two_block_state(rng, d1, d2, extra)
        b1 = np.zeros((d, d1), dtype=complex)
        b1[:d1] = np.eye(d1)
        b2 = np.zeros((d, d2), dtype=complex)
        b2[d1 : d1 + d2] = np.eye(d2)
        pr = coherence_pairing(rho, b1, b2)
        p1 = b1 @ b1.conj().T
        p2 = b2 @ b2.conj().T
        off = p2 @ rho @ p1
        o = off + off.conj().T
        # polar data reconstructs the off-diagonal part
        assert np.linalg.norm(pr.w @ pr.n + pr.n @ pr.w.conj().T - o) < 1e-8
        # the +/- projectors are exact orthogonal projections
        for p in (pr.p_plus, pr.p_minus):
            assert np.linalg.norm(p @ p - p) < 1e-9
            assert np.linalg.norm(p - p.conj().T) < 1e-9
        assert np.linalg.norm(pr.p_plus @ pr.p_minus) < 1e-9
        # the squared-difference identity for the paired-part observable
        sq = scipy_sqrtm_psd(pr.n)
        plus = pr.p_plus @ sq @ pr.p_plus
        minus = pr.p_minus @ sq @ pr.p_minus
        assert np.linalg.norm(4.0 * (plus @ plus - minus @ minus) - o) < 1e-8
        # paired bases are isometries inside their slots
        for k, b in ((pr.k1_basis, b1), (pr.k2_basis, b2)):
            if k.shape[1]:
                assert np.allclose(k.conj().T @ k, np.eye(k.shape[1]), atol=1e-9)
                leak = k - b @ (b.conj().T @ k)
                assert np.linalg.norm(leak) < 1e-8


def scipy_sqrtm_psd(n):
    w, v = np.linalg.eigh(0.5 * (n + n.conj().T))
    return (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T


def test_coherence_pairing_rejects_zero_offblock():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    b1 = np.zeros((4, 2), dtype=complex)
    b1[:2] = np.eye(2)
    b2 = np.zeros((4, 2), dtype=complex)
    b2[2:] = np.eye(2)
    with pytest.raises(ZeroOffBlock):
        coherence_pairing(rho, b1, b2)


def test_decompose_orders_known_chain():
    # identical pair < classical pair < conjugate-basis quartet
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert decompose(state_family([rho, rho])).structure.blocks == ((1, 2),)
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert decompose(state_family([a, b])).structure.blocks == ((1, 1), (1, 1))
    plus, minus = plus_minus()
    assert decompose(state_family([a, b, plus, minus])).structure.blocks == ((2, 1),)


def one_member_entries(weights):
    """_build_decomposition entries for a one-member family: one (1, 1)
    block per weight, on the standard basis vectors in the given order."""
    d = len(weights)
    one = density_matrix(np.eye(1))
    return [
        {"d_info": 1, "d_red": 1, "iso": np.eye(d, dtype=complex)[:, [k]], "weights": np.array([w]),
         "live": np.array([True]), "info": [one], "red": one, "spectrum": [1.0]}
        for k, w in enumerate(weights)
    ]


@pytest.mark.parametrize("direction", [np.inf, -np.inf])
def test_block_order_does_not_follow_a_one_ulp_tie(direction):
    fam = state_family([np.diag([0.5, 0.5])])
    sup = np.eye(2, dtype=complex)
    dec = structure._build_decomposition(fam, sup, one_member_entries([0.5, np.nextafter(0.5, direction)]))
    # the tie keeps the input order: block 0 is the first entry's basis vector
    assert np.array_equal(dec.structure.transform, np.eye(2))
    assert dec.weights[0, 0] == 0.5


def test_check_maximal_flags_coarsened_structure():
    for diagonals in (([1.0, 0.0], [0.0, 1.0]), ([0.7, 0.3], [0.2, 0.8])):
        coarse = trivial_decomp_of([np.diag(x).astype(complex) for x in diagonals])
        rep = check_maximal(coarse)
        assert not rep.ok
        assert rep.violated == (("ii", 0),)
        assert rep.reassembly_residual == 0.0


def test_check_maximal_flags_split_structure():
    split = split_decomp_identical_pair()
    rep = check_maximal(split)
    assert not rep.ok
    assert rep.violated == (("iii", 0, 1),)
    assert rep.reassembly_residual == 0.0


def certificate_cases():
    """Decompositions whose certificate holds or fails on (ii) and (iii) only."""
    cases = [("corpus", dec) for _, dec in recovery_corpus()[0]]
    rng = np.random.default_rng(2028)
    for _ in range(12):
        blocks = random_blocks(rng, max_total=8, max_factor=3)
        cases.append(("coarse", trivial_decomp_of(build_family(rng, blocks, 3)["states"])))
    for diagonals in (([1.0, 0.0], [0.0, 1.0]), ([0.7, 0.3], [0.2, 0.8])):
        cases.append(("coarse", trivial_decomp_of([np.diag(x).astype(complex) for x in diagonals])))
    cases += [("split", split_decomp_identical_pair(float(p))) for p in np.linspace(0.55, 0.95, 10)]
    for shape in (ENVELOPE_64, CLASSICAL_64):
        cases.append(("d = 64", decompose(build_family(np.random.default_rng(92), shape, 4)["states"])))
    return cases


def diagonal_infos(*columns):
    """Stacks of diagonal information states, one column of entries each."""
    return np.stack([np.diag(c) for c in np.array(columns, dtype=complex).T])


def test_check_maximal_matches_the_per_block_and_per_pair_reference():
    for name, dec in certificate_cases():
        rep = check_maximal(dec)
        assert rep.reassembly_residual <= 1e-7, name
        assert rep.violated == loop_maximality_violations(dec), name
    x, c = np.array([0.2, 0.7, 0.4]), np.array([0.1, 0.2, 0.15])
    reducible, one = diagonal_infos(x, 1.0 - x), np.ones((3, 1, 1))
    wants = [
        # an identical triple split three ways: every pair mergeable, in order
        (split_decomp_identical([0.5, 0.3, 0.2], n_states=3), (("iii", 0, 1), ("iii", 0, 2), ("iii", 1, 2))),
        # a reducible block (exactly diagonal, so the solve splits it
        # further) and two classical blocks whose normalized weights agree
        (hand_decomp(np.stack([1.0 - 3.0 * c, 2.0 * c, c], axis=1), [reducible, one, one]), (("ii", 0), ("iii", 1, 2))),
        # reducible blocks of d_info 2 and 3 with a map from the first into
        # the second, which (iii) must not report
        (hand_decomp(np.full((3, 2), 0.5), [reducible, diagonal_infos(x, 1.0 - x, 0.0 * x)]), (("ii", 0), ("ii", 1))),
    ]
    for dec, want in wants:
        rep = check_maximal(dec)
        assert rep.reassembly_residual == 0.0
        assert rep.violated == loop_maximality_violations(dec) == want
    direct_sum = diagonal_infos(x, 1.0 - x, x, 1.0 - x, 0.0 * x)
    maps = algebra._ambient_commutant(direct_sum, Tolerances())[:, 2:, :2]
    assert np.abs(maps).max() > 0.5


def test_check_maximal_flags_a_global_reassembly_failure():
    dec = decompose(build_family(np.random.default_rng(0), [(2, 2), (1, 3)], 4)["states"])
    weights = np.array(dec.weights)
    weights[0] *= 1.01
    rep = check_maximal(dataclasses.replace(dec, weights=weights))
    assert not rep.ok
    assert rep.violated[0] == ("i",)
    assert ("i", 0) in rep.violated
    assert Tolerances.CERTIFICATE < rep.reassembly_residual < 1e-2


def test_check_maximal_passes_on_decompose_output():
    rng = np.random.default_rng(59)
    for trial in range(5):
        built = build_family(rng, [(2, 1), (1, 2)] if trial % 2 else [(1, 1), (2, 2)], 3)
        rep = check_maximal(decompose(state_family(built["states"])))
        assert rep.ok
        assert rep.violated == ()
        assert rep.reassembly_residual < 1e-8


def test_structures_equivalent_block_permutation():
    rng = np.random.default_rng(61)
    built = build_family(rng, [(2, 1), (1, 2)], 2)
    dec = decompose(state_family(built["states"]))
    st = dec.structure
    # permute the two blocks by hand
    sizes = [di * dr for di, dr in st.blocks]
    perm = np.zeros((st.dim, st.dim))
    perm[: sizes[1], sizes[0] :] = np.eye(sizes[1])
    perm[sizes[1] :, : sizes[0]] = np.eye(sizes[0])
    swapped = Structure(st.dim, (st.blocks[1], st.blocks[0]), perm @ st.transform)
    assert structures_equivalent(st, swapped)
    # a genuinely different shape is not equivalent
    other = Structure(st.dim, ((4, 1),), np.eye(4, dtype=complex))
    assert not structures_equivalent(st, other)
    # a connector must map the space of `a` to itself
    with pytest.raises(DimensionMismatch):
        structures_equivalent(st, swapped, connector=np.eye(st.dim - 1))


def test_structures_equivalent_rejects_rotated_info_frame():
    # rotating the info factor against the red factor breaks equivalence
    rng = np.random.default_rng(62)
    built = build_family(rng, [(2, 2)], 3)
    dec = decompose(state_family(built["states"]))
    st = dec.structure
    rot = np.kron(haar_unitary(rng, 2), np.eye(2)) @ st.transform
    still = Structure(st.dim, st.blocks, rot)
    # info-side rotation keeps the same block/tensor frame
    assert structures_equivalent(st, still)
    # but entangling info with red does not
    tangled = Structure(st.dim, st.blocks, haar_unitary(rng, 4) @ st.transform)
    assert not structures_equivalent(st, tangled)


def test_tensor_structure_matches_direct_decompose():
    rng = np.random.default_rng(63)
    for trial in range(3):
        a = build_family(rng, [(1, 1), (1, 1)] if trial == 0 else [(2, 1)], 2)
        b = build_family(rng, [(1, 2)] if trial < 2 else [(1, 1), (1, 1)], 2)
        da = decompose(state_family(a["states"]))
        db = decompose(state_family(b["states"]))
        # the combined family runs over all pairs, first index major
        prod_states = [np.kron(x, y) for x in a["states"] for y in b["states"]]
        direct = decompose(state_family(prod_states))
        combined = tensor_structure(da, db)
        assert sorted(combined.structure.blocks) == sorted(direct.structure.blocks)
        assert decompositions_equivalent(combined, direct)
        assert check_maximal(combined).reassembly_residual < 1e-8


def test_tensor_structure_matches_pairwise_loop():
    rng = np.random.default_rng(98)
    planted = build_family(rng, [(2, 1), (1, 2)], 3)["states"]
    padded = build_family(rng, [(1, 2), (1, 1)], 2, pad_to=5)["states"]
    decs = [
        decompose(planted),
        decompose(state_family(build_family(rng, [(2, 2)], 2)["states"], weights=[0.3, 0.7])),
        decompose(padded),
        decompose(zero_weight_block_states(rng)),
    ]
    for a in decs:
        for b in decs:
            got, want = tensor_structure(a, b), loop_tensor_structure(a, b)
            assert got.structure.blocks == want.structure.blocks
            assert np.array_equal(got.structure.transform, want.structure.transform)
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.support, want.support)
            assert np.array_equal(got.family.effective_weights(), want.family.effective_weights())
            assert np.abs(got.family.mats() - want.family.mats()).max() <= 1e-14
            for x, y in zip(got.red_states, want.red_states):
                assert np.abs(x.mat - y.mat).max() <= 1e-14
            for row_got, row_want in zip(got.info_states, want.info_states):
                assert [x is None for x in row_got] == [y is None for y in row_want]
                for x, y in zip(row_got, row_want):
                    assert x is None or np.abs(x.mat - y.mat).max() <= 1e-14
    # the zero-weight block leaves None entries in the product
    assert any(None in row for row in tensor_structure(decs[3], decs[0]).info_states)


def test_tensor_structure_weights_multiply():
    fam_a = state_family([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    rho = np.diag([0.5, 0.5]).astype(complex)
    fam_b = state_family([rho, rho])
    da, db = decompose(fam_a), decompose(fam_b)
    combined = tensor_structure(da, db)
    assert sorted(combined.structure.blocks) == [(1, 2), (1, 2)]
    # four pair states; each sits wholly inside one product block
    w = np.asarray(combined.weights)
    assert w.shape == (4, 2)
    assert np.allclose(np.sort(w, axis=1), np.tile([0.0, 1.0], (4, 1)), atol=1e-10)
    assert np.allclose(w[0], w[1], atol=1e-10)
    assert np.allclose(w[2], w[3], atol=1e-10)
    assert np.allclose(w[0] + w[2], [1.0, 1.0], atol=1e-10)


@pytest.mark.parametrize("name", ["tol_sym", "tol_trace", "tol_psd"])
def test_zero_boundary_tolerance_reaches_no_built_value(name):
    # the family is validated once, at the default tolerances; a zero
    # tol_sym, tol_trace or tol_psd then changes nothing the pipeline builds
    strict = Tolerances(**{name: 0.0})
    states = build_family(np.random.default_rng(23), [(2, 2), (1, 3), (2, 1)], 4)["states"]
    fam = state_family(states)
    base, got = decompose(fam), decompose(fam, tol=strict)
    assert np.array_equal(got.weights, base.weights)
    assert np.array_equal(got.structure.transform, base.structure.transform)
    # difference_split checks its raw inputs, so it takes the validated members
    rho, sigma = fam.mats()[:2]
    split, strict_split = difference_split(rho, sigma), difference_split(rho, sigma, strict)
    assert np.array_equal(strict_split.basis_pos, split.basis_pos)
    pair, strict_pair = tensor_structure(base, base), tensor_structure(base, base, strict)
    assert np.array_equal(strict_pair.weights, pair.weights)
    assert np.array_equal(strict_pair.structure.transform, pair.structure.transform)

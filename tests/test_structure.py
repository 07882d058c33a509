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
    StatesIdentical,
    ValidationError,
    ZeroOffBlock,
    ZeroOperator,
)

from helpers import (
    build_family,
    haar_unitary,
    loop_block_matrix,
    loop_max_residual,
    loop_tensor_structure,
    random_density,
    random_pure,
    split_decomp_identical_pair,
    trivial_decomp_of,
    weights_match,
    zero_weight_block_states,
)


ENVELOPE_64 = [(6, 3), (4, 4), (3, 4), (2, 3), (1, 4), (1, 2), (2, 2), (1, 2)]


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
    assert dec.max_residual() < 1e-10


def test_decompose_bb84_single_block():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    plus, minus = plus_minus()
    dec = decompose(state_family([zero, one, plus, minus]))
    assert dec.structure.blocks == ((2, 1),)
    assert np.allclose(dec.weights, np.ones((4, 1)), atol=1e-9)
    assert dec.max_residual() < 1e-12


def test_decompose_identical_pair_is_pure_redundancy():
    rho = np.diag([0.75, 0.25, 0.0, 0.0]).astype(complex)
    dec = decompose(state_family([rho, rho]))
    assert dec.structure.blocks == ((1, 2),)
    assert dec.support.shape == (4, 2)
    assert np.allclose(dec.red_spectra[0], [0.75, 0.25], atol=1e-12)
    assert dec.max_residual() < 1e-12


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
        assert dec.max_residual() < 1e-8
        rep = check_maximal(dec)
        assert rep.ok


def test_decompose_with_support_deficient_family():
    rng = np.random.default_rng(52)
    built = build_family(rng, [(2, 1), (1, 2)], n_states=2, pad_to=7)
    dec = decompose(state_family(built["states"]))
    assert dec.support.shape == (7, 4)
    assert np.allclose(dec.support.conj().T @ dec.support, np.eye(4), atol=1e-10)
    assert sorted(dec.structure.blocks) == [(1, 2), (2, 1)]
    assert dec.max_residual() < 1e-8


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
    assert dec.max_residual() < 1e-7


@pytest.mark.parametrize(
    "seed, blocks, n_states, pad_to",
    [
        (90, [(4, 2), (3, 3), (2, 4), (1, 3), (1, 2), (1, 2)], 4, None),  # d = 32
        (91, [(5, 2), (4, 3), (2, 4), (3, 1), (1, 3), (3, 3), (1, 3)], 4, None),  # d = 48
        (92, ENVELOPE_64, 4, None),  # d = 64
        (93, [(4, 3), (3, 2), (2, 3), (1, 4), (2, 2), (1, 2), (3, 2)], 4, 48),  # 40 of 48 dims
        (94, [(3, 2), (2, 3), (2, 2), (1, 2), (1, 4), (1, 2)], 60, None),  # d = 24, 60 states
    ],
)
def test_decompose_envelope(seed, blocks, n_states, pad_to):
    built = build_family(np.random.default_rng(seed), blocks, n_states, pad_to=pad_to)
    dec = decompose(state_family(built["states"]))
    assert dec.support.shape == (built["dim"], built["planted_dim"])
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    assert weights_match(dec.weights, built["weights"], atol=1e-7)
    assert dec.max_residual() <= 1e-7
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


def test_decompose_makes_one_commutant_solve_per_isotypic_pass(monkeypatch):
    # the d = 64 envelope family; the copies come aligned out of
    # isotypic_decompose, so no intertwiner solve aligns or groups them
    built = build_family(np.random.default_rng(92), ENVELOPE_64, 4)
    calls = dict.fromkeys(("_commutant_basis", "_intertwiner_maps", "intertwiner_space"), 0)
    for name in calls:

        def counted(*args, _real=getattr(algebra, name, None), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(algebra, name, counted, raising=False)
        if name != "_commutant_basis":  # check_maximal's own solves stay uncounted
            monkeypatch.setattr(structure, name, counted, raising=False)
    dec = decompose(built["states"])
    assert sorted(dec.structure.blocks) == sorted(built["blocks"])
    assert calls == {"_commutant_basis": 2, "_intertwiner_maps": 0, "intertwiner_space": 0}


def test_max_residual_matches_reassemble_loop():
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
        assert abs(dec.max_residual() - loop_max_residual(dec)) <= 1e-14
        for s in range(len(dec.family)):
            assert np.abs(dec.block_matrix(s) - loop_block_matrix(dec, s)).max() <= 1e-14


def test_decompose_classical_sectors_with_small_red_eigenvalues():
    # eight d_info = 1 blocks: after the first pass every class is rescaled
    # by 1 / c_m; roundoff between classes, amplified that way, once left
    # the second pass's commutant solve near its rank floor, and this family
    # failed its certificate
    blocks = [(1, 4), (1, 4), (1, 4), (1, 3), (1, 3), (1, 2), (1, 2), (1, 2)]
    built = build_family(np.random.default_rng(13), blocks, 4)
    dec = decompose(state_family(built["states"]))
    assert sorted(dec.structure.blocks) == sorted(blocks)
    assert dec.max_residual() <= 1e-7


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
    assert dec.max_residual() < 1e-8
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
    # unit (l, a, b) maps like |a><b| on the info factor
    l = next(i for i, (di, _) in enumerate(st.blocks) if di == 2)
    u01 = st.matrix_unit(l, 0, 1)
    u10 = st.matrix_unit(l, 1, 0)
    assert np.allclose(u01.conj().T, u10, atol=1e-12)


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


def test_check_maximal_flags_coarsened_structure():
    for diagonals in (([1.0, 0.0], [0.0, 1.0]), ([0.7, 0.3], [0.2, 0.8])):
        coarse = trivial_decomp_of([np.diag(x).astype(complex) for x in diagonals])
        assert coarse.max_residual() < 1e-12
        rep = check_maximal(coarse)
        assert not rep.ok
        assert rep.violated == (("ii", 0),)
        assert rep.reassembly_residual == 0.0


def test_check_maximal_flags_split_structure():
    split = split_decomp_identical_pair()
    assert split.max_residual() < 1e-12
    rep = check_maximal(split)
    assert not rep.ok
    assert rep.violated == (("iii", 0, 1),)
    assert rep.reassembly_residual == 0.0


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
        assert combined.max_residual() < 1e-8


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
            for x, y in zip(got.family.states, want.family.states):
                assert np.abs(x.mat - y.mat).max() <= 1e-14
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

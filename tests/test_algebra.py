import numpy as np
import pytest

from kidecomp import (
    commutant_of_family,
    intertwiner_space,
    isotypic_decompose,
    seeded_random_hermitian,
)
from kidecomp import algebra
from kidecomp.algebra import _intertwiners, _spectral_frame
from kidecomp.exceptions import (
    DegenerateSample,
    DimensionMismatch,
    NotInvariant,
    SupportDeficient,
    ValidationError,
)
from kidecomp.linalg import DEFAULT_TOL

from helpers import (
    build_family,
    haar_unitary,
    planted_generators,
    random_density,
    recursive_isotypic_split,
)


def dense_intertwiners(xs, ys):
    """Reference: null space of the full kron system L x_i = y_i L, one SVD."""
    ka, kb = xs[0].shape[0], ys[0].shape[0]
    # row-major vec: vec(y L) = (y (x) I) vec L, vec(L x) = (I (x) x^T) vec L
    rows = [np.kron(y, np.eye(ka)) - np.kron(np.eye(kb), x.T) for x, y in zip(xs, ys)]
    _, s, vh = np.linalg.svd(np.vstack(rows))
    rank = int(np.sum(s > DEFAULT_TOL.tol_rank))
    return list(vh[rank:].conj().reshape(-1, kb, ka))


def assert_same_span(got, want):
    assert len(got) == len(want)
    if not want:
        return
    g = np.array([m.reshape(-1) for m in got]).T
    w = np.array([m.reshape(-1) for m in want]).T
    assert np.allclose(g.conj().T @ g, np.eye(g.shape[1]), atol=1e-10)
    assert np.linalg.norm(g @ g.conj().T - w @ w.conj().T) <= 1e-8


def unit(mats):
    return [m / np.linalg.norm(m) for m in mats]


def test_commutant_dimensions():
    # commutant of the scalars is everything
    full = commutant_of_family([np.eye(3, dtype=complex)])
    assert len(full) == 9
    # commutant of the full matrix algebra is the scalars
    a = seeded_random_hermitian(3, 20)
    b = seeded_random_hermitian(3, 21)
    assert len(commutant_of_family([a, b])) == 1
    # inequivalent generic blocks: one scalar per block
    x = seeded_random_hermitian(2, 22)
    y = seeded_random_hermitian(2, 23)
    z = seeded_random_hermitian(2, 24)
    w = seeded_random_hermitian(2, 25)
    g1 = np.block([[x, np.zeros((2, 2))], [np.zeros((2, 2)), z]])
    g2 = np.block([[y, np.zeros((2, 2))], [np.zeros((2, 2)), w]])
    assert len(commutant_of_family([g1, g2])) == 2


def test_commutant_of_left_factor_is_right_factor():
    rng = np.random.default_rng(30)
    a1 = seeded_random_hermitian(2, 31)
    a2 = seeded_random_hermitian(2, 32)
    gens = [np.kron(a, np.eye(3)) for a in (a1, a2)]
    com = commutant_of_family(gens)
    assert len(com) == 9
    # every commutant element really is of the form I (x) B
    for c in com:
        t = c.reshape(2, 3, 2, 3)
        b = t[0, :, 0, :]
        assert np.allclose(c, np.kron(np.eye(2), b), atol=1e-8)


def test_double_commutant_recovers_algebra_dimension():
    rng = np.random.default_rng(33)
    for trial in range(4):
        u = haar_unitary(rng, 6)
        # planted blocks: generic A on the first 2 dims, B tied across two copies
        a = seeded_random_hermitian(2, 100 + trial)
        b = seeded_random_hermitian(2, 200 + trial)
        m = np.zeros((6, 6), dtype=complex)
        m[:2, :2] = a
        m[2:4, 2:4] = b
        m[4:6, 4:6] = b
        g = u @ m @ u.conj().T
        # the algebra generated by g is spanned by the projectors onto its
        # 4 distinct eigenspaces (a's two, b's two), and the bicommutant
        # returns exactly that algebra
        com = commutant_of_family([g])
        bicom = commutant_of_family(com)
        assert len(bicom) == 4


def trivial_gens():
    return [np.eye(4, dtype=complex)]


def tensor_block_gens():
    # u (A_s (x) I_3) u^dag: one class of simple dimension 2, multiplicity 3
    u = haar_unitary(np.random.default_rng(40), 6)
    return [u @ np.kron(seeded_random_hermitian(2, 300 + s), np.eye(3)) @ u.conj().T for s in range(2)]


def mixed_block_gens():
    # (A_s (x) I_2) (+) B_s with dim-2 A and dim-3 B: classes (2, mult 2), (3, mult 1)
    u = haar_unitary(np.random.default_rng(41), 7)
    gens = []
    for s in range(2):
        m = np.zeros((7, 7), dtype=complex)
        m[:4, :4] = np.kron(seeded_random_hermitian(2, 400 + s), np.eye(2))
        m[4:, 4:] = seeded_random_hermitian(3, 500 + s)
        gens.append(u @ m @ u.conj().T)
    return gens


def inequivalent_pair_gens():
    # two generic inequivalent dim-2 actions
    u = haar_unitary(np.random.default_rng(42), 4)
    gens = []
    for s in range(2):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = seeded_random_hermitian(2, 600 + s)
        m[2:, 2:] = seeded_random_hermitian(2, 700 + s)
        gens.append(u @ m @ u.conj().T)
    return gens


def equivalent_pair_gens():
    # the same action conjugated differently in the two slots
    rng = np.random.default_rng(43)
    u = haar_unitary(rng, 4)
    v = haar_unitary(rng, 2)
    gens = []
    for s in range(2):
        a = seeded_random_hermitian(2, 800 + s)
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = a
        m[2:, 2:] = v @ a @ v.conj().T
        gens.append(u @ m @ u.conj().T)
    return gens


def two_class_gens():
    # (A_s (x) I_2) (+) B_s with dim-2 A and B: classes (2, mult 2), (2, mult 1)
    u = haar_unitary(np.random.default_rng(44), 6)
    gens = []
    for s in range(3):
        m = np.zeros((6, 6), dtype=complex)
        m[:4, :4] = np.kron(seeded_random_hermitian(2, 900 + s), np.eye(2))
        m[4:, 4:] = seeded_random_hermitian(2, 950 + s)
        gens.append(u @ m @ u.conj().T)
    return gens


def test_isotypic_trivial_family():
    # identity only: one class, simple dimension 1, multiplicity d
    dec = isotypic_decompose(trivial_gens())
    assert dec.dim == 4
    assert len(dec.components) == 1
    comp = dec.components[0]
    assert comp.simple_dim == 1
    assert comp.multiplicity == 4
    assert dec.residual_check < 1e-10


def test_isotypic_rejects_generators_spanning_a_proper_subspace():
    # rotated so the missing direction is not a coordinate axis
    u = haar_unitary(np.random.default_rng(11), 4)
    gens = [u @ np.diag(d).astype(complex) @ u.conj().T for d in ([0.5, 0.5, 0, 0], [0.2, 0, 0.8, 0])]
    with pytest.raises(SupportDeficient, match="3-dim subspace of the 4-dim"):
        isotypic_decompose(gens)


def test_isotypic_planted_tensor_block():
    gens = tensor_block_gens()
    dec = isotypic_decompose(gens, seed=0)
    assert [(c.simple_dim, c.multiplicity) for c in dec.components] == [(2, 3)]
    comp = dec.components[0]
    for v in comp.submodule_bases:
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-9)
        # invariance of each submodule
        for g in gens:
            leak = g @ v - v @ (v.conj().T @ g @ v)
            assert np.linalg.norm(leak) < 1e-8


def test_isotypic_mixed_blocks():
    dec = isotypic_decompose(mixed_block_gens(), seed=0)
    shapes = sorted((c.simple_dim, c.multiplicity) for c in dec.components)
    assert shapes == [(2, 2), (3, 1)]
    # component projectors are orthogonal and resolve the identity
    total = np.zeros((7, 7), dtype=complex)
    for c in dec.components:
        p = c.projector()
        assert np.linalg.norm(p @ p - p) < 1e-9
        total += p
    assert np.allclose(total, np.eye(7), atol=1e-9)


def test_isotypic_separates_inequivalent_equal_dims():
    dec = isotypic_decompose(inequivalent_pair_gens(), seed=0)
    shapes = sorted((c.simple_dim, c.multiplicity) for c in dec.components)
    assert shapes == [(2, 1), (2, 1)]


def test_isotypic_merges_equivalent_copies():
    dec = isotypic_decompose(equivalent_pair_gens(), seed=0)
    assert [(c.simple_dim, c.multiplicity) for c in dec.components] == [(2, 2)]


def test_isotypic_seed_invariance_of_shapes():
    gens = two_class_gens()
    shapes = None
    for seed in (0, 1, 2, 7):
        dec = isotypic_decompose(gens, seed=seed)
        got = sorted((c.simple_dim, c.multiplicity) for c in dec.components)
        if shapes is None:
            shapes = got
        assert got == shapes == [(2, 1), (2, 2)]


ISOTYPIC_FIXTURES = [
    trivial_gens,
    tensor_block_gens,
    mixed_block_gens,
    inequivalent_pair_gens,
    equivalent_pair_gens,
    two_class_gens,
]
CLASSICAL_24 = [(1, 4)] * 3 + [(1, 3)] * 2 + [(1, 2)] * 3  # 24 one-dim pieces in 8 classes
MIXED_32 = [(4, 2), (3, 3), (2, 4), (2, 2), (1, 3)]  # d = 32


def planted_cases():
    cases = [(f.__name__, f()) for f in ISOTYPIC_FIXTURES]
    for seed in (1, 2, 3):
        rng = np.random.default_rng([110, seed])
        cases.append((f"classical-24 seed {seed}", planted_generators(rng, CLASSICAL_24, 3)))
        cases.append((f"mixed-32 seed {seed}", planted_generators(rng, MIXED_32, 3)))
        # raw states of a classical family: 24 pairwise inequivalent one-dim pieces
        built = build_family(rng, [(1, 4), (1, 4), (1, 3), (1, 3), (1, 2), (1, 2), (1, 6)], 4)
        cases.append((f"classical states seed {seed}", built["states"]))
        built = build_family(rng, [(3, 2), (2, 3), (2, 2), (2, 1), (1, 4), (1, 2)], 4)
        cases.append((f"mixed states seed {seed}", built["states"]))
    return cases


@pytest.mark.parametrize("name, gens", planted_cases(), ids=lambda x: x if isinstance(x, str) else "")
def test_isotypic_matches_recursive_split(name, gens):
    want = recursive_isotypic_split(gens)
    for seed in (0, 5):
        got = isotypic_decompose(gens, seed=seed).components
        assert sorted((c.simple_dim, c.multiplicity) for c in got) == sorted(
            (cls[0].shape[1], len(cls)) for cls in want
        )
        # the same class projectors, matched one to one
        p_want = [sum(v @ v.conj().T for v in cls) for cls in want]
        dist = np.array([[np.linalg.norm(c.projector() - p) for p in p_want] for c in got])
        assert dist.min(axis=1).max() <= 1e-8
        assert len(set(dist.argmin(axis=1).tolist())) == len(got)
        # copies are aligned: every copy carries the first copy's compression
        for c in got:
            v0 = c.submodule_bases[0]
            for v in c.submodule_bases[1:]:
                for a in gens:
                    assert np.linalg.norm(v.conj().T @ a @ v - v0.conj().T @ a @ v0) <= 1e-8


@pytest.mark.parametrize(
    "gens",
    [f() for f in ISOTYPIC_FIXTURES] + [planted_generators(np.random.default_rng(111), CLASSICAL_24, 3)],
)
def test_isotypic_makes_one_commutant_solve(monkeypatch, gens):
    # one solve whatever the number of simple pieces (2 to 24 here)
    calls = []
    real = algebra._commutant_basis
    monkeypatch.setattr(algebra, "_commutant_basis", lambda mats, tol: calls.append(1) or real(mats, tol))
    isotypic_decompose(gens)
    assert len(calls) == 1


@pytest.mark.parametrize("failing", [2, algebra._RETRY_BUDGET - 1, algebra._RETRY_BUDGET])
def test_isotypic_reseeds_then_raises_degenerate_sample(monkeypatch, failing):
    # an identity draw leaves the reducible space in one piece, which fails
    # the count sum_c m_c^2 = dim commutant; each attempt takes two fresh seeds
    seeds = []
    real = algebra.seeded_random_hermitian

    def draw(d, seed):
        seeds.append(seed)
        return np.eye(d, dtype=complex) if len(seeds) <= 2 * failing else real(d, seed)

    monkeypatch.setattr(algebra, "seeded_random_hermitian", draw)
    if failing == algebra._RETRY_BUDGET:
        with pytest.raises(DegenerateSample):
            isotypic_decompose(two_class_gens(), seed=5)
    else:
        dec = isotypic_decompose(two_class_gens(), seed=5)
        assert sorted((c.simple_dim, c.multiplicity) for c in dec.components) == [(2, 1), (2, 2)]
    attempts = min(failing + 1, algebra._RETRY_BUDGET)
    assert seeds == list(range(5, 5 + 2 * attempts))


def test_intertwiner_space_schur():
    rng = np.random.default_rng(45)
    a1 = seeded_random_hermitian(2, 46)
    a2 = seeded_random_hermitian(2, 47)
    v = haar_unitary(rng, 2)
    gens = []
    for a in (a1, a2):
        m = np.zeros((6, 6), dtype=complex)
        m[:2, :2] = a
        m[2:4, 2:4] = v @ a @ v.conj().T
        m[4:, 4:] = seeded_random_hermitian(2, 48) * np.trace(a).real
        gens.append(m)
    e1 = np.zeros((6, 2)); e1[:2, :2] = np.eye(2)
    e2 = np.zeros((6, 2)); e2[2:4, :2] = np.eye(2)
    e3 = np.zeros((6, 2)); e3[4:, :2] = np.eye(2)
    # equivalent copies: one intertwiner, proportional to the conjugating unitary
    maps = intertwiner_space(gens, e1, e2)
    assert len(maps) == 1
    l = maps[0]
    assert np.allclose(l @ l.conj().T, np.eye(2) / 2.0, atol=1e-8)
    # the intertwiner transports generator 1's compression onto copy 2's
    lhs = l @ (e1.conj().T @ gens[0] @ e1)
    rhs = (e2.conj().T @ gens[0] @ e2) @ l
    assert np.allclose(lhs, rhs, atol=1e-8)
    # inequivalent blocks: no intertwiner
    assert len(intertwiner_space(gens, e1, e3)) == 0


def test_intertwiner_space_requires_invariance():
    gens = [seeded_random_hermitian(4, 49)]
    v = np.zeros((4, 2)); v[:2, :2] = np.eye(2)
    with pytest.raises(NotInvariant):
        intertwiner_space(gens, v, v)


@pytest.mark.parametrize("seed, blocks", [
    (70, [(2, 2), (1, 3), (3, 1), (2, 1)]),  # d = 12
    (71, [(3, 2), (2, 3), (1, 2)]),  # d = 14
    (72, [(2, 2), (2, 2), (1, 4), (1, 2), (1, 2)]),  # d = 16
])
def test_intertwiners_match_dense_solve_on_planted_families(seed, blocks):
    built = build_family(np.random.default_rng(seed), blocks, 4)
    xs = unit(built["states"])
    # the eigenframe of a random family element leaves few unknowns
    _, _, mask = _spectral_frame(np.array(xs), np.array(xs), DEFAULT_TOL)
    assert mask.sum() <= sum(a * b * b for a, b in blocks) < mask.size
    assert_same_span(_intertwiners(xs, xs, DEFAULT_TOL), dense_intertwiners(xs, xs))


def test_intertwiners_match_dense_solve_on_identity_and_redundant_copies():
    eye = [np.eye(5, dtype=complex) / np.sqrt(5)] * 2
    assert len(_intertwiners(eye, eye, DEFAULT_TOL)) == 25
    assert_same_span(_intertwiners(eye, eye, DEFAULT_TOL), dense_intertwiners(eye, eye))
    # info factor tensored with a redundant copy space, each generator listed three times
    u = haar_unitary(np.random.default_rng(73), 8)
    gens = [u @ np.kron(seeded_random_hermitian(2, 74 + s), np.eye(4)) @ u.conj().T for s in range(2)]
    xs = unit(gens * 3)
    got = _intertwiners(xs, xs, DEFAULT_TOL)
    assert len(got) == 16
    assert_same_span(got, dense_intertwiners(xs, xs))


def test_intertwiners_match_dense_solve_on_noisy_identity():
    # identity plus Hermitian noise far below the rank floor: the dense solve
    # keeps every matrix, so the frame must not split the noise-level spread
    # of the random combination's eigenvalues
    eye = np.eye(4, dtype=complex)
    xs = unit([eye + 1e-12 * seeded_random_hermitian(4, 90 + s) for s in range(3)])
    got = _intertwiners(xs, xs, DEFAULT_TOL)
    assert len(got) == 16
    assert_same_span(got, dense_intertwiners(xs, xs))


def test_intertwiners_match_dense_solve_between_blocks():
    rng = np.random.default_rng(75)
    v = haar_unitary(rng, 3)
    xs = unit([seeded_random_hermitian(3, 76 + s) for s in range(3)])
    equivalent = [v @ x @ v.conj().T for x in xs]
    got = _intertwiners(xs, equivalent, DEFAULT_TOL)
    assert len(got) == 1
    assert_same_span(got, dense_intertwiners(xs, equivalent))
    inequivalent = unit([seeded_random_hermitian(3, 80 + s) for s in range(3)])
    assert _intertwiners(xs, inequivalent, DEFAULT_TOL) == []
    assert dense_intertwiners(xs, inequivalent) == []


def test_commutant_of_non_normal_generator():
    # a Jordan block is not Hermitian, so the solve keeps every entry; its
    # commutant is the polynomials in it, of dimension 3
    jordan = np.diag([1.0, 1.0], k=1) + 2.0 * np.eye(3)
    xs = unit([jordan])
    _, _, mask = _spectral_frame(np.array(xs), np.array(xs), DEFAULT_TOL)
    assert mask.all()
    got = _intertwiners(xs, xs, DEFAULT_TOL)
    assert len(got) == 3
    assert_same_span(got, dense_intertwiners(xs, xs))
    assert len(commutant_of_family([jordan])) == 3


def test_stacked_generators_match_a_list_and_raise_its_errors():
    rng = np.random.default_rng(71)
    built = build_family(rng, [(2, 2), (1, 3)], 5)
    stacked = np.stack(built["states"])
    got, want = commutant_of_family(stacked), commutant_of_family(built["states"])
    assert len(got) == len(want) == 5  # diagonal on each redundant factor: 2 + 3
    assert_same_span(got, want)
    bad = stacked.copy()
    bad[3, 0, 1] = np.inf
    for mats in (bad, list(bad)):
        with pytest.raises(ValidationError, match="non-finite"):
            commutant_of_family(mats)
    for mats in (np.ones((2, 3, 2)), list(np.ones((2, 3, 2)))):
        with pytest.raises(DimensionMismatch, match="generator 0 is not square"):
            commutant_of_family(mats)
    with pytest.raises(DimensionMismatch, match="at least one generator"):
        commutant_of_family(np.zeros((0, 3, 3)))

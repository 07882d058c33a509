import re
import tracemalloc

import numpy as np
import pytest

from kidecomp import (
    commutant_of_family,
    decompose,
    intertwiner_space,
    isotypic_decompose,
    seeded_random_hermitian,
)
from kidecomp import algebra
from kidecomp.algebra import _ambient_commutant, _commutant_basis, _spectral_frame
from kidecomp.exceptions import (
    DegenerateSample,
    DimensionMismatch,
    NotInvariant,
    ValidationError,
)
from kidecomp.linalg import DEFAULT_TOL

from helpers import (
    ENVELOPE_64,
    build_family,
    component_projector,
    dense_intertwiners,
    haar_unitary,
    planted_generators,
    random_density,
    recursive_isotypic_split,
)


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


def block_maps(xs, ys):
    """Maps L with L x_i = y_i L: `intertwiner_space` between the two
    summands of the direct sums x_i (+) y_i, one commutant solve."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    eye = np.eye(xs.shape[1] + ys.shape[1])
    return intertwiner_space(block_diagonal(xs, ys), eye[:, : xs.shape[1]], eye[:, xs.shape[1] :])


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
    gens = trivial_gens()
    for v in comp.submodule_bases:
        # invariance of each piece
        for g in gens:
            leak = g @ v - v @ (v.conj().T @ g @ v)
            assert np.linalg.norm(leak) < 1e-10


@pytest.mark.parametrize("diagonals, classes", [
    ([[0.5, 0.5, 0, 0], [0.2, 0, 0.8, 0]], [(1, 1)] * 4),
    ([[1, 0, 0, 0]], [(1, 1), (1, 3)]),
])
def test_isotypic_returns_a_shared_kernel_as_one_class(diagonals, classes):
    # generators that span a proper subspace share the kernel K, on which
    # the algebra acts as 0: K is one class of multiplicity dim K, and
    # rotating keeps K off the coordinate axes
    u = haar_unitary(np.random.default_rng(11), 4)
    gens = np.array([u @ np.diag(d).astype(complex) @ u.conj().T for d in diagonals])
    dec = isotypic_decompose(gens)
    assert sorted((c.simple_dim, c.multiplicity) for c in dec.components) == classes
    kernel = u[:, np.flatnonzero(~np.any(diagonals, axis=0))]
    vanish = [c for c in dec.components if all(np.linalg.norm(gens @ v) <= 1e-12 for v in c.submodule_bases)]
    assert len(vanish) == 1 and vanish[0].multiplicity == kernel.shape[1]
    span = np.hstack(vanish[0].submodule_bases)
    assert np.allclose(span @ span.conj().T, kernel @ kernel.conj().T, atol=1e-12)


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
        p = component_projector(c)
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
        dist = np.array([[np.linalg.norm(component_projector(c) - p) for p in p_want] for c in got])
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
    # one solve whatever the number of simple pieces (2 to 24 here), read
    # in its frame: no ambient basis is built
    calls = []
    for name in ("_commutant_basis", "_ambient_commutant"):
        real = getattr(algebra, name)
        monkeypatch.setattr(algebra, name, lambda mats, tol, _real=real, _name=name: calls.append(_name) or _real(mats, tol))
    isotypic_decompose(gens)
    assert calls == ["_commutant_basis"]


def test_isotypic_builds_no_dense_commutant_stack():
    # two 16-fold multiplicities on C^32, unscrambled: the solve splits into
    # 512 one-entry systems, and the commutant has 2 * 16^2 = 512 elements,
    # whose dense z x k x k stack is 8 MB; the split reads the solve's form
    fam = build_family(np.random.default_rng(5), [(1, 16), (1, 16)], 4, scramble=False, mixed_red=True)
    gens = np.stack(fam["states"])
    tracemalloc.start()
    try:
        dec = isotypic_decompose(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted((c.simple_dim, c.multiplicity) for c in dec.components) == [(1, 16), (1, 16)]
    z, k = sum(c.multiplicity**2 for c in dec.components), gens.shape[1]
    assert peak < z * k * k * np.dtype(complex).itemsize


@pytest.mark.parametrize("gens", [tensor_block_gens(), planted_generators(np.random.default_rng(112), [(2, 2), (1, 3), (3, 1)], 3)])
def test_isotypic_draws_are_projections_onto_the_dense_commutant(monkeypatch, gens):
    # X1 and X2, read in the solve's frame and rotated out, are the
    # projections of the seeded draws onto the dense solve's commutant
    solved, drawn = [], []
    real_solve, real_project = algebra._commutant_basis, algebra._project_onto_span
    monkeypatch.setattr(algebra, "_commutant_basis", lambda mats, tol: solved.append(real_solve(mats, tol)) or solved[-1])
    monkeypatch.setattr(algebra, "_project_onto_span", lambda m, b: drawn.append(real_project(m, b)) or drawn[-1])
    isotypic_decompose(gens, seed=5)
    (u, _), d = solved[0], gens[0].shape[0]
    dense = dense_intertwiners(gens, gens)
    q, _ = np.linalg.qr(np.array([m.reshape(-1) for m in dense]).T)
    assert len(drawn) == 2
    for j, x in enumerate(drawn):
        h = seeded_random_hermitian(d, 5 + j).reshape(-1)
        want = (q @ (q.conj().T @ h)).reshape(d, d)
        assert np.abs(u @ x @ u.conj().T - want).max() <= 1e-10


def full_algebra_gens():
    # three generic states on C^6 generate all 6 x 6 matrices: only the
    # identity commutes with them
    rng = np.random.default_rng(7)
    return [random_density(rng, 6) for _ in range(3)]


def test_isotypic_commutant_of_the_identity_alone_draws_nothing(monkeypatch):
    def draw(d, seed):
        raise AssertionError("a commutant of dimension 1 needs no draw")

    monkeypatch.setattr(algebra, "seeded_random_hermitian", draw)
    dec = isotypic_decompose(full_algebra_gens())
    assert [(c.simple_dim, c.multiplicity) for c in dec.components] == [(6, 1)]
    assert np.array_equal(dec.components[0].submodule_bases[0], np.eye(6))


def test_isotypic_degenerate_draw_raises_at_once(monkeypatch):
    # an identity draw leaves the reducible space in one piece, which fails
    # the count sum_c m_c^2 = dim commutant (1 against 2^2 + 1^2)
    seeds = []

    def draw(d, seed):
        seeds.append(seed)
        return np.eye(d, dtype=complex)

    monkeypatch.setattr(algebra, "seeded_random_hermitian", draw)
    with pytest.raises(DegenerateSample, match=r"pieces 1, classes 1, sum m_c\^2 1, commutant dimension 5"):
        isotypic_decompose(two_class_gens(), seed=5)
    assert seeds == [5, 6]


def test_decompose_of_a_full_algebra_family_does_not_depend_on_the_seed():
    gens = full_algebra_gens()
    decs = [decompose(gens, seed=s) for s in range(4)]
    assert {dec.structure.blocks for dec in decs} == {((6, 1),)}
    for dec in decs[1:]:
        assert np.array_equal(dec.structure.transform, decs[0].structure.transform)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(-2), "3", None], ids=repr)
@pytest.mark.parametrize("draws", [True, False], ids=["draws", "no-draw"])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused_where_it_enters(seed, draws):
    # checked before any work, so also where nothing would be drawn
    states = build_family(np.random.default_rng(9), [(2, 2), (1, 3)], 3)["states"] if draws else full_algebra_gens()
    calls = [lambda: decompose(states, seed=seed), lambda: isotypic_decompose(states, seed=seed)]
    calls.append(lambda: seeded_random_hermitian(3, seed))
    for call in calls:
        with pytest.raises(ValidationError, match=f"seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
            call()


def test_a_numpy_integer_seed_is_the_same_seed():
    states = build_family(np.random.default_rng(9), [(2, 2), (1, 3)], 3)["states"]
    want = decompose(states, seed=4).structure.transform
    assert np.array_equal(decompose(states, seed=np.int64(4)).structure.transform, want)
    assert np.array_equal(seeded_random_hermitian(3, np.uint8(4)), seeded_random_hermitian(3, 4))


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


def compressions(gens, v):
    return [v.conj().T @ g @ v for g in gens]


def test_intertwiner_space_into_a_larger_subspace():
    # a 2-dim copy into the 4-dim span of two further copies, mixed inside
    # that span, next to an inequivalent block: one map per copy
    rng = np.random.default_rng(230)
    a = [seeded_random_hermitian(2, 231 + s) for s in range(3)]
    copies = block_diagonal(*(conjugated(np.stack(a), 232 + c) for c in range(3)), hermitians(240, 2))
    u = haar_unitary(rng, 8)
    gens = list(u @ copies @ u.conj().T)
    va = u[:, :2]
    vb = u[:, 2:6] @ haar_unitary(rng, 4)
    maps = intertwiner_space(gens, va, vb)
    assert len(maps) == 2
    assert_same_span(maps, dense_intertwiners(compressions(gens, va), compressions(gens, vb)))
    # and back: the maps from the 4-dim span onto the copy
    back = intertwiner_space(gens, vb, va)
    assert len(back) == 2
    assert_same_span(back, dense_intertwiners(compressions(gens, vb), compressions(gens, va)))
    assert intertwiner_space(gens, va, u[:, 6:]) == []


def test_intertwiner_space_of_a_non_hermitian_family(monkeypatch):
    # invariant subspaces of a non-Hermitian family, equivalent through a
    # similarity that is not unitary: the direct sum keeps every entry
    rng = np.random.default_rng(250)
    j = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    t = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    similar = t @ j @ np.linalg.inv(t)
    u = haar_unitary(rng, 9)
    gens = list(u @ block_diagonal(j, similar, j.transpose(0, 2, 1)) @ u.conj().T)
    frames = []
    real = algebra._spectral_frame
    monkeypatch.setattr(algebra, "_spectral_frame", lambda mats, tol: frames.append(real(mats, tol)) or frames[-1])
    va, vb = u[:, :3], u[:, 3:6]
    maps = intertwiner_space(gens, va, vb)
    assert len(frames) == 1 and frames[0][2].all()
    assert len(maps) == 1
    assert_same_span(maps, dense_intertwiners(compressions(gens, va), compressions(gens, vb)))
    # the map is the similarity itself, up to a complex factor
    assert np.allclose(maps[0], np.vdot(t, maps[0]) / np.vdot(t, t) * t, atol=1e-8)
    assert intertwiner_space(gens, va, u[:, 6:]) == []


@pytest.mark.parametrize("seed, blocks", [
    (70, [(2, 2), (1, 3), (3, 1), (2, 1)]),  # d = 12
    (71, [(3, 2), (2, 3), (1, 2)]),  # d = 14
    (72, [(2, 2), (2, 2), (1, 4), (1, 2), (1, 2)]),  # d = 16
])
def test_intertwiners_match_dense_solve_on_planted_families(seed, blocks):
    built = build_family(np.random.default_rng(seed), blocks, 4)
    xs = unit(built["states"])
    # the eigenframe of a random family element leaves few unknowns
    _, _, mask = _spectral_frame(np.array(xs), DEFAULT_TOL)
    assert mask.sum() <= sum(a * b * b for a, b in blocks) < mask.size
    assert_same_span(_ambient_commutant(xs, DEFAULT_TOL), dense_intertwiners(xs, xs))


def test_intertwiners_match_dense_solve_on_identity_and_redundant_copies():
    eye = [np.eye(5, dtype=complex) / np.sqrt(5)] * 2
    assert len(_ambient_commutant(eye, DEFAULT_TOL)) == 25
    assert_same_span(_ambient_commutant(eye, DEFAULT_TOL), dense_intertwiners(eye, eye))
    # info factor tensored with a redundant copy space, each generator listed three times
    u = haar_unitary(np.random.default_rng(73), 8)
    gens = [u @ np.kron(seeded_random_hermitian(2, 74 + s), np.eye(4)) @ u.conj().T for s in range(2)]
    xs = unit(gens * 3)
    got = _ambient_commutant(xs, DEFAULT_TOL)
    assert len(got) == 16
    assert_same_span(got, dense_intertwiners(xs, xs))


def test_intertwiners_match_dense_solve_on_noisy_identity():
    # identity plus Hermitian noise far below the rank floor: the dense solve
    # keeps every matrix, so the frame must not split the noise-level spread
    # of the random combination's eigenvalues
    eye = np.eye(4, dtype=complex)
    xs = unit([eye + 1e-12 * seeded_random_hermitian(4, 90 + s) for s in range(3)])
    got = _ambient_commutant(xs, DEFAULT_TOL)
    assert len(got) == 16
    assert_same_span(got, dense_intertwiners(xs, xs))


def test_intertwiners_match_dense_solve_between_blocks():
    rng = np.random.default_rng(75)
    v = haar_unitary(rng, 3)
    xs = unit([seeded_random_hermitian(3, 76 + s) for s in range(3)])
    equivalent = [v @ x @ v.conj().T for x in xs]
    got = block_maps(xs, equivalent)
    assert len(got) == 1
    assert_same_span(got, dense_intertwiners(xs, equivalent))
    inequivalent = unit([seeded_random_hermitian(3, 80 + s) for s in range(3)])
    assert block_maps(xs, inequivalent) == []
    assert dense_intertwiners(xs, inequivalent) == []


def combinations(rng, mats, n):
    """n random real combinations of the given matrices; they span what the
    matrices span."""
    return list(np.tensordot(rng.standard_normal((n, len(mats))), np.asarray(mats), axes=1))


def count_frame_generators(monkeypatch):
    """Record how many generators each commutation system is built from: the
    nonzero members, normalized, whatever span they have."""
    seen = []
    real = algebra._spectral_frame

    def counted(mats, tol):
        seen.append(mats.shape[0])
        return real(mats, tol)

    monkeypatch.setattr(algebra, "_spectral_frame", counted)
    return seen


def test_remix_solves_a_sixty_member_commutant_on_its_span(monkeypatch):
    # 60 members spanning the 5 dimensions of a planted d = 12 family
    rng = np.random.default_rng(160)
    base = build_family(rng, [(2, 2), (1, 3), (3, 1), (2, 1)], 5)["states"]
    xs = unit(combinations(rng, base, 60))
    seen = count_frame_generators(monkeypatch)
    got = _ambient_commutant(xs, DEFAULT_TOL)
    assert seen == [60]
    assert len(got) == 2 + 3 + 1 + 1  # diagonal on each redundant factor
    assert_same_span(got, dense_intertwiners(xs, xs))


def test_remix_solves_sixty_block_pairs_on_their_span(monkeypatch):
    # check_maximal (iii): the direct sums of 60 pairs (x_i, y_i) spanning 4
    # dimensions, each pair scaled by the larger of its two norms
    rng = np.random.default_rng(161)
    v = haar_unitary(rng, 3)
    base = [seeded_random_hermitian(3, 162 + s) for s in range(4)]
    other = [seeded_random_hermitian(3, 166 + s) for s in range(4)]
    c = rng.standard_normal((60, 4))
    xs = np.tensordot(c, np.asarray(base), axes=1)
    seen = count_frame_generators(monkeypatch)
    for ys, want in ((v @ xs @ v.conj().T, 1), (np.tensordot(c, np.asarray(other), axes=1), 0)):
        scale = np.maximum(np.linalg.norm(xs, axis=(1, 2)), np.linalg.norm(ys, axis=(1, 2)))
        x, y = list(xs / scale[:, None, None]), list(ys / scale[:, None, None])
        got = block_maps(x, y)
        assert len(got) == want
        assert_same_span(got, dense_intertwiners(x, y))
    assert seen == [60, 60]


@pytest.mark.parametrize(
    "xs",
    [
        [seeded_random_hermitian(4, 170) / np.linalg.norm(seeded_random_hermitian(4, 170))],  # n = 1
        [np.zeros((4, 4), dtype=complex)] * 6,  # all zero: one zero member stands for them
    ],
    ids=["one-member", "all-zero"],
)
def test_remix_of_one_member_and_of_an_all_zero_family(monkeypatch, xs):
    seen = count_frame_generators(monkeypatch)
    got = _ambient_commutant(xs, DEFAULT_TOL)
    assert seen == [1]
    assert len(got) == (4 if np.any(xs[0]) else 16)
    assert_same_span(got, dense_intertwiners(xs, xs))


@pytest.mark.parametrize("d_info", [1, 2])
def test_remix_of_more_members_than_real_entries(monkeypatch, d_info):
    # 60 weighted information states of one block (check_maximal (ii)) and
    # the direct sums of 60 pairs of two such blocks (iii): n exceeds the
    # 2 ka^2 real dimensions the members can span
    rng = np.random.default_rng(171 + d_info)
    infos = np.stack([random_density(rng, d_info) for _ in range(60)])
    w = rng.uniform(0.1, 1.0, 60)
    seen = count_frame_generators(monkeypatch)
    got = _ambient_commutant(w[:, None, None] * infos, DEFAULT_TOL)
    xs = unit(list(w[:, None, None] * infos))
    assert len(got) == 1
    assert_same_span(got, dense_intertwiners(xs, xs))
    v = haar_unitary(rng, d_info)
    ys = [v @ x @ v.conj().T for x in xs]
    got = block_maps(xs, ys)
    assert len(got) == 1
    assert_same_span(got, dense_intertwiners(xs, ys))
    assert seen == [60, 60]


def test_remix_keeps_the_spectral_frame_unknowns():
    # 60 combinations of a 5-state d = 12 family
    rng = np.random.default_rng(175)
    base = build_family(rng, [(2, 2), (1, 3), (3, 1), (2, 1)], 5)["states"]
    xs = np.asarray(unit(combinations(rng, base, 60)))
    _, _, mask = _spectral_frame(xs, DEFAULT_TOL)
    # a random family element has a simple spectrum: the diagonal of d = 12
    assert mask.sum() == 12


def record_null_space_stacks(monkeypatch):
    """Record (stack size, unknowns) of every `_null_space_floor` call."""
    seen = []
    real = algebra._null_space_floor

    def recorded(systems, cutoff):
        seen.append((systems.shape[0], systems.shape[2]))
        return real(systems, cutoff)

    monkeypatch.setattr(algebra, "_null_space_floor", recorded)
    return seen


def hermitians(seed, size, n=3):
    return np.stack([seeded_random_hermitian(size, seed + i) for i in range(n)])


def block_diagonal(*blocks):
    """Stack of exactly block-diagonal matrices from n x s x s stacks."""
    d = sum(b.shape[1] for b in blocks)
    out = np.zeros((blocks[0].shape[0], d, d), dtype=complex)
    start = 0
    for b in blocks:
        out[:, start : start + b.shape[1], start : start + b.shape[1]] = b
        start += b.shape[1]
    return out


def conjugated(stack, seed):
    v = haar_unitary(np.random.default_rng(seed), stack.shape[1])
    return v @ stack @ v.conj().T


def block_cases():
    a2, b3, c2, e1 = hermitians(190, 2), hermitians(193, 3), hermitians(196, 2), hermitians(199, 1)
    d4 = hermitians(202, 4)
    return [
        # (name, xs, ys, (stack size, unknowns) per call, intertwiner count)
        ("equivalent", block_diagonal(b3, conjugated(b3, 1)), None, [(4, 3)], 4),
        ("inequivalent", block_diagonal(b3, hermitians(205, 3)), None, [(2, 3)], 2),
        ("mixed-sizes", block_diagonal(a2, b3, conjugated(a2, 2), e1), None, [(1, 1), (1, 3), (4, 2)], 6),
        # the direct sum a2 + b3 + b3' + c2: the diagonal pairs of a2 and c2,
        # and the four pairs of b3 and b3', of which (b3', b3) is the one map
        ("between", block_diagonal(a2, b3), block_diagonal(conjugated(b3, 3), c2), [(2, 2), (4, 3)], 1),
        ("dense", d4, None, [(1, 4)], 1),
    ]


@pytest.mark.parametrize("name, xs, ys, stacks, count", block_cases(), ids=[c[0] for c in block_cases()])
def test_intertwiners_split_block_diagonal_families_into_stacked_pair_solves(monkeypatch, name, xs, ys, stacks, count):
    # every pair of blocks with kept entries is one system, and the pairs of
    # one shape and kept pattern are one stacked solve; a dense family is
    # one pair in a stack of one. Maps between two families are a block of
    # the commutant of their direct sum, which solves its diagonal pairs
    # too. One scale per member pair leaves L x = y L unchanged
    scale = np.linalg.norm(xs, axis=(1, 2)) if ys is None else np.maximum(
        np.linalg.norm(xs, axis=(1, 2)), np.linalg.norm(ys, axis=(1, 2))
    )
    between = ys is not None
    xs = xs / scale[:, None, None]
    ys = ys / scale[:, None, None] if between else xs
    seen = record_null_space_stacks(monkeypatch)
    got = block_maps(xs, ys) if between else _ambient_commutant(xs, DEFAULT_TOL)
    assert sorted(seen) == stacks
    assert len(got) == count
    assert_same_span(got, dense_intertwiners(list(xs), list(ys)))


def record_null_space_systems(monkeypatch):
    """Record the m x rows x unknowns stack every `_null_space_floor` call
    solves."""
    seen = []
    real = algebra._null_space_floor

    def recorded(systems, cutoff):
        seen.append(systems)
        return real(systems, cutoff)

    monkeypatch.setattr(algebra, "_null_space_floor", recorded)
    return seen


def frame_generators(xs):
    """The normalized nonzero members in the frame of `_spectral_frame`, with
    the frame's block edges and mask."""
    gens = np.asarray([x / np.linalg.norm(x) for x in xs if np.linalg.norm(x) > DEFAULT_TOL.tol_zero])
    edges, u, mask = _spectral_frame(gens, DEFAULT_TOL)
    return u.conj().T @ gens @ u, edges, mask


def dense_frame_system(xs):
    """The uncompressed system in the frame of `_spectral_frame`: n k^2 rows,
    one column E_pq m' - m' E_pq per kept unknown (p, q), stacked over the
    normalized nonzero members."""
    m, _, mask = frame_generators(xs)
    cols = []
    for p, q in zip(*np.nonzero(mask)):
        e = np.zeros(mask.shape)
        e[p, q] = 1.0
        cols.append((e @ m - m @ e).reshape(-1))
    return np.array(cols).T


def dropped_tails(xs):
    """Per cluster pair, the joint norm of the trailing singular values of
    the members' centered n x f stack that a cut at tol_zero drops: the
    longest tail whose root sum of squares is at most tol_zero."""
    m, edges, mask = frame_generators(xs)
    clusters = [np.flatnonzero(row) for row in np.unique(mask, axis=0)]
    for c in clusters:  # take off each diagonal cluster block's mean diagonal entry
        m[:, c, c] -= m[:, c, c].mean(axis=1, keepdims=True)
    block = np.repeat(np.arange(edges.size - 1), np.diff(edges))
    tails = []
    for g in clusters:
        for h in clusters:
            a, b = np.nonzero(block[g, None] == block[None, h])
            if a.size:
                sv = np.linalg.svd(m[:, g[a], h[b]], compute_uv=False)
                tail = np.sqrt(np.cumsum(sv[::-1] ** 2))
                tails.append(float(tail[tail <= DEFAULT_TOL.tol_zero].max(initial=0.0)))
    return np.array(tails)


def padded_singular_values(system):
    """All `unknowns` singular values of a rows x unknowns system: those of
    the SVD, then zeros when it has fewer rows than unknowns."""
    s = np.linalg.svd(system, compute_uv=False)
    return np.concatenate([s, np.zeros(system.shape[1] - s.size)])


def compression_cases():
    rng = np.random.default_rng(230)
    h, g = hermitians(232, 3, n=5), hermitians(240, 2, n=5)
    return [
        # (name, members, compressed generator rows, where a rank argument fixes them)
        ("generic-4", build_family(rng, [(2, 2), (1, 3), (3, 1), (2, 1)], 4)["states"], 1),
        ("generic-60", build_family(rng, [(2, 2), (1, 3), (3, 1), (2, 1)], 60)["states"], 1),
        # pass 2's kept pattern: exactly block diagonal, with equal copies
        ("copies", list(block_diagonal(h, h, conjugated(h, 5), g)), None),
        # maximally mixed redundant factors: clusters of 2 and 3 eigenvalues,
        # and every cluster pair's stack of rank 1 once centered
        ("clusters", build_family(rng, [(2, 2), (1, 3), (2, 1)], 5, mixed_red=True)["states"], 1),
        ("clusters-60", build_family(rng, [(2, 3), (1, 2)], 60, mixed_red=True)["states"], 1),
        # one block with a mixed factor: two clusters of 4, and a scalar
        # family, which centering takes to zero: one zero row stands for it
        ("multiplicity", build_family(rng, [(2, 4)], 3, mixed_red=True)["states"], 1),
        ("scalar", [np.eye(3) / 3] * 2, 1),
        # every eigenvalue in one cluster: the identity plus noise far below
        # the rank floor, and a non-Hermitian family, which keeps the
        # identity frame; their stacks have more than one row of weight
        ("one-cluster", [np.eye(4) + 1e-12 * seeded_random_hermitian(4, 252 + s) for s in range(3)], None),
        ("non-hermitian", list(rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))), None),
        ("k2", list(hermitians(250, 2)), None),
        ("k2-commuting", [conjugated(np.diag(rng.uniform(0.1, 1.0, 2))[None], 6)[0] for _ in range(3)], 1),
    ]


@pytest.mark.parametrize("name, xs, generator_rows", compression_cases(), ids=[c[0] for c in compression_cases()])
def test_compressed_systems_are_the_dense_system(monkeypatch, name, xs, generator_rows):
    # centering leaves the system's operator as it is, and each cluster
    # pair's kept rows are an orthogonal transform of the dense rows less
    # the dropped tail, so the compressed block-pair systems together have
    # the singular values of the dense n k^2 system within Weyl's bound,
    # 2 ||dropped rows||, and make its rank decisions
    comp = []
    real = algebra._compressed_generators
    monkeypatch.setattr(algebra, "_compressed_generators", lambda *args: comp.append(real(*args)) or comp[-1])
    seen = record_null_space_systems(monkeypatch)
    got = _ambient_commutant(xs, DEFAULT_TOL)
    dense = dense_frame_system(xs)
    want = np.sort(padded_singular_values(dense))
    have = np.sort(np.concatenate([padded_singular_values(x) for stack in seen for x in stack]))
    assert have.shape == want.shape
    weyl = 2.0 * float(np.linalg.norm(dropped_tails(xs)))
    # the members have unit norm, so roundoff is relative to 1 where every
    # constraint is noise
    assert np.abs(have - want).max() <= weyl + 1e-12 * max(want[-1], 1.0)
    rows = sum(stack.shape[0] * stack.shape[1] for stack in seen)
    assert rows <= dense.shape[0]
    if generator_rows is not None:
        assert len(comp) == 1 and comp[0].shape[0] == generator_rows
    floor = DEFAULT_TOL.tol_rank
    assert len(got) == np.sum(want <= floor) == np.sum(have <= floor)
    assert_same_span(got, dense_intertwiners(unit(xs), unit(xs)))


def test_envelope_pass_one_rows_do_not_grow_with_the_member_count(monkeypatch):
    # the d = 64 envelope family with 60 states: the dense system of the
    # first isotypic pass has 60 * 64^2 = 245760 rows on the 64 diagonal
    # unknowns; compressed, entry (a, b) keeps one row and the diagonal
    # rows (a, a) vanish
    states = build_family(np.random.default_rng(92), ENVELOPE_64, 60)["states"]
    seen = record_null_space_systems(monkeypatch)
    decompose(states)
    assert seen[0].shape[0] == 1 and seen[0].shape[2] == 64
    assert seen[0].shape[1] <= 64 * 63


def contract_cases():
    h = hermitians(220, 2)
    # a 4 x 4 block that `_diagonal_blocks` cannot split but that holds two
    # copies of h, next to a third copy of h
    inside = block_diagonal(conjugated(block_diagonal(h, h), 4), h)
    return [c[:3] for c in block_cases()] + [("splits-inside", inside, None)]


@pytest.mark.parametrize("name, xs, ys", contract_cases(), ids=[c[0] for c in contract_cases()])
def test_intertwiners_lie_each_in_one_block_pair(name, xs, ys):
    # the contract check_maximal and intertwiner_space count on: every
    # commutant basis matrix is nonzero on exactly one pair of the blocks
    # found, in the solve's frame and, as u is block diagonal over them,
    # in ambient coordinates; two families are solved as their direct sum.
    # In the solve's form, every position of a system lies in the pair that
    # holds its first row and column, where check_maximal counts its null
    # dimension
    mats = xs if ys is None else block_diagonal(xs, ys)
    _, stacks = _commutant_basis(mats, DEFAULT_TOL)
    edges = algebra._diagonal_blocks(mats)
    for pos, null, dims in stacks:
        assert null.shape == (dims.sum(), pos.shape[1])
        for at in np.divmod(pos, edges[-1]):
            pair = np.searchsorted(edges, at, "right") - 1
            assert (pair == pair[:, :1]).all()
    got = _ambient_commutant(mats, DEFAULT_TOL)
    assert got.shape[0] == sum(dims.sum() for _, _, dims in stacks) > 0
    per_pair = np.add.reduceat(np.add.reduceat(np.abs(got), edges[:-1], axis=1), edges[:-1], axis=2)
    assert np.count_nonzero(per_pair, axis=(1, 2)).tolist() == [1] * got.shape[0]


def test_diagonal_blocks_reads_the_exact_zero_pattern():
    xs = block_diagonal(hermitians(210, 2), hermitians(212, 3), hermitians(214, 1))
    assert algebra._diagonal_blocks(xs).tolist() == [0, 2, 5, 6]
    # a single nonzero entry anywhere between two blocks joins them, and so
    # does one that links the first and the last: only consecutive blocks count
    xs[1, 4, 5] = xs[1, 5, 4] = 1e-300
    assert algebra._diagonal_blocks(xs).tolist() == [0, 2, 6]
    xs[0, 0, 5] = 1e-300
    assert algebra._diagonal_blocks(xs).tolist() == [0, 6]


@pytest.mark.parametrize("transposed", [False, True], ids=["c-ordered", "transposed"])
def test_null_space_floor_of_a_stack_with_different_null_dimensions(transposed):
    # three 9 x 4 systems of rank 4, 2 and 0, in one stack
    rng = np.random.default_rng(180)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    systems = np.stack([gaussian(9, 4), gaussian(9, 2) @ gaussian(2, 4), np.zeros((9, 4))])
    if transposed:
        systems = np.ascontiguousarray(systems.transpose(0, 2, 1)).transpose(0, 2, 1)
    null, dims = algebra._null_space_floor(systems, DEFAULT_TOL.tol_rank)
    got = [g.T for g in np.split(null, np.cumsum(dims)[:-1])]
    assert [g.shape for g in got] == [(4, 0), (4, 2), (4, 4)]
    for a, g in zip(systems, got):
        assert np.linalg.norm(a @ g) <= 1e-12
        assert np.allclose(g.conj().T @ g, np.eye(g.shape[1]), atol=1e-12)


def test_null_space_floor_keeps_the_whole_null_space_of_a_wide_system():
    # three 3 x 4 systems of rank 3, 2 and 0: fewer rows than unknowns
    rng = np.random.default_rng(181)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    systems = np.stack([a, np.outer([1.0, 2.0, 0.0], a[0]) + np.outer([0.0, 1.0, 1.0], a[1]), np.zeros((3, 4))])
    null, dims = algebra._null_space_floor(systems, DEFAULT_TOL.tol_rank)
    got = [g.T for g in np.split(null, np.cumsum(dims)[:-1])]
    assert [g.shape for g in got] == [(4, 1), (4, 2), (4, 4)]
    for a, g in zip(systems, got):
        assert np.linalg.norm(a @ g) <= 1e-12
        assert np.allclose(g.conj().T @ g, np.eye(g.shape[1]), atol=1e-12)


def test_commutant_of_non_normal_generator():
    # a Jordan block is not Hermitian, so the solve keeps every entry; its
    # commutant is the polynomials in it, of dimension 3
    jordan = np.diag([1.0, 1.0], k=1) + 2.0 * np.eye(3)
    xs = unit([jordan])
    _, _, mask = _spectral_frame(np.array(xs), DEFAULT_TOL)
    assert mask.all()
    got = _ambient_commutant(xs, DEFAULT_TOL)
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

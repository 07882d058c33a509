import numpy as np
import pytest

from kidecomp import channels
from kidecomp.channels import (
    apply_to_matrix,
    block_channel,
    canonical_kraus,
    confines_paired_subspace,
    confines_positive_part,
    environment_state,
    has_block_form,
    identity_channel,
    kraus_channel,
    preserves_family,
)
from kidecomp.exceptions import (
    DimensionMismatch,
    HypothesisFailed,
    KidecompError,
    KStateNotFixed,
    NotPreserved,
    ValidationError,
)
from kidecomp.linalg import Tolerances, density_matrix, trace_norm
from kidecomp.structure import Structure, decompose, family_average

from helpers import (
    block_projector,
    build_family,
    choi_of,
    count_linalg_calls,
    dense_block_form,
    haar_unitary,
    kraus_from_choi,
    leaking_channel,
    lifted_preserving_channel,
    loop_apply,
    loop_environment_state,
    loop_preservation_deviation,
    planted_frame,
    preserving_block_channel,
    projected_preserving_channel,
    random_blocks,
    random_cptp,
    random_density,
    remixed_channel,
    rotated_info_channel,
    rotation_channel,
)


def test_kraus_channel_validation():
    # valid single-unitary channel
    ch = kraus_channel([np.eye(3)])
    assert ch.input_dim == 3 and ch.output_dim == 3 and len(ch) == 1
    # empty list
    with pytest.raises(ValidationError):
        kraus_channel([])
    # mismatched shapes among operators
    with pytest.raises(DimensionMismatch):
        kraus_channel([np.eye(2), np.eye(3)])
    # not trace preserving
    with pytest.raises(ValidationError):
        kraus_channel([0.5 * np.eye(2)])
    # Kraus tuple is frozen
    with pytest.raises(ValueError):
        ch.kraus_ops[0][0, 0] = 5.0


def test_identity_channel_is_identity():
    rng = np.random.default_rng(0)
    ch = identity_channel(4)
    for _ in range(5):
        rho = random_density(rng, 4)
        assert np.allclose(apply_to_matrix(ch, rho), rho)


def test_apply_to_matrix_linear_and_dim_checked():
    rng = np.random.default_rng(1)
    ch = random_cptp(rng, 3, 3, 4)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    # linearity on arbitrary (non-Hermitian) matrices
    lhs = apply_to_matrix(ch, 2.0 * a + 1j * b)
    rhs = 2.0 * apply_to_matrix(ch, a) + 1j * apply_to_matrix(ch, b)
    assert np.allclose(lhs, rhs)
    with pytest.raises(DimensionMismatch):
        apply_to_matrix(ch, np.eye(4))


def test_apply_to_matrix_maps_states_to_states():
    rng = np.random.default_rng(2)
    ch = random_cptp(rng, 4, 4, 3)
    rho = density_matrix(random_density(rng, 4))
    out = apply_to_matrix(ch, rho.mat)
    assert np.isclose(np.trace(out).real, 1.0)
    assert np.allclose(out, out.conj().T)
    assert np.linalg.eigvalsh(out).min() > -1e-9
    assert np.array_equal(density_matrix(out).mat, 0.5 * (out + out.conj().T))


def test_choi_kraus_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(6):
        d_in, d_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ch = random_cptp(rng, d_in, d_out, int(rng.integers(1, 5)))
        back = kraus_from_choi(choi_of(ch), d_in, d_out)
        for _ in range(3):
            rho = random_density(rng, d_in)
            assert np.allclose(apply_to_matrix(ch, rho), apply_to_matrix(back, rho), atol=1e-10)
    with pytest.raises(DimensionMismatch):
        kraus_from_choi(np.eye(6) / 2.0, 2, 2)


def test_canonical_kraus_orthogonal_and_equivalent():
    rng = np.random.default_rng(4)
    ch = random_cptp(rng, 4, 4, 5)
    can = canonical_kraus(ch)
    ops = can.kraus_ops
    # pairwise Hilbert-Schmidt orthogonality
    for i in range(len(ops)):
        for j in range(i):
            assert abs(np.trace(ops[i].conj().T @ ops[j])) < 1e-10
    rho = random_density(rng, 4)
    assert np.allclose(apply_to_matrix(ch, rho), apply_to_matrix(can, rho), atol=1e-10)


def test_preserves_family_and_deviation():
    rng = np.random.default_rng(5)
    built = build_family(rng, [(2, 2)], 3)
    rep = preserves_family(identity_channel(built["dim"]), built["states"])
    assert rep.ok and rep.max_deviation == 0.0
    # a generic channel moves at least one member
    bad = random_cptp(rng, built["dim"], built["dim"], 3)
    rep2 = preserves_family(bad, built["states"])
    assert not rep2.ok and rep2.max_deviation > 1e-3
    with pytest.raises(DimensionMismatch):
        preserves_family(identity_channel(3), built["states"])


def test_block_channel_validation():
    rng = np.random.default_rng(6)
    built = build_family(rng, [(2, 2), (1, 3)], 2)
    decomp = decompose(built["states"])
    st = decomp.structure
    assert sorted(st.blocks) == [(1, 3), (2, 2)]
    good = [identity_channel(dr) for _, dr in st.blocks]
    # wrong number of block channels
    with pytest.raises(DimensionMismatch):
        block_channel(st, good[:1])
    # wrong per-block dimension
    with pytest.raises(DimensionMismatch):
        block_channel(st, [identity_channel(st.blocks[0][1] + 1), good[1]])
    # red_states, when given, holds one state per block
    reds = [r.mat for r in decomp.red_states]
    with pytest.raises(ValidationError, match="need 2 redundant states"):
        block_channel(st, good, red_states=reds[:1])
    # a channel that moves the redundant state is rejected
    mover = random_cptp(rng, st.blocks[0][1], st.blocks[0][1], 3)
    moved = trace_norm(apply_to_matrix(mover, reds[0]) - reds[0])
    assert moved > 1e-6
    with pytest.raises(KStateNotFixed):
        block_channel(st, [mover] + good[1:], red_states=reds)


def test_block_channel_preserves_and_has_block_form():
    rng = np.random.default_rng(7)
    for trial in range(12):
        built = build_family(rng, random_blocks(rng), int(rng.integers(2, 5)))
        decomp = decompose(built["states"])
        ch = preserving_block_channel(rng, decomp)
        rep = preserves_family(ch, built["states"])
        assert rep.ok, f"trial {trial}: deviation {rep.max_deviation:.3e}"
        bf = has_block_form(ch, decomp.structure, support=decomp.support)
        assert bf.ok, f"trial {trial}: block-form violation {bf.max_violation:.3e}"


def test_mixture_of_block_channels_preserves():
    rng = np.random.default_rng(8)
    built = build_family(rng, [(2, 2), (2, 1)], 3)
    decomp = decompose(built["states"])
    a = preserving_block_channel(rng, decomp)
    b = preserving_block_channel(rng, decomp)
    lam = 0.37
    mixed = kraus_channel(
        [np.sqrt(lam) * k for k in a.kraus_ops] + [np.sqrt(1.0 - lam) * k for k in b.kraus_ops]
    )
    assert preserves_family(mixed, built["states"]).ok
    assert has_block_form(mixed, decomp.structure, support=decomp.support).ok


def test_projected_preserving_channels_have_block_form():
    rng = np.random.default_rng(9)
    for trial in range(10):
        blocks = random_blocks(rng, max_total=8)
        built = build_family(rng, blocks, int(rng.integers(2, 4)))
        decomp = decompose(built["states"])
        ch = projected_preserving_channel(rng, built)
        rep = preserves_family(ch, built["states"])
        assert rep.max_deviation <= 1e-8, f"trial {trial}: {rep.max_deviation:.3e}"
        bf = has_block_form(ch, decomp.structure, support=decomp.support)
        assert bf.max_violation <= 1e-7, f"trial {trial}: violation {bf.max_violation:.3e}"


def test_rotated_info_channel_detected():
    rng = np.random.default_rng(10)
    for trial in range(8):
        built = build_family(rng, [(2, 2), (1, 2)], 3)
        decomp = decompose(built["states"])
        angle = 0.1 + 0.8 * float(rng.random())
        ch = rotated_info_channel(rng, decomp, angle)
        rep = preserves_family(ch, built["states"])
        assert rep.max_deviation >= 1e-4, f"trial {trial}: {rep.max_deviation:.3e}"
        bf = has_block_form(ch, decomp.structure, support=decomp.support)
        assert not bf.ok
        assert bf.max_violation > 1e-4
        assert len(bf.violations) > 0


def test_has_block_form_presentation_independent():
    # mixing the Kraus gauge by a unitary on the operator index changes nothing
    rng = np.random.default_rng(11)
    built = build_family(rng, [(2, 2)], 2)
    decomp = decompose(built["states"])
    ch = preserving_block_channel(rng, decomp)
    n = len(ch.kraus_ops)
    w = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    mixed_ops = [sum(w[i, j] * ch.kraus_ops[j] for j in range(n)) for i in range(n)]
    mixed = kraus_channel(mixed_ops)
    a = has_block_form(ch, decomp.structure, support=decomp.support)
    b = has_block_form(mixed, decomp.structure, support=decomp.support)
    assert a.ok and b.ok
    assert np.isclose(a.max_violation, b.max_violation, atol=1e-9)


def _outcome(fn, *args):
    """A predicate's verdict, or the name of the typed error it raised."""
    try:
        return fn(*args)
    except KidecompError as exc:
        return type(exc).__name__


def _confinement_inputs(built, structure, support):
    """A preserved difference observable, the family average, and the split
    of the support into block 0 and the rest."""
    emb = np.eye(structure.dim) if support is None else support
    rho, sig = built["states"][:2]
    obs = rho / np.trace(rho).real - sig / np.trace(sig).real
    p1 = emb @ block_projector(structure, 0) @ emb.conj().T
    return obs, family_average(built["states"]).mat, p1, emb @ emb.conj().T - p1


def _planted_channels(rng, built, structure, support):
    chans = {
        "preserving": lifted_preserving_channel(rng, structure, built["red"], support),
        "rotate-1e-3": rotation_channel(structure, support, 1e-3),
        "rotate-0.3": rotation_channel(structure, support, 0.3),
        "random": random_cptp(rng, built["dim"], built["dim"], 3),
    }
    if support is not None:
        chans["leaking"] = leaking_channel(rng, chans["preserving"], support, 1e-3)
    return chans


@pytest.mark.parametrize("pad_to", [None, 12])
def test_channel_predicates_invariant_under_kraus_remix(pad_to):
    # an isometric remix with 3 extra operators is the same channel: every
    # verdict, every violation triple and the stacked magnitude must agree
    rng = np.random.default_rng(20 if pad_to is None else 21)
    built = build_family(rng, [(2, 2), (3, 1), (1, 2)], 3, pad_to=pad_to)
    st, sup = planted_frame(rng, built)
    obs, avg, p1, p2 = _confinement_inputs(built, st, sup)
    seen = set()
    for kind, ch in _planted_channels(rng, built, st, sup).items():
        mixed = remixed_channel(rng, ch, extra=3)
        assert len(mixed.kraus_ops) == len(ch.kraus_ops) + 3
        a = has_block_form(ch, st, support=sup)
        b = has_block_form(mixed, st, support=sup)
        assert a.ok == b.ok and a.violations == b.violations, kind
        assert abs(a.max_violation - b.max_violation) <= 1e-12 * max(1.0, a.max_violation), kind
        assert a.ok == (kind == "preserving"), kind
        for fn, args in (
            (confines_positive_part, (obs,)),
            (confines_paired_subspace, (avg, p1, p2)),
        ):
            got = _outcome(fn, ch, *args)
            assert got == _outcome(fn, mixed, *args), (kind, fn.__name__)
            seen.add((fn.__name__, got))
    # both confinement predicates accepted the preserving channel and
    # refused a disturbing one
    assert ("confines_positive_part", True) in seen
    assert ("confines_paired_subspace", True) in seen
    assert ("confines_positive_part", "NotPreserved") in seen
    assert ("confines_paired_subspace", "HypothesisFailed") in seen


def test_has_block_form_matches_dense_reference():
    # the block-frame slices must reproduce the stacked commutator with the
    # dense lifted matrix units, triple for triple
    rng = np.random.default_rng(22)
    cases = []
    for blocks, pad in (([(2, 2), (3, 1), (1, 2)], None), ([(3, 2), (2, 1), (1, 1)], 12)):
        built = build_family(rng, blocks, 3, pad_to=pad)
        st, sup = planted_frame(rng, built)
        cases += [(name, ch, st, sup) for name, ch in _planted_channels(rng, built, st, sup).items()]
        # the same channels against the computed, not planted, frame
        decomp = decompose(built["states"])
        cases.append(("decomposed rotate-0.3", rotated_info_channel(rng, decomp, 0.3), decomp.structure, decomp.support))
        if pad is not None:
            leaky = leaking_channel(rng, identity_channel(built["dim"]), decomp.support, 0.3)
            cases.append(("decomposed leaking", leaky, decomp.structure, decomp.support))
    n_failing = 0
    for name, ch, st, sup in cases:
        ch = remixed_channel(rng, ch, extra=2)
        got = has_block_form(ch, st, support=sup)
        worst, violations = dense_block_form(ch, st, support=sup)
        assert got.violations == violations, name
        assert abs(got.max_violation - worst) <= 1e-10, name
        n_failing += not got.ok
    assert n_failing == len(cases) - 2


ENVELOPE_CASES = [
    (((4, 3), (3, 4), (2, 4), (2, 2), (1, 4), (1, 3), (1, 5)), None),  # d = 48
    (((8, 2), (4, 4), (3, 3), (2, 4), (2, 2), (1, 6), (1, 5)), None),  # d = 64
    (((8, 2), (4, 4), (3, 3), (2, 2), (1, 6), (1, 5)), 64),  # 56 planted dims in d = 64
]


def _envelope_channels(blocks, pad_to):
    """A planted family at the top of the envelope, its planted frame, a
    remixed preserving channel and a random channel with 4 operators."""
    rng = np.random.default_rng(23 + len(blocks) + (pad_to or 0))
    built = build_family(rng, blocks, 3, pad_to=pad_to)
    st, sup = planted_frame(rng, built)
    good = remixed_channel(rng, lifted_preserving_channel(rng, st, built["red"], sup), extra=3)
    bad = random_cptp(rng, built["dim"], built["dim"], 4)
    return built, st, sup, good, bad


@pytest.mark.parametrize("blocks, pad_to", ENVELOPE_CASES)
def test_channel_predicates_envelope(blocks, pad_to, monkeypatch):
    # the top of the claimed envelope, on the given Kraus operators: no Choi
    # matrix (d^2 x d^2) is formed on the way
    def no_choi(*args, **kwargs):
        raise AssertionError("channel predicates must not form the Choi matrix")

    monkeypatch.setattr(channels, "canonical_kraus", no_choi)
    built, st, sup, good, bad = _envelope_channels(blocks, pad_to)
    assert built["dim"] in (48, 64)
    obs, avg, p1, p2 = _confinement_inputs(built, st, sup)
    form = has_block_form(good, st, support=sup)
    assert form.ok, f"violation {form.max_violation:.3e}"
    assert form.max_violation <= 1e-12
    assert confines_positive_part(good, obs)
    assert confines_paired_subspace(good, avg, p1, p2)
    rot = has_block_form(rotation_channel(st, sup, 1e-3), st, support=sup)
    assert not rot.ok and rot.max_violation > 1e-4
    rand = has_block_form(bad, st, support=sup)
    assert not rand.ok and rand.max_violation > 0.1
    with pytest.raises(NotPreserved):
        confines_positive_part(bad, obs)


def _assert_matches_loop(channel, states, probe):
    """The stacked Kraus application, `preserves_family` and
    `environment_state` against the loop references, to 1e-12 relative to
    max(1, the reference's norm)."""

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * max(1.0, float(np.linalg.norm(want)))

    assert close(apply_to_matrix(channel, probe), loop_apply(channel, probe))
    for s in states:
        assert close(environment_state(channel, s), loop_environment_state(channel, s))
    if channel.input_dim == channel.output_dim:
        got = preserves_family(channel, states).max_deviation
        assert close(got, loop_preservation_deviation(channel, states))


def test_stacked_application_matches_loop_reference():
    rng = np.random.default_rng(29)
    d = 6
    states = [random_density(rng, d) for _ in range(4)]
    skew = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    unitary = kraus_channel([np.linalg.qr(skew)[0]])
    cases = {
        "k = 1": unitary,
        "k = 12": random_cptp(rng, d, d, 12),
        "identity": identity_channel(d),
        "non-square": random_cptp(rng, d, 9, 3),
    }
    for ch in cases.values():
        _assert_matches_loop(ch, states, skew)  # skew: a non-Hermitian input
    # a preserving channel moves the members by roundoff only
    built = build_family(rng, [(2, 2), (1, 3)], 3)
    ch = preserving_block_channel(rng, decompose(built["states"]))
    d = built["dim"]
    _assert_matches_loop(ch, built["states"], rng.standard_normal((d, d)) + 0j)
    assert preserves_family(ch, built["states"]).max_deviation <= 1e-12


@pytest.mark.parametrize("blocks, pad_to", ENVELOPE_CASES)
def test_stacked_application_matches_loop_reference_in_envelope(blocks, pad_to):
    built, _, _, good, bad = _envelope_channels(blocks, pad_to)
    d = built["dim"]
    probe = np.random.default_rng(d).standard_normal((d, d)) + 0j
    for ch in (good, bad):
        _assert_matches_loop(ch, built["states"], probe)


def test_preserves_family_lapack_calls_do_not_grow_with_members(monkeypatch):
    rng = np.random.default_rng(31)
    states = [random_density(rng, 5) for _ in range(20)]
    ch = random_cptp(rng, 5, 5, 3)
    seen = []
    for n in (2, 20):
        counts = count_linalg_calls(monkeypatch)
        preserves_family(ch, states[:n])
        seen.append(dict(counts))
        monkeypatch.undo()
    assert seen[0] == seen[1]
    assert seen[0].get("eigvalsh", 0) >= 1 and "svd" not in seen[0]


def test_has_block_form_dimension_checks():
    rng = np.random.default_rng(12)
    built = build_family(rng, [(2, 1)], 2)
    decomp = decompose(built["states"])
    with pytest.raises(DimensionMismatch):
        has_block_form(identity_channel(5), decomp.structure)
    with pytest.raises(DimensionMismatch):
        has_block_form(identity_channel(5), decomp.structure, support=np.eye(3, 2))


def _mismatched_channel_calls():
    """Calls whose channel or operand dimensions do not fit, by name."""
    rng = np.random.default_rng(19)
    wide = kraus_channel([haar_unitary(rng, 4)[:, :3]])  # a 4 x 3 isometry: C^3 -> C^4
    square = identity_channel(3)
    rho = np.eye(3, dtype=complex) / 3
    p1, p2 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])
    big = np.eye(4, dtype=complex) / 4
    frame = Structure(3, ((3, 1),), np.eye(3, dtype=complex))
    return {
        "block-form-wide": lambda: has_block_form(wide, frame, support=np.eye(3)),
        "positive-part-wide": lambda: confines_positive_part(wide, np.diag([1.0, -1.0, 0.0])),
        "paired-wide": lambda: confines_paired_subspace(wide, rho, p1, p2),
        "paired-rho": lambda: confines_paired_subspace(square, big, p1, p2),
        "paired-p1": lambda: confines_paired_subspace(square, rho, np.diag([1.0, 0.0, 0.0, 0.0]), p2),
        "paired-p2": lambda: confines_paired_subspace(square, rho, p1, np.diag([0.0, 1.0, 1.0, 0.0])),
        "environment-rho": lambda: environment_state(wide, big),
    }


@pytest.mark.parametrize("case", list(_mismatched_channel_calls()))
def test_channel_predicates_raise_dimension_mismatch(case):
    with pytest.raises(DimensionMismatch):
        _mismatched_channel_calls()[case]()


def test_environment_state_constant_weights_input_independent():
    # when every member carries the same block probabilities, a preserving
    # channel leaks nothing about which member it received
    rng = np.random.default_rng(13)
    for trial in range(8):
        built = build_family(rng, random_blocks(rng, max_total=9), 3, equal_weights=True)
        decomp = decompose(built["states"])
        ch = preserving_block_channel(rng, decomp)
        envs = [environment_state(ch, s) for s in built["states"]]
        for e in envs:
            assert np.isclose(np.trace(e), 1.0, atol=1e-10)
            assert np.allclose(e, e.conj().T)
        worst = max(
            float(np.linalg.norm(envs[i] - envs[0])) for i in range(1, len(envs))
        )
        assert worst <= 1e-8, f"trial {trial}: {worst:.3e}"


def test_environment_state_sees_varying_block_weights():
    # with member-dependent block probabilities some preserving channel
    # imprints them on the environment
    rng = np.random.default_rng(19)
    built = build_family(rng, [(2, 1), (1, 2)], 2)
    assert np.abs(built["weights"][0] - built["weights"][1]).max() > 0.05
    decomp = decompose(built["states"])
    ch = preserving_block_channel(rng, decomp, strength=0.8)
    envs = [environment_state(ch, s) for s in built["states"]]
    assert np.linalg.norm(envs[0] - envs[1]) > 1e-3


def test_environment_state_distinguishes_for_leaky_channel():
    # a measurement channel writes which-state info into the environment
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    ch = kraus_channel([p0, p1])
    e0 = environment_state(ch, p0)
    e1 = environment_state(ch, p1)
    assert np.linalg.norm(e0 - e1) > 0.5


def test_confines_positive_part():
    rng = np.random.default_rng(14)
    for trial in range(6):
        built = build_family(rng, random_blocks(rng, max_total=8), 2)
        decomp = decompose(built["states"])
        rho, sig = built["states"]
        obs = rho / np.trace(rho).real - sig / np.trace(sig).real
        if np.linalg.norm(obs) < 1e-8:
            continue
        ch = preserving_block_channel(rng, decomp)
        # the channel fixes both states, hence the difference observable
        assert confines_positive_part(ch, obs)
    # a channel that does not fix the observable is rejected up front
    rng2 = np.random.default_rng(15)
    obs = np.diag([1.0, -1.0]).astype(complex)
    bad = random_cptp(rng2, 2, 2, 3)
    assert trace_norm(apply_to_matrix(bad, obs) - obs) > 1e-6
    with pytest.raises(NotPreserved):
        confines_positive_part(bad, obs)


def test_confines_positive_part_error_paths():
    obs = np.diag([1.0, -1.0]).astype(complex)
    # swap negates the observable, so the preservation hypothesis fails
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NotPreserved):
        confines_positive_part(kraus_channel([swap]), obs)
    # a numerically zero observable is rejected
    with pytest.raises(NotPreserved):
        confines_positive_part(identity_channel(2), np.zeros((2, 2)))
    # dephasing fixes diagonal observables and confines each eigenspace
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    deph = kraus_channel([p0, p1])
    assert confines_positive_part(deph, obs)


def test_confines_paired_subspace_positive():
    rng = np.random.default_rng(16)
    for trial in range(6):
        built = build_family(rng, [(1, 2), (1, 3)], 2)
        decomp = decompose(built["states"])
        st = decomp.structure
        emb = decomp.support
        p1 = emb @ block_projector(st, 0) @ emb.conj().T
        p2 = emb @ block_projector(st, 1) @ emb.conj().T
        rho = family_average(built["states"]).mat
        ch = preserving_block_channel(rng, decomp)
        assert confines_paired_subspace(ch, rho, p1, p2)


def test_confines_paired_subspace_hypothesis_checks():
    rng = np.random.default_rng(17)
    d = 4
    p1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    rho = np.eye(d, dtype=complex) / d
    ch = identity_channel(d)
    assert confines_paired_subspace(ch, rho, p1, p2)
    # not a projector
    with pytest.raises(HypothesisFailed):
        confines_paired_subspace(ch, rho, 0.5 * p1, p2)
    # projectors not orthogonal
    with pytest.raises(HypothesisFailed):
        confines_paired_subspace(ch, rho, p1, p1)
    # projectors do not cover the support of rho
    small = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(HypothesisFailed):
        confines_paired_subspace(ch, rho, small, p2)
    # the state has no support to split
    with pytest.raises(HypothesisFailed, match="state is numerically zero"):
        confines_paired_subspace(ch, np.zeros((d, d)), p1, p2)
    # channel moves the state
    mover = random_cptp(rng, d, d, 3)
    with pytest.raises(HypothesisFailed):
        confines_paired_subspace(mover, rho, p1, p2)


def test_confinement_transfers_with_coherent_fixed_state():
    # nontrivial channel (same unitary on both slots) fixing a state with
    # genuine cross-slot coherence: confinement of slot 1 transfers to slot 2
    rng = np.random.default_rng(18)
    for trial in range(5):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        big = np.kron(np.eye(2, dtype=complex), u)
        ch = kraus_channel([big])
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        coh = 0.5 * (u + u.conj().T)  # commutes with u
        rho = np.kron(np.eye(2), np.eye(2)) / 4.0 + 0.05 * np.kron(x, coh)
        assert np.linalg.eigvalsh(rho).min() > 0.0
        assert trace_norm(apply_to_matrix(ch, rho) - rho) < 1e-12
        p1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        assert confines_paired_subspace(ch, rho, p1, p2)
    # a channel leaking out of the first subspace fails the hypothesis
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    leaky = kraus_channel([swap])
    flat = np.eye(4, dtype=complex) / 4.0
    p1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    with pytest.raises(HypothesisFailed):
        confines_paired_subspace(leaky, flat, p1, p2)


def test_confines_paired_subspace_sees_leak_in_any_operator():
    # half identity, half swap of the two slots fixes the flat state but
    # leaks out of p1 through one operator only, wherever it is listed
    swap = np.zeros((4, 4), dtype=complex)
    swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
    flat = np.eye(4, dtype=complex) / 4.0
    p1 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
    half = np.sqrt(0.5)
    for ops in ([half * np.eye(4), half * swap], [half * swap, half * np.eye(4)]):
        with pytest.raises(HypothesisFailed, match="leaks out of p1 by 1.000e"):
            confines_paired_subspace(kraus_channel(ops), flat, p1, p2)


@pytest.mark.parametrize("name", ["tol_sym", "tol_trace", "tol_psd"])
def test_canonical_kraus_under_a_zero_boundary_tolerance(name):
    # the rebuilt operators represent the validated channel; a zero tolerance
    # does not check them again
    ch = random_cptp(np.random.default_rng(4), 4, 4, 5)
    strict = canonical_kraus(ch, Tolerances(**{name: 0.0}))
    assert np.array_equal(strict.kraus_ops, canonical_kraus(ch).kraus_ops)

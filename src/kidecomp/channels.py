"""Quantum channels in Kraus form and their structure predicates.

The central fact driving this module: a channel leaves every member of a
state family untouched exactly when, in the family's block/tensor frame, it
acts as the identity on each information factor and as some redundant-factor
channel fixing the block's redundant state. `has_block_form` tests that
shape, `block_channel` constructs channels of that shape, and the two
confinement predicates expose the subspace-leakage arguments behind the
characterization.

Each predicate tests a linear condition X(K) = 0 (a commutator with a matrix
unit, or a leakage (I - P) K P). Such a condition holds on the span of the
Kraus operators exactly when it holds on each given operator, and the stacked
magnitude sqrt(sum_i ||X(K_i)||_F^2) is unchanged by any isometric remix
K'_a = sum_i V[a, i] K_i. The predicates therefore work on the channel's own
operators, and their verdicts and magnitudes do not depend on how the channel
was presented. No Choi matrix is formed; `canonical_kraus` remains for callers
that want a gauge-fixed representation.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    HypothesisFailed,
    KStateNotFixed,
    NotPreserved,
    ValidationError,
    ZeroOperator,
)
from .linalg import (
    _hermitian_stack,
    _lapack,
    DEFAULT_TOL,
    StateFamily,
    Tolerances,
    as_complex_matrix,
    hermitian_part,
    state_family,
    support_projector,
)
from .structure import Structure

__all__ = [
    "KrausChannel",
    "kraus_channel",
    "identity_channel",
    "apply_to_matrix",
    "canonical_kraus",
    "PreservationReport",
    "preserves_family",
    "BlockFormReport",
    "has_block_form",
    "block_channel",
    "confines_positive_part",
    "confines_paired_subspace",
    "environment_state",
]


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    `kraus_ops` is the read-only k x d_out x d_in stack of the operators.
    """

    input_dim: int
    output_dim: int
    kraus_ops: np.ndarray

    def __len__(self) -> int:
        return len(self.kraus_ops)


def kraus_channel(ops, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Validate Kraus operators: shared shape, and trace preservation.

    Raises ValidationError when ||sum K^dag K - I||_F exceeds
    tol_psd * sqrt(d_in).
    """
    mats = [as_complex_matrix(k) for k in ops]
    if not mats:
        raise ValidationError("a channel needs at least one Kraus operator")
    d_out, d_in = mats[0].shape
    for i, k in enumerate(mats):
        if k.shape != (d_out, d_in):
            raise DimensionMismatch(f"Kraus operator {i} has shape {k.shape}, expected {(d_out, d_in)}")
    ops = np.stack(mats)
    stacked = ops.reshape(-1, d_in)  # V = [K_1; ...; K_k], so sum K^dag K = V^dag V
    defect = float(np.linalg.norm(stacked.conj().T @ stacked - np.eye(d_in)))
    if defect > tol.tol_psd * np.sqrt(d_in):
        raise ValidationError(f"channel is not trace preserving: defect {defect:.3e}")
    ops.setflags(write=False)
    return KrausChannel(d_in, d_out, ops)


def identity_channel(dim: int) -> KrausChannel:
    return kraus_channel([np.eye(dim, dtype=complex)])


def _check_operands(channel: KrausChannel, *mats, same_space: bool = True) -> None:
    """Raise DimensionMismatch unless every matrix is input_dim x input_dim
    and, with `same_space`, the channel maps its input space to itself."""
    d_in, d_out = channel.input_dim, channel.output_dim
    if same_space and d_out != d_in:
        raise DimensionMismatch(f"channel maps dim {d_in} to dim {d_out}; this predicate needs equal dims")
    for m in mats:
        if m.shape != (d_in, d_in):
            raise DimensionMismatch(f"operator of shape {m.shape} does not match channel input dim {d_in}")


def _apply_stack(channel: KrausChannel, mats: np.ndarray) -> np.ndarray:
    """sum_i K_i X K_i^dag for each X of an n x d_in x d_in stack.

    Two products for the whole stack. The first, [K_1; ...; K_k] X, is
    written straight into the regrouped layout [K_1 X, ..., K_k X]
    (d_out x k d_in per member); the second multiplies that by
    [K_1^dag; ...; K_k^dag]. Writing in place of regrouping a copy keeps
    the intermediate at one n k d_out d_in array.
    """
    _check_operands(channel, mats[0], same_space=False)
    d_in, d_out = channel.input_dim, channel.output_dim
    ops = channel.kraus_ops
    k, n = ops.shape[0], mats.shape[0]
    side = np.empty((n, d_out, k, d_in), dtype=complex)
    np.matmul(ops, mats[:, None], out=side.swapaxes(1, 2))  # side[m, :, i] = K_i X_m
    return side.reshape(n, d_out, k * d_in) @ ops.conj().swapaxes(1, 2).reshape(k * d_in, d_out)


def _trace_deviations(channel: KrausChannel, mats: np.ndarray) -> np.ndarray:
    """Trace norm of T(X) - X for each Hermitian X of a stack.

    T(X) - X is Hermitian, so its trace norm is the sum of the absolute
    eigenvalues of its Hermitian part, read from one stacked eigvalsh.
    """
    diff = _hermitian_stack(_apply_stack(channel, mats) - mats)
    with _lapack():
        return np.abs(np.linalg.eigvalsh(diff)).sum(axis=1)


def apply_to_matrix(channel: KrausChannel, mat) -> np.ndarray:
    """Linear extension of the channel to arbitrary matrices.

    The one-member case of the stacked application that every fixed-point
    test uses: sum_i K_i X K_i^dag from two matrix products.
    """
    return _apply_stack(channel, as_complex_matrix(mat)[None])[0]


def canonical_kraus(channel: KrausChannel, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Gauge-fixed Kraus representation from the Choi matrix's eigenvectors.

    The Choi matrix is sum_i vec(K_i) vec(K_i)^dag = M M^dag (row-major vec),
    with M the d_out d_in x k matrix whose columns are the vec(K_i). Its
    eigenpairs come from the thin SVD M = U S V^dag, eigenvalue s^2 with
    eigenvector a column of U, so the Choi matrix is never formed. Each
    eigenvector with eigenvalue above tol_zero times max(1, largest) becomes
    a Kraus operator scaled by the eigenvalue's square root, largest first.
    The result represents the validated input channel, so it is not
    checked again.
    """
    d_in, d_out = channel.input_dim, channel.output_dim
    vecs = channel.kraus_ops.reshape(len(channel), -1).T
    with _lapack():
        u, s, _ = np.linalg.svd(vecs, full_matrices=False)
    keep = s**2 > tol.tol_zero * max(1.0, float(s[0]) ** 2)
    ops = (u[:, keep] * s[keep]).T.reshape(-1, d_out, d_in)
    ops.setflags(write=False)
    return KrausChannel(d_in, d_out, ops)


@dataclass(frozen=True)
class PreservationReport:
    ok: bool
    max_deviation: float  # largest trace-norm change over the family


def preserves_family(channel: KrausChannel, family, tol: Tolerances = DEFAULT_TOL) -> PreservationReport:
    """Whether every member is a fixed point (trace-norm change <= Tolerances.VERDICT).

    All members go through the channel in one stacked application, and each
    change T(rho) - rho, a Hermitian matrix, has its trace norm read as the
    sum of its absolute eigenvalues, from one stacked eigvalsh.
    """
    fam = family if isinstance(family, StateFamily) else state_family(family, tol=tol)
    if channel.input_dim != fam.dim or channel.output_dim != fam.dim:
        raise DimensionMismatch("channel dimensions do not match the family")
    worst = float(_trace_deviations(channel, fam.mats()).max())
    return PreservationReport(worst <= Tolerances.VERDICT, worst)


@dataclass(frozen=True)
class BlockFormReport:
    ok: bool
    max_violation: float  # largest stacked defect over all matrix units
    violations: tuple  # (block, row, col) triples whose defect exceeds Tolerances.VERDICT


def has_block_form(channel: KrausChannel, structure: Structure, support=None) -> BlockFormReport:
    """Whether the channel is identity (x) redundant-channel on every block.

    Equivalent test: the channel's Kraus operators commute with every matrix
    unit E = structure.matrix_unit(l, row, col). The defect of unit
    (l, row, col) is the stacked commutator sqrt(sum_i ||[K_i, E]||_F^2)
    over the given operators, which every isometric remix of the operators
    leaves unchanged, so verdicts and magnitudes do not depend on how the
    channel was presented. The triple (l, row, col) is reported in
    `violations` when its defect exceeds Tolerances.VERDICT; `max_violation` is the
    largest defect over all units.

    When the structure lives on a proper subspace of the channel's space,
    pass `support` (an isometry from structure coordinates into the
    channel's coordinates): matrix units are lifted through it, and every
    unit's defect is at least the stacked leakage
    sqrt(sum_i ||(I - S S^dag) K_i S||_F^2) out of the supported subspace.

    Each operator is mapped once into the block frame, K' = W^dag K W with
    W = support @ transform^dag, and each defect is read off slices of K',
    so no d x d matrix unit is built and the cost is O(k d^3) for k Kraus
    operators. Every squared norm is summed from non-negative parts, with
    no difference of squares, so an exact block-form channel reads at
    roundoff level.
    """
    frame = structure.transform.conj().T
    if support is None:
        if channel.input_dim != structure.dim or channel.output_dim != structure.dim:
            raise DimensionMismatch("channel dimensions do not match the structure")
    else:
        _check_operands(channel)
        emb = np.asarray(support, dtype=complex)
        if emb.shape != (channel.input_dim, structure.dim):
            raise DimensionMismatch(
                f"support embedding has shape {emb.shape}, expected "
                f"({channel.input_dim}, {structure.dim})"
            )
        frame = emb @ frame
    ops = channel.kraus_ops
    row_part = frame.conj().T @ ops  # W^dag K
    k_frame = row_part @ frame  # K' = W^dag K W
    power = (np.abs(k_frame) ** 2).sum(axis=0)
    ends = np.cumsum([di * dr for di, dr in structure.blocks])
    slices = [slice(end - di * dr, end) for end, (di, dr) in zip(ends, structure.blocks)]
    outside = power.copy()
    for sl in slices:
        outside[sl, sl] = 0.0
    # column j collects |K'_ij|^2 from rows outside j's block, row i from
    # columns outside i's block
    col_ext = outside.sum(axis=0)
    row_ext = outside.sum(axis=1)
    leak = 0.0
    if support is not None:
        # Q K W and W^dag K Q, with Q = I - W W^dag
        col_leak = (np.abs(ops @ frame - frame @ k_frame) ** 2).sum(axis=(0, 1))
        row_leak = (np.abs(row_part - k_frame @ frame.conj().T) ** 2).sum(axis=(0, 2))
        col_ext = col_ext + col_leak
        row_ext = row_ext + row_leak
        leak = float(np.sqrt(col_leak.sum()))
    worst = 0.0
    violations = []
    for l, ((di, dr), sl) in enumerate(zip(structure.blocks, slices)):
        # ||K'_ab||^2 between info groups a and b of block l, off the diagonal
        inner = power[sl, sl].reshape(di, dr, di, dr).sum(axis=(1, 3))
        np.fill_diagonal(inner, 0.0)
        # [K', E_rc] keeps column group r off row group r, row group c off
        # column group c, and R_rr - R_cc on the diagonal sub-blocks
        col_r = col_ext[sl].reshape(di, dr).sum(axis=1) + inner.sum(axis=0)
        row_c = row_ext[sl].reshape(di, dr).sum(axis=1) + inner.sum(axis=1)
        diag = np.einsum("kaiaj->kaij", k_frame[:, sl, sl].reshape(-1, di, dr, di, dr))
        gap = (np.abs(diag[:, :, None] - diag[:, None, :]) ** 2).sum(axis=(0, 3, 4))
        defect = np.maximum(np.sqrt(col_r[:, None] + row_c[None, :] + gap), leak)
        worst = max(worst, float(defect.max()))
        violations.extend((l, int(r), int(c)) for r, c in np.argwhere(defect > Tolerances.VERDICT))
    return BlockFormReport(not violations, worst, tuple(violations))


def block_channel(structure: Structure, per_block, red_states=None) -> KrausChannel:
    """Assemble the channel acting as identity (x) per_block[l] on block l.

    Global Kraus operator i is the direct sum over blocks of each block
    channel's i-th Kraus operator (shorter lists are padded with zeros), so
    cross-block coherences are handled consistently and the result is trace
    preserving whenever every block channel is and the structure's
    transform G is unitary. The block channels are validated channels, so
    only G is checked: its defect ||G^dag G - I||_F must be at most
    Tolerances.CERTIFICATE * sqrt(d) (ValidationError otherwise), and the
    assembled operators are not checked again. When `red_states` is given
    (one state per block, ValidationError otherwise), each block channel
    must fix its state, read through its Hermitian part, within
    Tolerances.VERDICT in trace norm (KStateNotFixed otherwise) -- exactly
    the condition for the assembled channel to preserve every family with
    this structure.
    """
    if len(per_block) != len(structure.blocks):
        raise DimensionMismatch(
            f"need {len(structure.blocks)} block channels, got {len(per_block)}"
        )
    for l, (ch, (_, dr)) in enumerate(zip(per_block, structure.blocks)):
        if ch.input_dim != dr or ch.output_dim != dr:
            raise DimensionMismatch(
                f"block {l} channel acts on dim {ch.input_dim}, expected {dr}"
            )
    if red_states is not None:
        if len(red_states) != len(per_block):
            raise ValidationError(
                f"need {len(per_block)} redundant states, one per block, got {len(red_states)}"
            )
        for l, (ch, red) in enumerate(zip(per_block, red_states)):
            dev = float(_trace_deviations(ch, hermitian_part(red)[None])[0])
            if dev > Tolerances.VERDICT:
                raise KStateNotFixed(
                    f"block {l} channel moves its redundant state by {dev:.3e}"
                )
    g = structure.transform
    defect = float(np.linalg.norm(g.conj().T @ g - np.eye(structure.dim)))
    if defect > Tolerances.CERTIFICATE * np.sqrt(structure.dim):
        raise ValidationError(f"structure transform is not unitary: defect {defect:.3e}")
    n_ops = max(len(ch.kraus_ops) for ch in per_block)
    inner = np.zeros((n_ops, structure.dim, structure.dim), dtype=complex)
    for l, (ch, (di, dr)) in enumerate(zip(per_block, structure.blocks)):
        off = structure.block_offset(l)
        sz = di * dr
        inner[: len(ch), off : off + sz, off : off + sz] = np.kron(np.eye(di), ch.kraus_ops)
    ops = g.conj().T @ inner @ g
    ops.setflags(write=False)
    return KrausChannel(structure.dim, structure.dim, ops)


def _stacked_leak(channel: KrausChannel, p: np.ndarray) -> float:
    """Stacked leakage sqrt(sum_i ||(I - P) K_i P||_F^2) out of projector P."""
    kp = channel.kraus_ops @ p
    return float(np.linalg.norm(kp - p @ kp))


def confines_positive_part(channel: KrausChannel, obs, tol: Tolerances = DEFAULT_TOL) -> bool:
    """No leakage out of the positive eigenspace of a preserved observable.

    Requires T(obs) = obs within Tolerances.VERDICT * max(1, ||obs||_F)
    (NotPreserved otherwise), with T(obs) from the stacked Kraus
    application of `apply_to_matrix` and obs read through its Hermitian
    part. Returns True iff the stacked leakage
    sqrt(sum_i ||(I - P) K_i P||_F^2) over the given Kraus operators is at
    most Tolerances.VERDICT, with P the projector onto the strictly
    positive eigenspace of obs. For a preserved observable this always
    holds; the predicate exists so the leakage argument is directly
    checkable.
    """
    o = hermitian_part(obs)
    _check_operands(channel, o)
    dev = float(np.linalg.norm(apply_to_matrix(channel, o) - o))
    if dev > Tolerances.VERDICT * max(1.0, float(np.linalg.norm(o))):
        raise NotPreserved(f"channel moves the observable by {dev:.3e}")
    with _lapack():
        w, v = np.linalg.eigh(o)
    lmax = float(np.abs(w).max())
    if lmax <= tol.tol_zero:
        raise NotPreserved("observable is numerically zero")
    pos = v[:, w > tol.tol_rank * lmax]
    return _stacked_leak(channel, pos @ pos.conj().T) <= Tolerances.VERDICT


def confines_paired_subspace(channel: KrausChannel, rho, p1, p2, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Leakage confinement transfers across a preserved state's support split.

    Hypotheses (HypothesisFailed if any is violated): P1 and P2 are
    orthogonal projectors summing to the support projector of rho, the
    channel fixes rho (trace-norm change at most Tolerances.VERDICT, read
    from the eigenvalues of the Hermitian change, as in `preserves_family`),
    and the Kraus operators do not leak out of P1.
    Returns True iff they do not leak out of P2 either. Leakage out of P is
    the stacked sqrt(sum_i ||(I - P) K_i P||_F^2) over the given operators,
    compared with Tolerances.VERDICT.
    """
    r = hermitian_part(rho)
    q1 = hermitian_part(p1)
    q2 = hermitian_part(p2)
    _check_operands(channel, r, q1, q2)
    d = channel.input_dim
    for name, q in (("p1", q1), ("p2", q2)):
        if float(np.linalg.norm(q @ q - q)) > Tolerances.VERDICT * d:
            raise HypothesisFailed(f"{name} is not an orthogonal projector")
    if float(np.linalg.norm(q1 @ q2)) > Tolerances.VERDICT * d:
        raise HypothesisFailed("p1 and p2 are not orthogonal to each other")
    try:
        p_sup = support_projector(r, tol)
    except ZeroOperator:
        raise HypothesisFailed("state is numerically zero") from None
    if float(np.linalg.norm(q1 + q2 - p_sup)) > Tolerances.VERDICT * d:
        raise HypothesisFailed("p1 + p2 does not equal the support projector of rho")
    dev = float(_trace_deviations(channel, r[None])[0])
    if dev > Tolerances.VERDICT:
        raise HypothesisFailed(f"channel moves the state by {dev:.3e}")
    leak1 = _stacked_leak(channel, q1)
    if leak1 > Tolerances.VERDICT:
        raise HypothesisFailed(f"channel already leaks out of p1 by {leak1:.3e}")
    return _stacked_leak(channel, q2) <= Tolerances.VERDICT


def environment_state(channel: KrausChannel, rho) -> np.ndarray:
    """State left in the environment of the channel's isometric dilation.

    Entry (i, j) is Tr(K_i rho K_j^dag) for the channel's own Kraus list,
    i.e. the environment basis is tied to that list; compare environment
    states across inputs only for a fixed channel object.
    """
    r = as_complex_matrix(rho)
    _check_operands(channel, r, same_space=False)
    ops = channel.kraus_ops
    k = ops.shape[0]
    # Tr(K_i rho K_j^dag) = sum_ab (K_i rho)_ab conj(K_j)_ab
    env = (ops @ r).reshape(k, -1) @ ops.reshape(k, -1).conj().T
    return hermitian_part(env)

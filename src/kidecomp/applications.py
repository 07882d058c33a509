"""Operational consequences of a family's block/tensor decomposition.

Four questions about a family of states reduce to the shape of its finest
decomposition: can the states be broadcast onto two parties, can a channel
fixing them nevertheless leave a trace of the state label in its
environment, can a bipartite family be cloned sequentially, and how many
classical/quantum/redundant bits does the family carry. Each predicate here
answers one of them, returning a small report with the witnesses.

A family is validated where it enters (a StateFamily is taken as it is);
the marginals, block averages and broadcast outputs built from it are not
checked again. `broadcast_states` builds each output as a state: weights
clipped at 0, trace scaled to 1; its `marginal_defect` is the output check.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NotBroadcastable,
    ValidationError,
    ZeroOperator,
)
from .linalg import (
    _as_densities,
    _as_family,
    _eigh,
    _entropy_bits,
    _hermitian_stack,
    _lapack,
    DEFAULT_TOL,
    StateFamily,
    Tolerances,
    as_complex_matrix,
    entropy_of_spectrum,
    partial_trace,
    state_family,
)
from .structure import DecomposedFamily, _component_stacks, decompose

__all__ = [
    "BroadcastReport",
    "BroadcastOutput",
    "ImprintReport",
    "ImprintingParts",
    "GeneralizedImprintReport",
    "SequentialCloneReport",
    "EntropyReport",
    "BlockEntropy",
    "is_broadcastable",
    "broadcast_states",
    "no_imprinting_holds",
    "imprinting_parts",
    "generalized_no_imprinting",
    "sequential_clonability",
    "entropy_report",
]

BROADCAST_MODES = ("product", "classical", "quantum")


@dataclass(frozen=True)
class BroadcastReport:
    ok: bool
    witness_block: int | None  # first block with a nontrivial information factor
    commutator_defect: float  # cross-check: max Frobenius norm of [rho_s, rho_t]
    decomposition: DecomposedFamily


def is_broadcastable(family, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> BroadcastReport:
    """A family can be broadcast iff every block has d_info = 1.

    That holds exactly when the states all commute, so the report carries
    the largest pairwise commutator norm as an independent cross-check.
    """
    decomp = decompose(family, seed=seed, tol=tol)
    witness = None
    for l, (di, _) in enumerate(decomp.structure.blocks):
        if di > 1:
            witness = l
            break
    defect = 0.0
    mats = decomp.family.mats()
    for i in range(len(mats) - 1):
        rest = mats[i + 1 :]
        comm = np.linalg.norm(mats[i] @ rest - rest @ mats[i], axis=(1, 2))
        defect = max(defect, float(comm.max()))
    return BroadcastReport(witness is None, witness, defect, decomp)


@dataclass(frozen=True)
class BroadcastOutput:
    mode: str
    chi: tuple  # one DensityMatrix on (ambient x ambient) per family member
    marginal_defect: float  # worst distance of either marginal from rho_s


def broadcast_states(decomp: DecomposedFamily, mode: str = "product", tol: Tolerances = DEFAULT_TOL) -> BroadcastOutput:
    """Two-party outputs whose both marginals reproduce every family member.

    Requires every block to have d_info = 1 (NotBroadcastable otherwise).
    The output is block diagonal over pairs of matching blocks, with the
    per-block two-party state chosen by mode: "product" uses red (x) red,
    "classical" perfectly correlates the redundant eigenbasis, "quantum"
    purifies it into an entangled pair (all phases zero). Each output is a
    state by construction: the weights are clipped at 0 and the trace is
    scaled to 1 (ZeroOperator when it is at most tol_zero); the outputs are
    not checked against tol_trace or tol_psd.
    """
    if mode not in BROADCAST_MODES:
        raise ValueError(f"mode must be one of {BROADCAST_MODES}, got {mode!r}")
    for l, (di, _) in enumerate(decomp.structure.blocks):
        if di > 1:
            raise NotBroadcastable(f"block {l} has information dimension {di}")
    d0 = decomp.family.dim
    lifted = []  # per block: its two-party state in ambient coordinates
    for l, (_, dr) in enumerate(decomp.structure.blocks):
        # q_k at entry (k, k) of red (x) red, in the eigenbasis of red
        diag = (np.eye(dr) * np.asarray(decomp.red_spectra[l])[:, None]).reshape(-1)
        if mode == "product":
            zeta = np.kron(decomp.red_states[l].mat, decomp.red_states[l].mat)
        elif mode == "classical":
            zeta = np.diag(diag)
        else:  # quantum
            zeta = np.outer(np.sqrt(diag), np.sqrt(diag))
        embed = decomp.support @ decomp.structure.block_basis(l)
        lift = np.kron(embed, embed)
        lifted.append(lift @ zeta @ lift.conj().T)
    chis = _hermitian_stack(np.tensordot(decomp.weights.clip(0.0), np.stack(lifted), axes=1))
    traces = np.trace(chis, axis1=1, axis2=2).real
    if np.any(traces <= tol.tol_zero):
        raise ZeroOperator("a member's two-party output has no weight to normalize")
    chis /= traces[:, None, None]
    rhos = decomp.family.mats()
    worst = max(
        float(np.linalg.norm(partial_trace(chis, d0, d0, keep=keep) - rhos, axis=(1, 2)).max())
        for keep in ("left", "right")
    )
    return BroadcastOutput(mode, tuple(_as_densities(chis)), worst)


@dataclass(frozen=True)
class ImprintReport:
    ok: bool
    offending: tuple | None  # (s, s_prime, block) of the first unequal weights
    max_weight_gap: float
    decomposition: DecomposedFamily


def no_imprinting_holds(family, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> ImprintReport:
    """No channel fixing the family can leave the label in its environment.

    Holds iff the weight rows of the decomposition are identical across
    states (within Tolerances.VERDICT); the first offending (s, s', block)
    is reported otherwise.
    """
    decomp = decompose(family, seed=seed, tol=tol)
    offending, worst = _weight_gaps(decomp.weights)
    return ImprintReport(offending is None, offending, worst, decomp)


def _weight_gaps(w: np.ndarray):
    """The first (s, s', block), in lexicographic order, whose two weights
    differ by more than Tolerances.VERDICT (None if there is none), and the
    largest gap."""
    # the largest pairwise gap in a column is its range
    worst = float((w.max(axis=0) - w.min(axis=0)).max())
    for s in range(w.shape[0] - 1):
        over = np.abs(w[s + 1 :] - w[s]) > Tolerances.VERDICT
        if over.any():
            t, l = divmod(int(np.argmax(over)), w.shape[1])
            return (s, s + 1 + t, l), worst
    return None, worst


@dataclass(frozen=True)
class ImprintingParts:
    """Pieces of an operator that a family-preserving channel cannot mix.

    outer lives on the orthocomplement of the family's support, the two
    cross parts connect that complement to the support, and block_parts[l]
    is the redundant-factor compression of the support part on block l.
    """

    outer: np.ndarray
    outer_to_support: np.ndarray
    support_to_outer: np.ndarray
    block_parts: tuple


def imprinting_parts(sigma, decomp: DecomposedFamily) -> ImprintingParts:
    """Split a probe operator along the family's preserved decomposition."""
    m = as_complex_matrix(sigma)
    d0 = decomp.family.dim
    if m.shape != (d0, d0):
        raise DimensionMismatch(
            f"probe operator has shape {m.shape}, expected ({d0}, {d0})"
        )
    p_a = decomp.support @ decomp.support.conj().T
    p_0 = np.eye(d0) - p_a
    parts = []
    for l, (di, dr) in enumerate(decomp.structure.blocks):
        embed = decomp.support @ decomp.structure.block_basis(l)  # d0 x di*dr
        compressed = embed.conj().T @ m @ embed
        parts.append(partial_trace(compressed, di, dr, keep="right"))
    return ImprintingParts(
        outer=p_0 @ m @ p_0,
        outer_to_support=p_0 @ m @ p_a,
        support_to_outer=p_a @ m @ p_0,
        block_parts=tuple(parts),
    )


@dataclass(frozen=True)
class GeneralizedImprintReport:
    ok: bool
    offending: tuple | None  # (s, s_prime, part_name) of the first mismatch
    max_gap: float


def generalized_no_imprinting(sigmas, decomp: DecomposedFamily) -> GeneralizedImprintReport:
    """Whether probe operators agree on everything a preserving channel keeps.

    Feeds each probe through `imprinting_parts` and compares all four parts
    across probes; they must be independent of the probe index within
    Tolerances.VERDICT for no channel fixing the family to distinguish the
    probes through its environment.
    """
    sigmas = list(sigmas)
    if len(sigmas) < 2:
        raise ValidationError("need at least two probe operators to compare")
    parts = [imprinting_parts(s, decomp) for s in sigmas]
    offending = None
    worst = 0.0

    def gap(a, b):
        return float(np.linalg.norm(a - b))

    for s in range(len(parts)):
        for t in range(s + 1, len(parts)):
            named = [
                ("outer", gap(parts[s].outer, parts[t].outer)),
                ("outer_to_support", gap(parts[s].outer_to_support, parts[t].outer_to_support)),
                ("support_to_outer", gap(parts[s].support_to_outer, parts[t].support_to_outer)),
            ]
            for l in range(decomp.n_blocks):
                named.append(
                    (f"block_{l}", gap(parts[s].block_parts[l], parts[t].block_parts[l]))
                )
            for name, g in named:
                worst = max(worst, g)
                if g > Tolerances.VERDICT and offending is None:
                    offending = (s, t, name)
    return GeneralizedImprintReport(offending is None, offending, worst)


@dataclass(frozen=True)
class SequentialCloneReport:
    clonable: bool
    residues: tuple  # residues[s][l]: operator on red(l) (x) second party
    orthogonality_defect: float  # worst normalized overlap between residues
    blocks: tuple  # (d_info, d_red) per block of the first-party marginals
    marginal_decomposition: DecomposedFamily


def sequential_clonability(chis, d_first: int, d_second: int, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> SequentialCloneReport:
    """Whether bipartite states survive cloning of their first party.

    Decomposes the first-party marginals; the parts of each chi that a
    cloner must both keep and copy are the per-block residues obtained by
    compressing the first party onto a block and tracing out its
    information factor. The residue test calls cloning possible iff, within
    every block, the residues of different states are orthogonal: every
    normalized overlap (the worst is `orthogonality_defect`) is at most
    Tolerances.VERDICT. When all inputs are pure, a pairwise-overlap test
    (|<chi_s|chi_t>| within Tolerances.VERDICT of 0 or 1) sets the flag
    instead. An input counts as pure when exactly one eigenvalue exceeds
    tol_rank * max(1, ||chi_s||_F) in absolute value, the rule of
    `np.linalg.matrix_rank` read off one stacked eigh. The two tests are
    not equivalent: for |00> and (|10> + |+1>)/norm on
    2 (x) 2 it says True while the residues overlap by 0.577. Which one
    sequential cloning means is an open question.

    `chis` is a StateFamily, taken as it is, or a list of matrices, which
    is validated with `state_family`.
    """
    fam = chis if isinstance(chis, StateFamily) else state_family(chis, tol=tol)
    if len(fam) < 2:
        raise ValidationError("need at least two states to clone against each other")
    d = d_first * d_second
    if fam.dim != d:
        raise DimensionMismatch(f"states have dim {fam.dim}, expected {d} = {d_first} x {d_second}")
    stacked = fam.mats()
    marginals = partial_trace(stacked, d_first, d_second, keep="left")
    decomp = decompose(_as_family(_hermitian_stack(marginals)), seed=seed, tol=tol)

    per_block = []
    for l, (di, dr) in enumerate(decomp.structure.blocks):
        embed = decomp.support @ decomp.structure.block_basis(l)  # d_first x di*dr
        lift = np.kron(embed, np.eye(d_second, dtype=complex))
        compressed = lift.conj().T @ stacked @ lift  # on info (x) red (x) second
        per_block.append(partial_trace(compressed, di, dr * d_second, keep="right"))
    residues = tuple(zip(*per_block))

    worst = 0.0
    for l in range(decomp.n_blocks):
        for s in range(len(fam)):
            for t in range(s + 1, len(fam)):
                a, b = residues[s][l], residues[t][l]
                na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
                if na <= tol.tol_zero or nb <= tol.tol_zero:
                    continue
                overlap = abs(complex(np.vdot(a.reshape(-1), b.reshape(-1)))) / (na * nb)
                worst = max(worst, overlap)
    clonable = worst <= Tolerances.VERDICT

    with _lapack():
        w, v = np.linalg.eigh(stacked)
    cut = tol.tol_rank * np.maximum(1.0, np.linalg.norm(stacked, axis=(1, 2)))
    if (np.count_nonzero(np.abs(w) > cut[:, None], axis=1) == 1).all():
        vecs = v[:, :, -1] * np.sqrt(np.clip(w[:, -1], 0.0, None))[:, None]
        clonable = True
        for s in range(len(vecs)):
            for t in range(s + 1, len(vecs)):
                ov = abs(complex(np.vdot(vecs[s], vecs[t])))
                ov /= max(float(np.linalg.norm(vecs[s]) * np.linalg.norm(vecs[t])), tol.tol_zero)
                if min(ov, abs(1.0 - ov)) > Tolerances.VERDICT:
                    clonable = False
    return SequentialCloneReport(
        clonable, tuple(residues), worst, decomp.structure.blocks, decomp
    )


@dataclass(frozen=True)
class BlockEntropy:
    weight: float  # average probability of the block
    info_bits: float  # entropy of the averaged information state
    red_bits: float  # entropy of the redundant state


@dataclass(frozen=True)
class EntropyReport:
    """Information split of an ensemble along its decomposition, in bits.

    classical: entropy of the block label; nonclassical: average entropy of
    the information factors; redundant: average entropy of the redundant
    factors. Blind compression of the ensemble costs classical +
    nonclassical qubits per state, of which the classical part may travel
    over a classical channel, and teleportation consumes nonclassical ebits.
    """

    classical: float
    nonclassical: float
    redundant: float
    per_block: tuple

    @property
    def total(self) -> float:
        return self.classical + self.nonclassical + self.redundant

    @property
    def compression_qubits(self) -> float:
        return self.classical + self.nonclassical

    @property
    def classical_replaceable_bits(self) -> float:
        return self.classical

    @property
    def teleport_ebits(self) -> float:
        return self.nonclassical


def entropy_report(decomp: DecomposedFamily, tol: Tolerances = DEFAULT_TOL) -> EntropyReport:
    """Classical/nonclassical/redundant entropy split of a weighted family.

    The prior is the family's own weights (uniform when it has none); give
    another prior by decomposing `state_family(states, weights=...)`. The
    three components add up to the entropy of the weighted average state,
    and they are additive under `tensor_structure`.
    """
    pw = decomp.family.effective_weights()
    p_blocks = pw @ decomp.weights  # average probability per block
    per_block = []
    nonclassical = 0.0
    redundant = 0.0
    for l, (w, infos) in enumerate(_component_stacks(decomp)):
        p_l = float(p_blocks[l])
        acc = np.tensordot(pw * w, infos, axes=1)
        if p_l > tol.tol_zero:
            info_bits = _entropy_bits(_eigh(acc / p_l)[0], tol)
        else:
            info_bits = 0.0
        red_bits = entropy_of_spectrum(decomp.red_spectra[l])
        nonclassical += p_l * info_bits
        redundant += p_l * red_bits
        per_block.append(BlockEntropy(p_l, info_bits, red_bits))
    classical = entropy_of_spectrum(p_blocks)
    return EntropyReport(classical, nonclassical, redundant, tuple(per_block))

"""Maximal simultaneous block/tensor decomposition of a state family.

Given density matrices rho_s on a shared space, there is a finest unitary
change of coordinates under which the support of the average splits as

    H = (+)_l  C^d_info(l) (x) C^d_red(l)

with every family member taking the form

    rho_s = (+)_l  w[s, l] * info_state[s, l] (x) red_state[l],

where the redundant factor states red_state[l] do not depend on s. The block
label carries classical information, the information factor carries the
quantum part, and the redundant factor carries none. `decompose` computes
this finest structure; `check_maximal` certifies it; `structures_equivalent`
compares two structures up to the inherent gauge freedom (block permutation
and per-block local unitaries); `tensor_structure` combines decompositions of
independent families.

All functions are pure; returned dataclasses hold read-only arrays.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (
    _commutant_basis,
    _intertwiners,
    isotypic_decompose,
)
from .exceptions import (
    DimensionMismatch,
    MaximalityCheckFailed,
    StatesIdentical,
    ValidationError,
    ZeroOperator,
)
from .linalg import (
    _density_matrices,
    _hermitian_stack,
    _lapack,
    DEFAULT_TOL,
    DensityMatrix,
    StateFamily,
    Tolerances,
    as_complex_matrix,
    density_matrix,
    hermitian_eig,
    hermitian_part,
    partial_trace,
    polar_offblock,
    state_family,
    support_basis,
    support_projector,
)

__all__ = [
    "Structure",
    "DecomposedFamily",
    "SplitResult",
    "PairingResult",
    "MaximalityReport",
    "family_average",
    "difference_split",
    "coherence_pairing",
    "decompose",
    "check_maximal",
    "structures_equivalent",
    "decompositions_equivalent",
    "tensor_structure",
]

_ISO_SEED_STRIDE = 1000003  # keeps the two isotypic passes on disjoint seed ranges


@dataclass(frozen=True)
class Structure:
    """Block/tensor coordinate frame on a d-dimensional space.

    `transform` is a d x d unitary mapping ambient coordinates to the stacked
    block coordinates: block l occupies a contiguous slice of size
    d_info(l) * d_red(l), with the information index major within the slice.
    """

    dim: int
    blocks: tuple  # ((d_info, d_red), ...)
    transform: np.ndarray

    def block_offset(self, l: int) -> int:
        return sum(di * dr for di, dr in self.blocks[:l])

    def block_size(self, l: int) -> int:
        di, dr = self.blocks[l]
        return di * dr

    def block_basis(self, l: int) -> np.ndarray:
        """Columns: orthonormal basis of block l in ambient coordinates."""
        off = self.block_offset(l)
        return self.transform.conj().T[:, off : off + self.block_size(l)]

    def block_projector(self, l: int) -> np.ndarray:
        b = self.block_basis(l)
        p = b @ b.conj().T
        return 0.5 * (p + p.conj().T)

    def matrix_unit(self, l: int, row: int, col: int) -> np.ndarray:
        """Partial isometry acting as |row><col| on block l's information factor.

        These operators generate the algebra that block-form channels must
        commute with; they satisfy the matrix-unit product rule and sum to
        the identity over (l, j, j).
        """
        di, dr = self.blocks[l]
        if not (0 <= row < di and 0 <= col < di):
            raise DimensionMismatch(f"matrix unit indices out of range for block {l}")
        off = self.block_offset(l)
        m = np.zeros((self.dim, self.dim), dtype=complex)
        rs, cs = off + row * dr, off + col * dr
        m[rs : rs + dr, cs : cs + dr] = np.eye(dr)
        return self.transform.conj().T @ m @ self.transform

    def validate(self, tol: Tolerances = DEFAULT_TOL) -> float:
        """Check dimension bookkeeping and unitarity of the transform.

        Every matrix unit is G^dag M G with M an exact partial isometry in
        block coordinates, so the matrix-unit axioms rest on G alone: the
        adjoint rule holds exactly, completeness is off by G^dag G - I, and
        each product rule by at most ||G||^2 ||G G^dag - I||, where
        ||G G^dag - I||_F = ||G^dag G - I||_F for square G. Returns that
        unitarity defect; raises ValidationError when it exceeds tol_psd.
        """
        g = as_complex_matrix(self.transform)
        if g.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"transform shape {g.shape} != dim {self.dim}")
        if sum(di * dr for di, dr in self.blocks) != self.dim:
            raise DimensionMismatch("block dimensions do not add up to dim")
        if any(di < 1 or dr < 1 for di, dr in self.blocks):
            raise DimensionMismatch("block factor dimensions must be >= 1")
        defect = float(np.linalg.norm(g.conj().T @ g - np.eye(self.dim)))
        if defect > tol.tol_psd:
            raise ValidationError(f"structure transform is not unitary: defect {defect:.3e}")
        return defect


def family_average(family, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Weighted average of the family (uniform when no weights given).

    Also verifies that the average's support contains every member's,
    which must hold for positive weights; a violation means the inputs or
    tolerances are numerically broken.
    """
    fam = family if isinstance(family, StateFamily) else state_family(family, tol=tol)
    mats = np.stack(fam.mats())
    avg = density_matrix(np.tensordot(fam.effective_weights(), mats, axes=1), tol)
    proj = support_projector(avg.mat, tol)
    leaks = np.linalg.norm(mats - proj @ mats @ proj, axis=(1, 2))
    over = leaks > Tolerances.VERDICT
    if over.any():
        k = int(np.argmax(over))
        raise ValidationError(
            f"state {k} leaks {leaks[k]:.3e} outside the family average's support"
        )
    return avg


@dataclass(frozen=True)
class SplitResult:
    """Sign split of the support of rho + rho_prime along the witness."""

    witness: np.ndarray  # rho/tr - rho_prime/tr', traceless Hermitian
    basis_pos: np.ndarray  # strictly positive eigenspace of the witness
    basis_neg: np.ndarray  # the rest of the joint support


def difference_split(rho, rho_prime, tol: Tolerances = DEFAULT_TOL) -> SplitResult:
    """Split the joint support by the sign of the normalized difference.

    Any channel fixing both states can never move weight between the two
    returned subspaces. Raises StatesIdentical when the normalized states
    coincide within tol_zero, and ZeroOperator when an input is zero.
    """
    a = hermitian_part(rho)
    b = hermitian_part(rho_prime)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    ta, tb = float(np.trace(a).real), float(np.trace(b).real)
    if ta <= tol.tol_zero or tb <= tol.tol_zero:
        raise ZeroOperator("states must have positive trace")
    witness = a / ta - b / tb
    if float(np.linalg.norm(witness)) <= tol.tol_zero:
        raise StatesIdentical("normalized states coincide; nothing to split")
    vs = support_basis(a + b, tol)
    w, u = hermitian_eig(vs.conj().T @ witness @ vs, tol)
    lmax = float(np.abs(w).max())
    pos = w > tol.tol_rank * lmax
    basis_pos = vs @ u[:, pos]
    basis_neg = vs @ u[:, ~pos]
    if basis_pos.shape[1] == 0 or basis_neg.shape[1] == 0:
        raise StatesIdentical("witness has eigenvalues of one sign only")
    return SplitResult(witness, basis_pos, basis_neg)


@dataclass(frozen=True)
class PairingResult:
    """Polar data of the off-diagonal block of a state across two subspaces."""

    w: np.ndarray  # partial isometry, pairs k1 onto k2
    n: np.ndarray  # PSD factor supported on k1
    p_plus: np.ndarray  # projector onto the +1 eigenside of the pairing
    p_minus: np.ndarray
    k1_basis: np.ndarray
    k2_basis: np.ndarray
    k1_perp_basis: np.ndarray  # complement of k1 inside subspace 1
    k2_perp_basis: np.ndarray


def _complement_within(subspace: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(subspace) minus range(inner)."""
    q = subspace - inner @ (inner.conj().T @ subspace)
    if float(np.linalg.norm(q)) < 0.5:
        return np.zeros((subspace.shape[0], 0), dtype=complex)
    with _lapack():
        u, s, _ = np.linalg.svd(q, full_matrices=False)
    return u[:, s > 0.5 * s[0]]


def coherence_pairing(rho, basis1, basis2, tol: Tolerances = DEFAULT_TOL) -> PairingResult:
    """Pair, through a state's coherences, two orthogonal subspaces.

    With P_i the projectors onto the given subspaces, take the polar
    decomposition P2 rho P1 = W N. Any channel fixing rho must respect the
    resulting +/- eigenspace projectors P_plus and P_minus, and the paired
    parts k1/k2 behave as one doubled subspace. Raises ZeroOffBlock when the
    off-diagonal block vanishes (the subspaces carry no mutual coherence).
    """
    r = hermitian_part(rho)
    b1 = as_complex_matrix(basis1)
    b2 = as_complex_matrix(basis2)
    if b1.shape[0] != r.shape[0] or b2.shape[0] != r.shape[0]:
        raise DimensionMismatch("subspace bases must match the state's dimension")
    if float(np.linalg.norm(b2.conj().T @ b1)) > Tolerances.VERDICT * max(1.0, b1.shape[1]):
        raise ValidationError("the two subspaces are not orthogonal")
    p1 = b1 @ b1.conj().T
    p2 = b2 @ b2.conj().T
    off = p2 @ r @ p1
    w, n = polar_offblock(off, tol)  # raises ZeroOffBlock when empty
    wdw = w.conj().T @ w
    wwd = w @ w.conj().T
    p_plus = 0.5 * (wdw + wwd + (w + w.conj().T))
    p_minus = 0.5 * (wdw + wwd - (w + w.conj().T))
    k1 = support_basis(wdw, tol)
    k2 = support_basis(wwd, tol)
    return PairingResult(
        w=w,
        n=n,
        p_plus=hermitian_part(p_plus),
        p_minus=hermitian_part(p_minus),
        k1_basis=k1,
        k2_basis=k2,
        k1_perp_basis=_complement_within(b1, k1),
        k2_perp_basis=_complement_within(b2, k2),
    )


@dataclass(frozen=True)
class DecomposedFamily:
    """A family together with its finest block/tensor structure.

    weights[s, l] recovers the block probabilities, info_states[s][l] the
    per-state information-factor states (None where the weight vanishes),
    red_states[l] the shared redundant-factor states and red_spectra[l]
    their spectra (descending; the block gauge diagonalizes them). `support`
    embeds the structure's space (the support of the family average) into
    the original ambient space; it is the identity for full-support input.
    """

    family: StateFamily
    structure: Structure
    support: np.ndarray
    weights: np.ndarray
    info_states: tuple
    red_states: tuple
    red_spectra: tuple

    @property
    def n_blocks(self) -> int:
        return len(self.structure.blocks)

    def block_matrix(self, s: int) -> np.ndarray:
        """Direct sum (+)_l w[s,l] info (x) red, in block coordinates."""
        return _block_matrices(self, _component_stacks(self))[s]

    def reassemble(self, s: int) -> np.ndarray:
        """Rebuild family member s in the original ambient coordinates."""
        g = self.structure.transform
        inner = g.conj().T @ self.block_matrix(s) @ g
        return self.support @ inner @ self.support.conj().T

    def max_residual(self) -> float:
        """Largest Frobenius distance between a member and its `reassemble`,
        over all members; the block matrices are built as one stack."""
        states = np.stack(self.family.mats())
        return _reassembly_residual(self, states, _block_matrices(self, _component_stacks(self)))


def _component_stacks(decomp: DecomposedFamily) -> list:
    """The stored components of all members, per block l: the weight column
    and the information states stacked n x d_info x d_info, both zero for a
    member whose weight vanishes or whose information state is None."""
    n = len(decomp.family)
    comps = []
    for l, (di, _) in enumerate(decomp.structure.blocks):
        w = np.array(decomp.weights[:, l], dtype=float)
        infos = np.zeros((n, di, di), dtype=complex)
        for s, row in enumerate(decomp.info_states):
            if row[l] is None or w[s] <= 0.0:
                w[s] = 0.0
            else:
                infos[s] = row[l].mat
        comps.append((w, infos))
    return comps


def _kron_pairs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """kron(x_s, y_t) for every pair of two stacks, first index major."""
    m = xs.shape[1] * ys.shape[1]
    return np.einsum("sac,tbd->stabcd", xs, ys).reshape(-1, m, m)


def _block_matrices(decomp: DecomposedFamily, comps: list) -> np.ndarray:
    """The n block matrices of `block_matrix`, one kron per block, from the
    component stacks of `_component_stacks`."""
    st = decomp.structure
    blocks = np.zeros((len(decomp.family), st.dim, st.dim), dtype=complex)
    for l, ((w, infos), red) in enumerate(zip(comps, decomp.red_states)):
        off, sz = st.block_offset(l), st.block_size(l)
        kron = _kron_pairs(infos, red.mat[None])
        blocks[:, off : off + sz, off : off + sz] = w[:, None, None] * kron
    return blocks


def _reassembly_residual(decomp: DecomposedFamily, states: np.ndarray, blocks: np.ndarray) -> float:
    emb = decomp.support @ decomp.structure.transform.conj().T
    return float(np.linalg.norm(states - emb @ blocks @ emb.conj().T, axis=(1, 2)).max())


def _fix_column_phases(u: np.ndarray) -> np.ndarray:
    out = np.array(u, copy=True)
    for c in range(out.shape[1]):
        col = out[:, c]
        mags = np.abs(col)
        idx = int(np.nonzero(mags > Tolerances.VERDICT * mags.max())[0][0])
        out[:, c] = col / (col[idx] / mags[idx])
    return out


def _descending_eigbasis(mat: np.ndarray, tol: Tolerances) -> np.ndarray:
    w, u = hermitian_eig(mat, tol)
    order = np.argsort(-w, kind="stable")
    return _fix_column_phases(u[:, order])


def _nearest_density(mats: np.ndarray, tol: Tolerances) -> list:
    """Snap a stack of numerically noisy components to exact density matrices.

    One stacked eigh: each member's Hermitian part loses its negative
    eigenvalues and is scaled to trace 1, and the results are validated as
    one stack. Returns a DensityMatrix per member; ZeroOperator when a
    member has no weight left to normalize.
    """
    with _lapack():
        w, v = np.linalg.eigh(_hermitian_stack(mats))
    w = np.clip(w, 0.0, None)
    total = w.sum(axis=1)
    if np.any(total <= tol.tol_zero):
        raise ZeroOperator("component has no weight to normalize")
    out = (v * (w / total[:, None])[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return _density_matrices(out, tol)


def _canonical_sort(entries):
    def key(e):
        return (
            -e["p_all"],
            -e["d_info"],
            -e["d_red"],
            tuple(-x for x in e["weights"]),
        )

    return sorted(entries, key=key)


def _build_decomposition(fam: StateFamily, support: np.ndarray, entries) -> DecomposedFamily:
    """Assemble blocks given as entries with the keys d_info, d_red, iso
    (the block's isometry), weights (its raw weight column), live (the mask
    of members with a state on the block), info (their information states,
    in member order), red and spectrum. Weights off the live mask are
    zeroed, and their information states are None."""
    pw = fam.effective_weights()
    for e in entries:
        e["weights"] = np.where(e["live"], e["weights"], 0.0)
        e["p_all"] = float(pw @ e["weights"])
    entries = _canonical_sort(entries)
    dim = sum(e["d_info"] * e["d_red"] for e in entries)
    transform = np.vstack([e["iso"].conj().T for e in entries])
    transform.setflags(write=False)
    blocks = tuple((e["d_info"], e["d_red"]) for e in entries)
    n = len(fam)
    weights = np.zeros((n, len(entries)))
    for l, e in enumerate(entries):
        weights[:, l] = e["weights"]
    weights.setflags(write=False)
    columns = []
    for e in entries:
        col = [None] * n
        for s, info in zip(np.flatnonzero(e["live"]), e["info"]):
            col[s] = info
        columns.append(col)
    info_states = tuple(zip(*columns))
    red_states = tuple(e["red"] for e in entries)
    spectra = []
    for e in entries:
        q = np.asarray(e["spectrum"], dtype=float)
        q.setflags(write=False)
        spectra.append(q)
    sup = np.array(support, copy=True)
    sup.setflags(write=False)
    return DecomposedFamily(
        family=fam,
        structure=Structure(dim, blocks, transform),
        support=sup,
        weights=weights,
        info_states=info_states,
        red_states=red_states,
        red_spectra=tuple(spectra),
    )


def decompose(family, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> DecomposedFamily:
    """Compute the finest block/tensor decomposition of a state family.

    Pipeline: restrict to the support of the family average; split that
    space into simple invariant subspaces of the algebra generated by the
    states; rescale each state by the inverse average weight on every
    isomorphism class; split again for the rescaled family, whose classes
    are exactly the final blocks (class simple dimension = d_info,
    multiplicity = d_red), with the multiplicity copies already aligned by
    `isotypic_decompose`; fix the gauge (information basis diagonalizes the
    weighted average information state, redundant basis diagonalizes the
    redundant state, both descending, column phases pinned). Blocks are
    ordered by descending average weight, then d_info, d_red, and the
    weight column.

    The result is self-certified with `check_maximal`;
    MaximalityCheckFailed signals a tolerance breakdown, never a silent
    wrong answer.
    """
    fam = family if isinstance(family, StateFamily) else state_family(family, tol=tol)
    avg = family_average(fam, tol)
    sup = support_basis(avg.mat, tol)
    d0, da = fam.dim, sup.shape[1]
    if da == d0:
        sup = np.eye(d0, dtype=complex)
    gens = _hermitian_stack(sup.conj().T @ np.stack(fam.mats()) @ sup)
    avg_r = hermitian_part(sup.conj().T @ avg.mat @ sup)

    iso1 = isotypic_decompose(gens, seed=seed, tol=tol)
    # rescale in the frame of the isotypic classes, keeping only each class's
    # diagonal block: the cross-class parts are roundoff that 1/c_m would
    # amplify toward the commutant solve's rank floor
    frame = np.hstack([v for comp in iso1.components for v in comp.submodule_bases])
    rescaled = np.zeros_like(gens)
    start = 0
    for comp in iso1.components:
        size = comp.multiplicity * comp.simple_dim
        f_m = frame[:, start : start + size]
        start += size
        c_m = float(np.trace(f_m.conj().T @ avg_r @ f_m).real) / comp.multiplicity
        if c_m <= tol.tol_zero:
            raise MaximalityCheckFailed("an isotypic class carries no average weight")
        rescaled += f_m @ ((f_m.conj().T @ gens @ f_m) / c_m) @ f_m.conj().T
    rescaled = _hermitian_stack(rescaled)

    iso2 = isotypic_decompose(rescaled, seed=seed + _ISO_SEED_STRIDE, tol=tol)

    entries = []
    for comp in iso2.components:
        d_info = comp.simple_dim
        d_red = comp.multiplicity
        # the copies come aligned; column j * d_red + k is column j of copy k
        e_l = np.stack(comp.submodule_bases, axis=2).reshape(da, d_info * d_red)

        b_all = hermitian_part(e_l.conj().T @ avg_r @ e_l)
        p_all = float(np.trace(b_all).real)
        info_avg = partial_trace(b_all, d_info, d_red, keep="left")
        red_raw = partial_trace(b_all, d_info, d_red, keep="right") / p_all
        u_info = _descending_eigbasis(info_avg, tol)
        u_red = _descending_eigbasis(red_raw, tol)
        e_l = e_l @ np.kron(u_info, u_red)

        b_all = hermitian_part(e_l.conj().T @ avg_r @ e_l)
        red = _nearest_density(partial_trace(b_all, d_info, d_red, keep="right")[None], tol)[0]
        with _lapack():
            spectrum = np.sort(np.linalg.eigvalsh(red.mat))[::-1]
        spectrum = np.clip(spectrum, 0.0, None)

        # every member's block: weight, then information marginal
        b = _hermitian_stack(e_l.conj().T @ gens @ e_l)
        p = np.trace(b, axis1=1, axis2=2).real
        live = p > tol.tol_zero
        marg = partial_trace(b[live], d_info, d_red, keep="left")
        entries.append(
            {
                "d_info": d_info,
                "d_red": d_red,
                "iso": e_l,
                "weights": p,
                "live": live,
                "info": _nearest_density(marg / p[live, None, None], tol),
                "red": red,
                "spectrum": spectrum,
            }
        )

    decomp = _build_decomposition(fam, sup, entries)
    report = check_maximal(decomp, tol)
    if not report.ok:
        raise MaximalityCheckFailed(
            f"self-check violated conditions {report.violated}; "
            f"reassembly residual {report.reassembly_residual:.3e}"
        )
    return decomp


@dataclass(frozen=True)
class MaximalityReport:
    ok: bool
    violated: tuple  # entries ("i",), ("i", l), ("ii", l) or ("iii", l, l_prime)
    reassembly_residual: float


def _block_accuracy(decomp: DecomposedFamily, states: np.ndarray, blocks: np.ndarray, p_all: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Per block l: how accurately the stored components hold block l's data,
    relative to the block's own scale.

    It is the larger of the reassembly error in the rows of block l (in
    block coordinates, the (l, l') part of every member's error divided by
    sqrt(p_l p_l'), with p the blocks' average weights) and the roundoff
    floor eps * max ||rho_s|| / p_l, below which no computed block is exact.
    `states` stacks the members and `blocks` their block matrices
    (`_block_matrices`).
    """
    g = decomp.structure.transform @ decomp.support.conj().T
    err = g @ states @ g.conj().T - blocks
    offsets = [decomp.structure.block_offset(l) for l in range(len(decomp.structure.blocks))]
    sq = np.add.reduceat(np.add.reduceat(np.abs(err) ** 2, offsets, axis=1), offsets, axis=2)
    p = p_all.clip(tol.tol_zero)
    measured = (np.sqrt(sq.max(axis=0)) / np.sqrt(np.outer(p, p))).max(axis=1)
    roundoff = np.finfo(float).eps * float(np.linalg.norm(states, axis=(1, 2)).max()) / p
    return np.maximum(measured, roundoff)


def check_maximal(decomp: DecomposedFamily, tol: Tolerances = DEFAULT_TOL) -> MaximalityReport:
    """Certify that a decomposition is the finest one.

    Checks (i) the family reassembles from the stored components within
    Tolerances.CERTIFICATE, and every block l's data is accurate to tol_rank
    relative to the block's own scale (`_block_accuracy`), (ii) within every
    block the weighted information states have a trivial commutant, and
    (iii) no two blocks of equal d_info admit a nonzero intertwiner between
    their weight-normalized information families. (ii) and (iii) decide
    ranks at the tol_rank floor on each block's normalized data, so a block
    too light for that accuracy (average weight below about
    eps * ||rho|| / tol_rank) fails (i) rather than being certified on
    roundoff. Violations are reported per condition with block indices.
    """
    violated = []
    states = np.stack(decomp.family.mats())
    comps = _component_stacks(decomp)
    stacked = _block_matrices(decomp, comps)
    residual = _reassembly_residual(decomp, states, stacked)
    if residual > Tolerances.CERTIFICATE:
        violated.append(("i",))
    pw = decomp.family.effective_weights()
    blocks = decomp.structure.blocks
    p_all = pw @ decomp.weights
    accuracy = _block_accuracy(decomp, states, stacked, p_all, tol)
    violated.extend(("i", l) for l in np.flatnonzero(accuracy > tol.tol_rank).tolist())

    for l, (w, infos) in enumerate(comps):
        if len(_commutant_basis(w[:, None, None] * infos, tol)) != 1:
            violated.append(("ii", l))
    normalized = [(w / p_all[l])[:, None, None] * infos for l, (w, infos) in enumerate(comps)]
    for l in range(len(blocks)):
        for lp in range(l + 1, len(blocks)):
            if blocks[l][0] != blocks[lp][0]:
                continue
            # one scale per pair leaves L x = y L unchanged
            xs, ys = normalized[l], normalized[lp]
            scale = np.maximum(
                np.maximum(np.linalg.norm(xs, axis=(1, 2)), np.linalg.norm(ys, axis=(1, 2))),
                tol.tol_zero,
            )[:, None, None]
            if _intertwiners(xs / scale, ys / scale, tol):
                violated.append(("iii", l, lp))
    return MaximalityReport(not violated, tuple(violated), residual)


def structures_equivalent(a: Structure, b: Structure, tol: Tolerances = DEFAULT_TOL, connector=None) -> bool:
    """Whether two structures agree up to block permutation and local gauge.

    True iff, after permuting blocks with matching (d_info, d_red), the
    change of frame b.transform @ connector @ a.transform^dag is block
    diagonal with every diagonal block factoring as (info unitary) (x)
    (red unitary); the factor test is a rank-1 realignment check at
    Tolerances.CERTIFICATE.
    `connector` defaults to the identity and lets callers reconcile two
    different embeddings of the same underlying space.
    """
    if a.dim != b.dim:
        return False
    if sorted(a.blocks) != sorted(b.blocks):
        return False
    conn = np.eye(a.dim, dtype=complex) if connector is None else as_complex_matrix(connector)
    m = b.transform @ conn @ a.transform.conj().T
    matched = np.zeros_like(m)
    used = set()
    for i, shape in enumerate(a.blocks):
        ci = slice(a.block_offset(i), a.block_offset(i) + a.block_size(i))
        best, best_norm = None, -1.0
        for j, other in enumerate(b.blocks):
            if j in used or other != shape:
                continue
            rj = slice(b.block_offset(j), b.block_offset(j) + b.block_size(j))
            nrm = float(np.linalg.norm(m[rj, ci]))
            if nrm > best_norm:
                best, best_norm = j, nrm
        if best is None:
            return False
        used.add(best)
        rj = slice(b.block_offset(best), b.block_offset(best) + b.block_size(best))
        sub = m[rj, ci]
        di, dr = shape
        realigned = (
            sub.reshape(di, dr, di, dr).transpose(0, 2, 1, 3).reshape(di * di, dr * dr)
        )
        with _lapack():
            sv = np.linalg.svd(realigned, compute_uv=False)
        if sv[0] <= tol.tol_zero:
            return False
        if sv.size > 1 and sv[1] > Tolerances.CERTIFICATE * sv[0]:
            return False
        matched[rj, ci] = sub
    off_mass = float(np.linalg.norm(m - matched))
    return off_mass <= Tolerances.CERTIFICATE * np.sqrt(a.dim)


def decompositions_equivalent(a: DecomposedFamily, b: DecomposedFamily, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Structure equivalence for two decompositions (handles embeddings)."""
    if a.structure.dim != b.structure.dim:
        return False
    conn = b.support.conj().T @ a.support
    defect = float(np.linalg.norm(conn.conj().T @ conn - np.eye(a.structure.dim)))
    if defect > Tolerances.CERTIFICATE * np.sqrt(a.structure.dim):
        return False
    return structures_equivalent(a.structure, b.structure, tol, connector=conn)


def tensor_structure(a: DecomposedFamily, b: DecomposedFamily, tol: Tolerances = DEFAULT_TOL) -> DecomposedFamily:
    """Decomposition of the product family from two independent parts.

    The product of members (s, t) decomposes along block pairs (l1, l2)
    with multiplied weights, tensored information and redundant factors.
    Pair states are ordered with the first family's index major; blocks are
    re-sorted into the canonical order.
    """
    weighted = a.family.weights is not None or b.family.weights is not None
    pw = np.outer(a.family.effective_weights(), b.family.effective_weights()).reshape(-1)
    states = _kron_pairs(np.stack(a.family.mats()), np.stack(b.family.mats()))
    fam = state_family(states, weights=pw if weighted else None, tol=tol)
    comps_b = _component_stacks(b)
    entries = []
    for l1, ((d1, r1), (wa, ia)) in enumerate(zip(a.structure.blocks, _component_stacks(a))):
        for l2, ((d2, r2), (wb, ib)) in enumerate(zip(b.structure.blocks, comps_b)):
            # kron orders the pair's columns (j1, q1, j2, q2); the block wants (j1, j2, q1, q2)
            order = np.arange(d1 * r1 * d2 * r2).reshape(d1, r1, d2, r2).transpose(0, 2, 1, 3)
            iso = np.kron(a.structure.block_basis(l1), b.structure.block_basis(l2))
            w_col = np.outer(wa, wb).reshape(-1)
            live = w_col > tol.tol_zero
            entries.append(
                {
                    "d_info": d1 * d2,
                    "d_red": r1 * r2,
                    "iso": iso[:, order.reshape(-1)],
                    "weights": w_col,
                    "live": live,
                    "info": _density_matrices(_kron_pairs(ia, ib)[live], tol),
                    "red": density_matrix(np.kron(a.red_states[l1].mat, b.red_states[l2].mat), tol),
                    "spectrum": np.kron(a.red_spectra[l1], b.red_spectra[l2]),
                }
            )
    return _build_decomposition(fam, np.kron(a.support, b.support), entries)

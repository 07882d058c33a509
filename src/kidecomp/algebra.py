"""Operator *-algebras generated by finite matrix families.

The decomposition engine needs two ingredients from this module: the
commutant of a generator family, and the splitting of the ambient space into
simple invariant subspaces grouped by isomorphism class (multiplicity
spaces). Both rest on one linear solve, the null space of X m_i = m_i X
(`_commutant_basis`). Maps between invariant subspaces come from the same
solve: by Schur's lemma, the maps L with L A_i = B_i L are the (B, A) block
of the commutant of the direct sums A_i (+) B_i (`intertwiner_space`, and
`structure.check_maximal` for every pair of blocks at once). For Hermitian
families the solve runs in the eigenbasis of a fixed random element G of
the family's span (after Murota, Kanno, Kojima & Kojima, Japan J. Indust.
Appl. Math. 27, 2010): every commutant element also commutes with G, so it
only links eigenvalues that agree, and a commutant with eigenvalue
multiplicities m_c has sum m_c^2 unknowns instead of d^2. In that frame a
row (a, b) of X m_i - m_i X reads only the (gamma, delta) block of m_i,
gamma and delta the eigenvalue clusters of a and b, so the n nonzero
members, each normalized and centered, are compressed cluster pair by
cluster pair to the rows of the SVD of their stacked blocks that carry a
joint norm above tol_zero. The system grows neither with n (at most
d (d - 1) rows when G has a simple spectrum) nor with the multiplicities
that clusters come from (one generator row when every cluster block has
rank 1). A family that is exactly block diagonal, with consecutive
diagonal blocks read off its nonzero pattern, is diagonalized block by
block, and the solve splits into one system per pair of blocks with kept
unknowns; the pairs of one shape and one set of kept unknowns are solved
as one stack.
Blocks that are diagonal only after a permutation are not detected: such a
family is solved as fewer, larger blocks. The isotypic split makes that
solve once, for the commutant of the whole family, and reads everything
else off two random Hermitian commutant elements (after Maehara & Murota,
SIAM J. Matrix Anal. Appl. 32, 2011): the simple pieces from the
eigenspaces of the first, and the classes and the alignment of their copies
from the Schur blocks of the second, both read in the solve's frame. It
returns the pieces' bases, grouped by class, and no leak or residual
figure: a caller that needs one computes it from the bases. Everything
works on dense complex matrices; commutant bases are orthonormal under the
Hilbert-Schmidt inner product <A, B> = Tr(A^dag B).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSample, DimensionMismatch, NotInvariant
from .linalg import DEFAULT_TOL, Tolerances, _check_seed, _hermitian_stack, _lapack, as_complex_matrix, seeded_random_hermitian

__all__ = [
    "IsotypicComponent",
    "IsotypicDecomposition",
    "commutant_of_family",
    "isotypic_decompose",
    "intertwiner_space",
]

_FRAME_SEED = 0  # coefficients of the random family element in `_spectral_frame`


def _check_square_family(mats):
    """Validate a generator family; returns it stacked as an n x d x d array.

    An input that stacks as a finite n x d x d array passes with one shape
    test and one finiteness test; anything else is walked member by member,
    so a failing family raises the error of its first failing member.
    """
    try:
        a = np.asarray(mats, dtype=complex)
    except (TypeError, ValueError):
        a = None
    if a is not None and a.ndim == 3 and a.shape[0] > 0 and a.shape[1] == a.shape[2] > 0 and np.isfinite(a).all():
        return a, a.shape[1]
    out = []
    for k, m in enumerate(mats):
        a = as_complex_matrix(m)
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"generator {k} is not square: shape {a.shape}")
        out.append(a)
    if not out:
        raise DimensionMismatch("need at least one generator")
    d = out[0].shape[0]
    for k, a in enumerate(out):
        if a.shape[0] != d:
            raise DimensionMismatch(f"generator {k} has dim {a.shape[0]}, expected {d}")
    return np.stack(out), d


def _null_space_floor(systems: np.ndarray, cutoff: float) -> tuple:
    """Null spaces, with an absolute singular-value cutoff, of an m x rows x c
    stack of equal-shape systems.

    Returns the null vectors of all systems, in order, as the rows of one
    z x c array, and the m null dimensions z_j that sum to z. The stack
    holds the block-pair systems of one shape and one set of kept unknowns
    (`_commutant_basis`); a family with no consecutive blocks is a stack of
    one. The systems of a stack share their row
    positions, and a row that vanishes in only some of them is an exact
    zero row there (`_pair_rows`), which changes no singular value. A
    system with fewer rows than unknowns keeps its whole null space: the
    SVD is full, so every right singular vector past the rank is returned.

    `_commutant_basis` normalizes its generators, so genuine constraints
    have singular values of order 1. A cutoff relative to the largest
    singular value misreads an all-noise system, where every row vanishes
    up to roundoff, as full rank; the absolute floor reads it correctly as
    rank zero. A family of commuting members, such as a classical family in
    the first pass of `structure.decompose`, gives only such systems: every
    unknown its spectral frame keeps commutes with every member. The SVD is
    taken of the R factor of each system, from one stacked QR, which has
    the system's singular values and right singular vectors without forming
    a tall U. A LAPACK failure raises NoConvergence.
    """
    with _lapack():
        _, s, vh = np.linalg.svd(np.linalg.qr(systems, mode="r"))
    ranks = np.sum(s > cutoff, axis=1)
    null = np.concatenate([v[rank:] for v, rank in zip(vh, ranks)])
    return np.conjugate(null, out=null), vh.shape[1] - ranks


def _diagonal_blocks(mats: np.ndarray) -> np.ndarray:
    """Edges of the finest consecutive diagonal blocks of a k x k stack.

    Read off the exact nonzero pattern of the whole stack, with no
    threshold: block b is [edges[b], edges[b + 1]), and every entry of every
    member outside the diagonal blocks is exactly zero. Only consecutive
    blocks are found; a pattern that is block diagonal only after a
    permutation reads as fewer, larger blocks.
    """
    k = mats.shape[1]
    nz = np.any(mats, axis=0)
    nz |= nz.T
    if nz.all():
        return np.array([0, k])
    idx = np.arange(k)
    # reach[j]: the last index that row and column j touch
    last = np.where(nz.any(axis=1), k - 1 - np.argmax(nz[:, ::-1], axis=1), 0)
    reach = np.maximum.accumulate(np.maximum(idx, last))
    return np.concatenate([[0], np.flatnonzero(reach == idx) + 1])


def _blocks_at(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The diagonal blocks a[..., idx_j, idx_j] for the rows idx_j of idx,
    stacked on the axis before the last two."""
    return a[..., idx[:, :, None], idx[:, None, :]]


def _spectral_frame(mats: np.ndarray, tol: Tolerances):
    """A block-diagonal unitary frame of a k x k stack and the mask of the
    entries a commutant element may use.

    Returns (edges, u, mask): the consecutive diagonal blocks of the stack
    (`_diagonal_blocks`), a unitary that is block diagonal over them, and
    the k x k mask. For a Hermitian family, every X with X m_i = m_i X also
    commutes with G = sum_i c_i m_i, so in the eigenbasis of G the entry
    (p, q) of X vanishes unless lambda_p and lambda_q are equal. G is
    diagonalized block by block, with one stacked eigh per block size, so
    the frame keeps the blocks' zeros. The spectrum is clustered with
    `_cluster_ascending`; an entry is kept when its two eigenvalues share a
    cluster. Merging too much only keeps extra unknowns, so the policy errs
    that way. Otherwise (some member not Hermitian within tol_sym) the frame
    is the identity and every entry is kept. A LAPACK failure raises
    NoConvergence.
    """
    n, k = mats.shape[0], mats.shape[1]
    edges = _diagonal_blocks(mats)
    defect = float(np.linalg.norm(mats - mats.conj().transpose(0, 2, 1), axis=(1, 2)).max())
    if defect > tol.tol_sym:
        return edges, np.eye(k, dtype=complex), np.ones((k, k), dtype=bool)
    c = np.random.default_rng(_FRAME_SEED).standard_normal(n)
    g = (c @ mats.reshape(n, -1)).reshape(k, k)
    lam, u = np.empty(k), np.zeros((k, k), dtype=complex)
    sizes = np.diff(edges)
    for size in sorted(set(sizes.tolist())):
        idx = edges[:-1][sizes == size, None] + np.arange(size)
        with _lapack():
            lam[idx], u[idx[:, :, None], idx[:, None, :]] = np.linalg.eigh(_blocks_at(g, idx))
    order = np.argsort(lam, kind="stable")
    label = np.empty(k, dtype=int)
    # a gap g between lambda_p and lambda_q only bounds |X'_pq| by ||c|| s / g,
    # where s is the system's residual on X; gaps up to ||c|| tol_rank are
    # within what the rank floor reads as zero, so they never split
    floor = tol.tol_rank * float(np.linalg.norm(c))
    for j, cl in enumerate(_cluster_ascending(lam[order], tol, floor)):
        label[order[cl]] = j
    return edges, u, label[:, None] == label[None, :]


def _compressed_generators(gens: np.ndarray, u: np.ndarray, edges: np.ndarray, mask: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The generators in the frame of `_spectral_frame`, centered and
    compressed by cluster pair: a J x k x k stack that gives every
    commutation system the Gram matrix the n generators give it, up to the
    rows dropped below.

    A kept unknown (p, q) has p and q in one cluster of G, so it commutes
    with c P_gamma, P_gamma the projector onto a cluster gamma: each
    generator's diagonal block (gamma, gamma) loses its mean diagonal entry,
    and the system's operator stays as it was. The row (a, b) of
    X' m' - m' X' reads only the (gamma, delta) block, gamma and delta the
    clusters of a and b, and is linear in it. Within the diagonal blocks
    that block has f entries (the others are exact zeros); the n x f stack
    of the generators' entries becomes the min(n, f) rows S V^dag of its
    SVD, an orthogonal transform of every row group that reads the block.
    Its trailing rows are dropped while their joint norm eps is at most
    tol_zero; for clusters that come from multiplicities, all rows but the
    first are roundoff. Dropped rows E give the system rows
    X'_gg E - E X'_dd, of norm at most 2 ||E|| ||X'||, so by Weyl's
    inequality each singular value of the system moves by at most
    2 (sum over cluster pairs of eps^2)^(1/2) (Stewart & Sun, Matrix
    Perturbation Theory, 1990). Row j of the stack carries the j-th row of
    every cluster pair that keeps one; rows zero everywhere are dropped,
    but one is kept. With singleton clusters f = 1: entry (a, b) keeps
    ||m'_ab||, whose rows read ||m'_ab|| (e_a - e_b) on the diagonal
    unknowns. One stacked norm (f = 1) or SVD (f > 1) per value of f. A
    LAPACK failure raises NoConvergence.
    """
    n, k = gens.shape[0], gens.shape[1]
    flat = (u.conj().T @ gens @ u).reshape(n, k * k)
    diag = flat[:, :: k + 1]  # a view of the diagonals
    diag -= diag @ mask / mask.sum(axis=0)
    label = mask.argmax(axis=1)  # each index's cluster, named by its first index
    block = np.repeat(np.arange(edges.size - 1), np.diff(edges))
    a, b = np.nonzero(block[:, None] == block[None, :])
    key = label[a] * k + label[b]
    order = np.argsort(key, kind="stable")
    pos, key = (a * k + b)[order], key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    sizes = np.diff(np.append(starts, key.size))
    out = np.zeros((min(n, int(sizes.max())), k * k), dtype=complex)
    for f in np.unique(sizes).tolist():
        at = pos[starts[sizes == f, None] + np.arange(f)]  # cluster pairs x entries
        stack = flat[:, at].transpose(1, 0, 2)
        if f == 1:  # S V^dag of one column is its norm
            s = np.linalg.norm(stack, axis=1)
            r = s[:, :, None]
        else:
            with _lapack():
                _, s, vh = np.linalg.svd(stack, full_matrices=False)
            r = s[:, :, None] * vh
        tail = np.sqrt(np.cumsum(s[:, ::-1] ** 2, axis=1))[:, ::-1]  # joint norm of rows j onwards
        r[tail <= tol.tol_zero] = 0
        out[: r.shape[1], at] = r.transpose(1, 0, 2)
    live = out.any(axis=1)
    return (out[live] if live.any() else out[:1]).reshape(-1, k, k)


def _pair_rows(mq: np.ndarray, mp: np.ndarray, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The nonzero rows of a stack of m block-pair systems, as one m x rows x
    len(ps) array.

    mq is m x J x sq x sq and mp m x J x sp x sp, the Q and P blocks of the
    compressed generators (`_compressed_generators`) of the pairs (P, Q);
    (ps, qs) are the kept entries, the same for the whole stack. The column
    of entry (p, q) stacks E_pq m'_Q - m'_P E_pq over the generators. Rows
    that are exactly zero in every system of the stack are dropped: those
    of cluster pairs without that row, and the cancelling rows (a, a) of a
    singleton cluster. A row that vanishes in only some systems stays, an
    exact zero row there, and the stack keeps at least one row. The array
    is the transpose of a C-ordered one, as `_null_space_floor` reads it
    fastest.
    """
    m, n, sq, sp = mq.shape[0], mq.shape[1], mq.shape[2], mp.shape[2]
    k = np.arange(ps.size)
    cols = np.zeros((m, ps.size, n, sp, sq), dtype=complex)
    cols[:, k, :, ps, :] = mq[:, :, qs, :].transpose(2, 0, 1, 3)  # E_pq m'_Q: row p is m'_Q[q, :]
    cols[:, k, :, :, qs] -= mp[:, :, :, ps].transpose(3, 0, 1, 2)  # m'_P E_pq: column q is m'_P[:, p]
    cols = cols.reshape(m, ps.size, -1)
    live = cols.any(axis=(0, 1))
    live[0] |= not live.any()
    if not live.all():  # a copy, so the full buffer is freed
        cols = cols[:, :, live]
    return cols.transpose(0, 2, 1)


def _commutant_basis(mats, tol: Tolerances) -> tuple:
    """Orthonormal basis of {X : X m_i = m_i X for every m_i in mats}, in
    the frame it is solved in and in the form the solve gives it:
    (u, stacks), the unitary of `_spectral_frame` and, per stack of
    systems solved together, the triple (pos, null, dims).

    pos is m x c, row j the flat positions p k + q in the k x k frame of
    system j's c kept entries; null holds the null vectors of all m
    systems as rows, in order, system j's dims[j] of them on pos[j]. Each
    null vector is a basis matrix X' = u^dag X u that is zero off its
    system's positions. No k x k basis matrix is built here: the
    pipeline reads the dimension (the sum of the dims), projections
    (`_project_onto_span`) and the count per block pair
    (`structure.check_maximal`) off this form, and only
    `_ambient_commutant` scatters it to dense matrices.

    Members of norm at most tol_zero impose nothing and are dropped; the
    n others are normalized, since the rank floor tol_rank is absolute.
    The system is solved for X' = u^dag X u in `_spectral_frame`, over the
    kept entries only, one system per block pair: in that frame every
    generator is block diagonal over the consecutive blocks of the stack,
    so an unknown (p, q) meets only the rows (a, b) with a in p's block and
    b in q's, and the system splits into one system per pair (P, Q) of
    blocks with kept entries. Its rows come from the generators centered
    and compressed by cluster pair (`_compressed_generators`), so they do
    not grow with n, and the rows that vanish are dropped (`_pair_rows`).
    The pairs with the same shape and the same kept entries are solved as
    one stack (`_null_space_floor`); a family with no blocks is one pair in
    a stack of one. If every member is dropped, one zero member stands for
    them and the whole k x k space is returned. Only consecutive blocks are
    detected (`_diagonal_blocks`). The centering keeps the system's
    operator, the compression is an orthogonal transform of each row
    group, and its truncation moves each singular value of the whole
    system by at most 2 sqrt(pairs) tol_zero, so every rank decision is the
    one a single solve of the n k^2 rows would make, unless that solve has
    a singular value within that bound of tol_rank. The basis is
    orthonormal under the Hilbert-Schmidt inner product, as is u X' u^dag,
    and <X', u^dag H u> = <X, H>. Every system lies on exactly one block
    pair (P, Q), the one that holds its first row and column, and so does
    u X' u^dag (u is block diagonal over the blocks), so a caller counts
    the solutions per pair by adding up the dims. For a direct sum of
    families, by Schur's lemma, the matrices on the pair (B, A) of two
    summands are a basis of the intertwiners from A to B
    (`intertwiner_space`, `check_maximal`).
    """
    stacked = np.asarray(mats, dtype=complex)
    norms = np.linalg.norm(stacked, axis=(1, 2))
    keep = norms > tol.tol_zero
    if not keep.any():
        gens = np.zeros_like(stacked[:1])
    else:
        gens = stacked[keep] / norms[keep, None, None]
    k = gens.shape[1]
    edges, u, mask = _spectral_frame(gens, tol)
    comp = _compressed_generators(gens, u, edges, mask, tol)
    kept = np.add.reduceat(np.add.reduceat(mask, edges[:-1], axis=0), edges[:-1], axis=1)
    edges = edges.tolist()
    groups = {}  # (shape, kept entries) -> (kept entries, the pairs' first rows and columns)
    for bp, bq in np.argwhere(kept).tolist():
        sub = mask[edges[bp] : edges[bp + 1], edges[bq] : edges[bq + 1]]
        starts = groups.setdefault((sub.shape, sub.tobytes()), (sub, []))[1]
        starts.append((edges[bp], edges[bq]))
    stacks = []
    for sub, starts in groups.values():
        ps, qs = np.nonzero(sub)
        first_p, first_q = np.array(starts).T
        ip = first_p[:, None] + np.arange(sub.shape[0])
        iq = first_q[:, None] + np.arange(sub.shape[1])
        mq, mp = _blocks_at(comp, iq).swapaxes(0, 1), _blocks_at(comp, ip).swapaxes(0, 1)
        null, dims = _null_space_floor(_pair_rows(mq, mp, ps, qs), tol.tol_rank)
        stacks.append((ip[:, ps] * k + iq[:, qs], null, dims))
    return u, stacks


def _ambient_commutant(mats, tol: Tolerances) -> np.ndarray:
    """The basis of `_commutant_basis` as one z x k x k stack of ambient
    matrices u X' u^dag, stack by stack and system by system."""
    u, stacks = _commutant_basis(mats, tol)
    k = u.shape[0]
    basis = np.zeros((sum(null.shape[0] for _, null, _ in stacks), k * k), dtype=complex)
    z = 0
    for pos, null, dims in stacks:
        rows = np.arange(z, z + null.shape[0])
        basis[rows[:, None], pos[np.repeat(np.arange(dims.size), dims)]] = null
        z += null.shape[0]
    return u @ basis.reshape(-1, k, k) @ u.conj().T


def commutant_of_family(generators, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Orthonormal basis of the commutant of a generator set, as d x d matrices.

    Always contains the identity direction I/sqrt(d) in its span.
    """
    mats, _ = _check_square_family(generators)
    return tuple(_ambient_commutant(mats, tol))


@dataclass(frozen=True)
class IsotypicComponent:
    """One isomorphism class of simple invariant subspaces."""

    submodule_bases: tuple  # each a d x simple_dim isometry, mutually orthogonal
    simple_dim: int

    @property
    def multiplicity(self) -> int:
        return len(self.submodule_bases)


@dataclass(frozen=True)
class IsotypicDecomposition:
    dim: int
    components: tuple


def _cluster_ascending(w: np.ndarray, tol: Tolerances, floor: float = 0.0):
    """Split ascending eigenvalues into clusters separated by relative gaps.

    A gap splits when it reaches tol_cluster times the spread, and `floor`.
    """
    spread = float(w[-1] - w[0])
    if spread <= tol.tol_zero * max(1.0, float(np.abs(w).max())):
        return [list(range(w.size))]
    cut = max(tol.tol_cluster * spread, floor)
    clusters = [[0]]
    for i in range(1, w.size):
        if float(w[i] - w[i - 1]) < cut:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _project_onto_span(mat: np.ndarray, stacks) -> np.ndarray:
    """Orthogonal projection of a k x k matrix onto the span of a basis in
    the form of `_commutant_basis`, both read in the solve's frame.

    System by system, the matrix's entries h on the system's positions
    give the coefficients conj(N conj(h)) on its null vectors N, and
    the projection's entries there are those coefficients times N; the
    systems' positions do not overlap, and every other entry is zero.
    """
    flat = mat.reshape(-1)
    out = np.zeros_like(flat)
    for pos, null, dims in stacks:
        for at, vecs in zip(pos, np.split(null, np.cumsum(dims)[:-1])):
            out[at] = np.conj(vecs @ np.conj(flat[at])) @ vecs
    return out.reshape(mat.shape)


def _leaks(mats, v):
    """Per generator: the compression v^dag m v and the norm of m v - v v^dag m v."""
    mv = mats @ v
    comp = v.conj().T @ mv
    return comp, np.linalg.norm(mv - v @ comp, axis=(1, 2))


def _unitary_polish(mat: np.ndarray) -> np.ndarray:
    """The unitary factor of the polar decomposition of a square matrix."""
    with _lapack():
        u, _, vh = np.linalg.svd(mat)
    return u @ vh


def isotypic_decompose(generators, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> IsotypicDecomposition:
    """Split the ambient space into simple invariant subspaces, grouped.

    One commutant solve of the whole generator family, then two random
    Hermitian elements X1, X2 of the commutant, each the projection of
    `seeded_random_hermitian` onto it (after Murota, Kanno, Kojima & Kojima,
    Japan J. Indust. Appl. Math. 27, 2010, and Maehara & Murota, SIAM J.
    Matrix Anal. Appl. 32, 2011), all read in the solve's frame u and its
    form (`_commutant_basis`): each draw H is rotated to u^dag H u and
    projected system by system onto the solve's null vectors
    (`_project_onto_span`), the commutant's dimension is the sum of the
    systems' null dimensions, no k x k basis matrix is built, and the
    pieces' bases V come out as u V:

    - the eigenvalue clusters of X1 (`_cluster_ascending`) are the simple
      pieces V_a;
    - by Schur's lemma, two pieces of equal dimension are equivalent exactly
      when the block V_b^dag X2 V_a is nonzero, i.e. its Frobenius norm
      exceeds tol_rank * ||X2||_F; a piece joins the first class whose first
      piece V_0 it has a nonzero block with, and otherwise opens a class;
    - the classes must account for the whole commutant, sum_c
      multiplicity_c^2 = dim commutant. Coinciding eigenvalues of X1 or a
      vanishing block of X2 break that count; DegenerateSample is then
      raised at once, with the counts. X1 and X2 are drawn from seeds
      `seed` and `seed + 1`, and a commutant of the identity alone is one
      simple piece with no draw.

    The copies of a class come out aligned: V_0 is kept and every other copy
    V_j is rotated by the unitary factor of V_j^dag X2 V_0, an intertwiner
    from V_0 to V_j, so V_j^dag A_i V_j = V_0^dag A_i V_0 for every
    generator A_i.

    A kernel K that all generators share, where the algebra acts as 0,
    comes back as one class of simple dimension 1 and multiplicity dim K.
    """
    seed = _check_seed(seed)
    mats, d = _check_square_family(generators)
    frame, comm = _commutant_basis(mats, tol)
    dim = sum(int(dims.sum()) for _, _, dims in comm)

    if dim == 1:  # the identity alone: one simple piece, nothing to draw
        return IsotypicDecomposition(d, (IsotypicComponent((np.eye(d, dtype=complex),), d),))
    draws = (frame.conj().T @ seeded_random_hermitian(d, seed + j) @ frame for j in (0, 1))
    x1, x2 = (_hermitian_stack(_project_onto_span(h, comm)) for h in draws)
    with _lapack():
        w, u = np.linalg.eigh(x1)
    pieces = _cluster_ascending(w, tol)
    x2 = u.conj().T @ x2 @ u
    u = frame @ u
    # norms[b, a] = ||V_b^dag X2 V_a||_F; pieces are runs of consecutive columns
    starts = [cl[0] for cl in pieces]
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(x2) ** 2, starts, 0), starts, 1))
    cut = tol.tol_rank * float(np.linalg.norm(x2))
    classes = []
    for a, cl in enumerate(pieces):
        for cls in classes:
            if len(pieces[cls[0]]) == len(cl) and norms[a, cls[0]] > cut:
                cls.append(a)
                break
        else:
            classes.append([a])
    count = sum(len(cls) ** 2 for cls in classes)
    if count != dim:
        raise DegenerateSample(
            f"degenerate commutant sample: pieces {len(pieces)}, classes {len(classes)}, "
            f"sum m_c^2 {count}, commutant dimension {dim}"
        )

    components = []
    for cls in classes:
        rep = pieces[cls[0]]
        bases = [u[:, rep]]
        bases += [u[:, pieces[a]] @ _unitary_polish(x2[np.ix_(pieces[a], rep)]) for a in cls[1:]]
        components.append(IsotypicComponent(tuple(bases), len(rep)))
    return IsotypicDecomposition(d, tuple(components))


def intertwiner_space(generators, basis_a, basis_b, tol: Tolerances = DEFAULT_TOL):
    """Basis of maps L with L A_i = B_i L on two invariant subspaces.

    A_i and B_i are the generators compressed to the two column spans. Both
    spans must be invariant under every generator within Tolerances.VERDICT
    times max(1, ||A_i||_F) (NotInvariant otherwise). By Schur's lemma the
    maps are the (B, A) block of the commutant of the direct sums
    A_i (+) B_i, and every commutant basis matrix lies in one block pair
    (`_commutant_basis`), so the ones nonzero on (B, A) are a basis of the
    maps. Each returned map has unit Frobenius norm with its largest-modulus
    entry rotated to the positive real axis.
    """
    mats, d = _check_square_family(generators)
    va = as_complex_matrix(basis_a)
    vb = as_complex_matrix(basis_b)
    if va.shape[0] != d or vb.shape[0] != d:
        raise DimensionMismatch("subspace bases must live in the generators' ambient space")
    scale = np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))
    ka, k = va.shape[1], va.shape[1] + vb.shape[1]
    direct = np.zeros((mats.shape[0], k, k), dtype=complex)
    for name, v, at in (("basis_a", va, slice(0, ka)), ("basis_b", vb, slice(ka, k))):
        comp, leaks = _leaks(mats, v)
        if np.any(leaks > Tolerances.VERDICT * scale):
            raise NotInvariant(f"{name} is not invariant under generator family")
        direct[:, at, at] = comp
    out = []
    for x in _ambient_commutant(direct, tol):
        lam = x[ka:, :ka]
        if not lam.any():
            continue
        lam = lam / float(np.linalg.norm(lam))
        idx = np.unravel_index(int(np.argmax(np.abs(lam))), lam.shape)
        phase = lam[idx] / abs(lam[idx])
        out.append(lam / phase)
    return out

"""Operator *-algebras generated by finite matrix families.

The decomposition engine needs two ingredients from this module: the
commutant of a generator family, and the splitting of the ambient space into
simple invariant subspaces grouped by isomorphism class (multiplicity
spaces). Both rest on one linear solve, the null space of L x_i = y_i L
(`_intertwiners`). For Hermitian families that solve runs in the eigenbases
of a fixed random element G of the family's span (after Murota, Kanno,
Kojima & Kojima, Japan J. Indust. Appl. Math. 27, 2010): every solution
also intertwines G_x with G_y, so it only links eigenvalues that agree, and
a commutant with eigenvalue multiplicities m_c has sum m_c^2 unknowns
instead of d^2. The isotypic split makes that solve once, for the commutant
of the whole family, and reads everything else off two random Hermitian
commutant elements (after Maehara & Murota, SIAM J. Matrix Anal. Appl. 32,
2011): the simple pieces from the eigenspaces of the first, and the classes
and the alignment of their copies from the Schur blocks of the second.
Everything works on dense complex matrices; commutant bases are orthonormal
under the Hilbert-Schmidt inner product <A, B> = Tr(A^dag B).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateSample,
    DimensionMismatch,
    NotInvariant,
    SupportDeficient,
)
from .linalg import DEFAULT_TOL, Tolerances, _lapack, as_complex_matrix, seeded_random_hermitian

__all__ = [
    "IsotypicComponent",
    "IsotypicDecomposition",
    "commutant_of_family",
    "isotypic_decompose",
    "intertwiner_space",
]

_RETRY_BUDGET = 8
_FRAME_SEED = 0  # coefficients of the random family element in `_spectral_frame`
_BLOCK_ENTRIES = 1 << 21  # matrix entries per row block of a commutation system (32 MB)


def _check_square_family(mats):
    """Validate a generator family; returns it stacked as an n x d x d array."""
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


def _null_space_floor(row_blocks, cutoff: float) -> np.ndarray:
    """Nullspace, with an absolute singular-value cutoff, of the matrix
    whose rows come in the given blocks, each with the same columns.

    Callers build their constraint rows from norm-1 matrices, so genuine
    constraints have singular values of order 1. A cutoff relative to the
    largest singular value misreads an all-noise system, where every row
    vanishes up to roundoff, as full rank; the absolute floor reads it
    correctly as rank zero. The SVD is taken of the R factor of the stack,
    which has the stack's singular values and right singular vectors
    without forming a tall U; it is accumulated block by block, as the R
    factor of [R; block], so the whole stack is never held at once. A LAPACK
    failure raises NoConvergence.
    """
    with _lapack():
        r = None
        for block in row_blocks:
            r = np.linalg.qr(block if r is None else np.vstack([r, block]), mode="r")
        _, s, vh = np.linalg.svd(r)
    rank = int(np.sum(s > cutoff))
    return vh[rank:, :].conj().T


def _spectral_frame(xs: np.ndarray, ys: np.ndarray, tol: Tolerances):
    """Unitary frames (u_x, u_y) and the mask of entries an intertwiner may use.

    For Hermitian families, every L with L x_i = y_i L also satisfies
    L G_x = G_y L for G = sum_i c_i x_i (resp. y_i), so in the eigenbases of
    G_x and G_y the entry (p, q) of L vanishes unless mu_p and lambda_q are
    equal. Both spectra are clustered together with `_cluster_ascending`;
    an entry is kept when its two eigenvalues share a cluster. Merging too
    much only keeps extra unknowns, so the policy errs that way. Otherwise
    (some matrix not Hermitian within tol_sym) the frame is the identity and
    every entry is kept. A LAPACK failure raises NoConvergence.
    """
    n, ka, kb = xs.shape[0], xs.shape[1], ys.shape[1]
    defect = max(
        float(np.linalg.norm(m - m.conj().transpose(0, 2, 1), axis=(1, 2)).max()) for m in (xs, ys)
    )
    if defect > tol.tol_sym:
        return np.eye(ka, dtype=complex), np.eye(kb, dtype=complex), np.ones((kb, ka), dtype=bool)
    c = np.random.default_rng(_FRAME_SEED).standard_normal(n)
    with _lapack():
        lam, u_x = np.linalg.eigh(np.tensordot(c, xs, axes=1))
        mu, u_y = np.linalg.eigh(np.tensordot(c, ys, axes=1))
    merged = np.concatenate([lam, mu])
    order = np.argsort(merged, kind="stable")
    label = np.empty(ka + kb, dtype=int)
    # a gap g between lambda_q and mu_p only bounds |L'_pq| by ||c|| s / g,
    # where s is the system's residual on L; gaps up to ||c|| tol_rank are
    # within what the rank floor reads as zero, so they never split
    floor = tol.tol_rank * float(np.linalg.norm(c))
    for k, cl in enumerate(_cluster_ascending(merged[order], tol, floor)):
        label[order[cl]] = k
    return u_x, u_y, label[ka:, None] == label[None, :ka]


def _intertwiners(xs, ys, tol: Tolerances) -> list:
    """Basis of {L : L x_i = y_i L for every i}, as kb x ka matrices.

    xs are ka x ka and ys kb x kb, paired by index; callers scale them, since
    the rank floor tol_rank is absolute. The system is solved for
    L' = u_y^dag L u_x in `_spectral_frame`, over the kept entries only:
    the column of entry (p, q) stacks E_pq x'_i - y'_i E_pq over i. The
    basis is orthonormal under the Hilbert-Schmidt inner product.
    """
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    ka, kb = xs.shape[1], ys.shape[1]
    u_x, u_y, mask = _spectral_frame(xs, ys, tol)
    ps, qs = np.nonzero(mask)
    if ps.size == 0:
        return []
    xf = u_x.conj().T @ xs @ u_x
    yf = u_y.conj().T @ ys @ u_y
    k = np.arange(ps.size)

    def row_blocks():
        # the rows of `per` generators at a time, about _BLOCK_ENTRIES entries
        per = max(1, _BLOCK_ENTRIES // (kb * ka * ps.size))
        for start in range(0, xs.shape[0], per):
            x, y = xf[start : start + per], yf[start : start + per]
            cols = np.zeros((ps.size, x.shape[0], kb, ka), dtype=complex)
            cols[k, :, ps, :] = x[:, qs, :].transpose(1, 0, 2)  # E_pq x': row p is x'[q, :]
            cols[k, :, :, qs] -= y[:, :, ps].transpose(2, 0, 1)  # y' E_pq: column q is y'[:, p]
            yield cols.reshape(ps.size, -1).T

    ns = _null_space_floor(row_blocks(), tol.tol_rank)
    lf = np.zeros((ns.shape[1], kb, ka), dtype=complex)
    lf[:, ps, qs] = ns.T
    return list(u_y @ lf @ u_x.conj().T)


def _commutant_basis(mats, tol: Tolerances) -> list:
    """Orthonormal basis of {X : XB = BX for every B in mats}.

    Matrices of norm at most tol_zero impose nothing and are dropped; the
    rest are normalized.
    """
    stacked = np.asarray(mats, dtype=complex)
    norms = np.linalg.norm(stacked, axis=(1, 2))
    keep = norms > tol.tol_zero
    if not keep.any():
        unit = np.zeros_like(stacked[:1])
    else:
        unit = stacked[keep] / norms[keep, None, None]
    return _intertwiners(unit, unit, tol)


def commutant_of_family(generators, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Orthonormal basis of the commutant of a generator set, as d x d matrices.

    Always contains the identity direction I/sqrt(d) in its span.
    """
    mats, _ = _check_square_family(generators)
    return tuple(_commutant_basis(mats, tol))


@dataclass(frozen=True)
class IsotypicComponent:
    """One isomorphism class of simple invariant subspaces."""

    submodule_bases: tuple  # each a d x simple_dim isometry, mutually orthogonal
    simple_dim: int

    @property
    def multiplicity(self) -> int:
        return len(self.submodule_bases)

    def projector(self) -> np.ndarray:
        d = self.submodule_bases[0].shape[0]
        p = np.zeros((d, d), dtype=complex)
        for v in self.submodule_bases:
            p += v @ v.conj().T
        return 0.5 * (p + p.conj().T)


@dataclass(frozen=True)
class IsotypicDecomposition:
    dim: int
    components: tuple
    residual_check: float


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


def _project_onto_span(mat, basis_mats):
    basis = np.asarray(basis_mats)
    coeffs = basis.reshape(basis.shape[0], -1).conj() @ mat.reshape(-1)
    return np.tensordot(coeffs, basis, axes=1)


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
    Matrix Anal. Appl. 32, 2011):

    - the eigenvalue clusters of X1 (`_cluster_ascending`) are the simple
      pieces V_a;
    - by Schur's lemma, two pieces of equal dimension are equivalent exactly
      when the block V_b^dag X2 V_a is nonzero, i.e. its Frobenius norm
      exceeds tol_rank * ||X2||_F; a piece joins the first class whose first
      piece V_0 it has a nonzero block with, and otherwise opens a class;
    - the draw is accepted when the classes account for the whole
      commutant, sum_c multiplicity_c^2 = dim commutant. Coinciding
      eigenvalues of X1 or a vanishing block of X2 break that count; the
      pair is then redrawn from the next two seeds (attempt k uses seed + 2k
      and seed + 2k + 1), and after 8 attempts DegenerateSample is raised.

    The copies of a class come out aligned: V_0 is kept and every other copy
    V_j is rotated by the unitary factor of V_j^dag X2 V_0, an intertwiner
    from V_0 to V_j, so V_j^dag A_i V_j = V_0^dag A_i V_0 for every
    generator A_i. `residual_check` is the largest leak |A_i V - V V^dag A_i V|
    of a piece under the norm-capped generators.

    Requires the generators to jointly span the ambient space
    (SupportDeficient otherwise); restrict first if they do not.
    """
    mats, d = _check_square_family(generators)
    with _lapack():
        ranks = np.linalg.matrix_rank(mats.reshape(-1, d), tol=None)
    if ranks < d:
        raise SupportDeficient(
            f"generators span a {ranks}-dim subspace of the {d}-dim ambient space"
        )
    norm_mats = mats / np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))[:, None, None]
    comm = np.asarray(_commutant_basis(norm_mats, tol))

    def draw(s: int) -> np.ndarray:
        x = _project_onto_span(seeded_random_hermitian(d, s), comm)
        return 0.5 * (x + x.conj().T)

    for attempt in range(_RETRY_BUDGET):
        s = int(seed) + 2 * attempt
        with _lapack():
            w, u = np.linalg.eigh(draw(s))
        pieces = _cluster_ascending(w, tol)
        x2 = u.conj().T @ draw(s + 1) @ u
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
        if sum(len(cls) ** 2 for cls in classes) == len(comm):
            break
    else:
        raise DegenerateSample(
            f"commutant samples stayed degenerate after {_RETRY_BUDGET} attempts"
        )

    components = []
    for cls in classes:
        rep = pieces[cls[0]]
        bases = [u[:, rep]]
        bases += [u[:, pieces[a]] @ _unitary_polish(x2[np.ix_(pieces[a], rep)]) for a in cls[1:]]
        components.append(IsotypicComponent(tuple(bases), len(rep)))
    residual = max(
        float(_leaks(norm_mats, v)[1].max()) for c in components for v in c.submodule_bases
    )
    return IsotypicDecomposition(d, tuple(components), residual)


def intertwiner_space(generators, basis_a, basis_b, tol: Tolerances = DEFAULT_TOL):
    """Basis of maps L with L A_i = B_i L on two invariant subspaces.

    A_i and B_i are the generators compressed to the two column spans. Both
    spans must be invariant under every generator within Tolerances.VERDICT
    times max(1, ||A_i||_F) (NotInvariant otherwise). Each returned map has
    unit Frobenius norm with its largest-modulus entry rotated to the
    positive real axis.
    """
    mats, d = _check_square_family(generators)
    va = as_complex_matrix(basis_a)
    vb = as_complex_matrix(basis_b)
    if va.shape[0] != d or vb.shape[0] != d:
        raise DimensionMismatch("subspace bases must live in the generators' ambient space")
    scale = np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))
    comps = []
    for name, v in (("basis_a", va), ("basis_b", vb)):
        comp, leaks = _leaks(mats, v)
        if np.any(leaks > Tolerances.VERDICT * scale):
            raise NotInvariant(f"{name} is not invariant under generator family")
        comps.append(comp / scale[:, None, None])
    out = []
    for lam in _intertwiners(comps[0], comps[1], tol):
        lam = lam / float(np.linalg.norm(lam))
        idx = np.unravel_index(int(np.argmax(np.abs(lam))), lam.shape)
        phase = lam[idx] / abs(lam[idx])
        out.append(lam / phase)
    return out

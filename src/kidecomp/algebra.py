"""Operator *-algebras generated by finite matrix families.

The decomposition engine needs two ingredients from this module: the
commutant of a generator family, and the splitting of the ambient space into
simple invariant subspaces grouped by isomorphism class (multiplicity
spaces). Both rest on one linear solve, the null space of L x_i = y_i L
(`_intertwiners`). Everything works on dense complex matrices; commutant
bases are orthonormal under the Hilbert-Schmidt inner product
<A, B> = Tr(A^dag B).
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateSample,
    DimensionMismatch,
    NoConvergence,
    NotInvariant,
    SupportDeficient,
)
from .linalg import DEFAULT_TOL, Tolerances, as_complex_matrix, seeded_random_hermitian

__all__ = [
    "IsotypicComponent",
    "IsotypicDecomposition",
    "commutant_of_family",
    "isotypic_decompose",
    "intertwiner_space",
]

_RETRY_BUDGET = 8


def _check_square_family(mats):
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
    return out, d


def _null_space_floor(stacked: np.ndarray, cutoff: float) -> np.ndarray:
    """Nullspace with an absolute singular-value cutoff.

    Callers build their constraint rows from norm-1 matrices, so genuine
    constraints have singular values of order 1. A cutoff relative to the
    largest singular value misreads an all-noise system, where every row
    vanishes up to roundoff, as full rank; the absolute floor reads it
    correctly as rank zero. The SVD is taken of the square R factor of the
    stack, which has the stack's singular values and right singular vectors
    without forming a tall U. Requires at least as many rows as columns,
    which every call site guarantees. A LAPACK failure raises NoConvergence.
    """
    try:
        r = np.linalg.qr(stacked, mode="r")
        _, s, vh = np.linalg.svd(r)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    rank = int(np.sum(s > cutoff))
    return vh[rank:, :].conj().T


def _intertwiners(xs, ys, tol: Tolerances) -> list:
    """Basis of {L : L x_i = y_i L for every i}, as kb x ka matrices.

    xs are ka x ka and ys kb x kb, paired by index; callers scale them, since
    the rank floor tol_rank is absolute. The basis is orthonormal under the
    Hilbert-Schmidt inner product.
    """
    ka, kb = xs[0].shape[0], ys[0].shape[0]
    eye_a = np.eye(ka, dtype=complex)
    eye_b = np.eye(kb, dtype=complex)
    # row-major vec: vec(y L) = (y (x) I) vec L, vec(L x) = (I (x) x^T) vec L
    rows = [np.kron(y, eye_a) - np.kron(eye_b, x.T) for x, y in zip(xs, ys)]
    ns = _null_space_floor(np.vstack(rows), tol.tol_rank)
    return list(ns.T.reshape(-1, kb, ka))


def _commutant_basis(mats, tol: Tolerances) -> list:
    """Orthonormal basis of {X : XB = BX for every B in mats}.

    Matrices of norm at most tol_zero impose nothing and are dropped; the
    rest are normalized.
    """
    unit = []
    for b in mats:
        nrm = float(np.linalg.norm(b))
        if nrm > tol.tol_zero:
            unit.append(b / nrm)
    if not unit:
        unit.append(np.zeros_like(mats[0], dtype=complex))
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


def _cluster_ascending(w: np.ndarray, tol: Tolerances):
    """Split ascending eigenvalues into clusters separated by relative gaps."""
    spread = float(w[-1] - w[0])
    if spread <= tol.tol_zero * max(1.0, float(np.abs(w).max())):
        return [list(range(w.size))]
    cut = tol.tol_cluster * spread
    clusters = [[0]]
    for i in range(1, w.size):
        if float(w[i] - w[i - 1]) < cut:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _project_onto_span(mat, basis_mats):
    out = np.zeros_like(mat)
    for b in basis_mats:
        out += b * np.vdot(b.reshape(-1), mat.reshape(-1))
    return out


def _restricted(mats, isometry):
    return [isometry.conj().T @ m @ isometry for m in mats]


def isotypic_decompose(generators, seed: int = 0, tol: Tolerances = DEFAULT_TOL) -> IsotypicDecomposition:
    """Split the ambient space into simple invariant subspaces, grouped.

    Works by sampling a random Hermitian element of the commutant of the
    generator family, splitting along its eigenvalue clusters, and recursing
    until every piece has a trivial restricted commutant. Simple pieces are
    then grouped into isomorphism classes via intertwiner spaces. A sample
    whose eigenvalues refuse to separate on a reducible subspace is redrawn
    with seed+1, at most 8 times, before DegenerateSample is raised.

    Requires the generators to jointly span the ambient space
    (SupportDeficient otherwise); restrict first if they do not.
    """
    mats, d = _check_square_family(generators)
    stacked = np.vstack(mats)
    ranks = np.linalg.matrix_rank(stacked, tol=None)
    if ranks < d:
        raise SupportDeficient(
            f"generators span a {ranks}-dim subspace of the {d}-dim ambient space"
        )
    norm_mats = [m / max(1.0, float(np.linalg.norm(m))) for m in mats]

    seed_box = [int(seed)]

    def next_seed() -> int:
        s = seed_box[0]
        seed_box[0] += 1
        return s

    simples = []

    def split(isometry: np.ndarray):
        k = isometry.shape[1]
        sub = _restricted(norm_mats, isometry)
        comm = _commutant_basis(sub, tol)
        if len(comm) <= 1:
            simples.append(isometry)
            return
        for _ in range(_RETRY_BUDGET):
            sample = _project_onto_span(seeded_random_hermitian(k, next_seed()), comm)
            sample = 0.5 * (sample + sample.conj().T)
            w, u = np.linalg.eigh(sample)
            clusters = _cluster_ascending(w, tol)
            if len(clusters) > 1:
                for cl in clusters:
                    split(isometry @ u[:, cl])
                return
        raise DegenerateSample(
            f"commutant sample stayed degenerate after {_RETRY_BUDGET} reseeds"
        )

    split(np.eye(d, dtype=complex))

    # group simple subspaces by isomorphism class (Schur: intertwiner dim 0 or 1)
    classes = []
    for v in simples:
        placed = False
        for cls in classes:
            rep = cls[0]
            if rep.shape[1] != v.shape[1]:
                continue
            if intertwiner_space(norm_mats, rep, v, tol):
                cls.append(v)
                placed = True
                break
        if not placed:
            classes.append([v])

    residual = 0.0
    for m in norm_mats:
        for v in simples:
            leak = m @ v - v @ (v.conj().T @ m @ v)
            residual = max(residual, float(np.linalg.norm(leak)))

    components = tuple(
        IsotypicComponent(tuple(cls), cls[0].shape[1]) for cls in classes
    )
    return IsotypicDecomposition(d, components, residual)


def intertwiner_space(generators, basis_a, basis_b, tol: Tolerances = DEFAULT_TOL):
    """Basis of maps L with L A_i = B_i L on two invariant subspaces.

    A_i and B_i are the generators compressed to the two column spans. Both
    spans must be invariant under every generator within 1e-8 (NotInvariant
    otherwise). Each returned map has unit Frobenius norm with its
    largest-modulus entry rotated to the positive real axis.
    """
    mats, d = _check_square_family(generators)
    va = as_complex_matrix(basis_a)
    vb = as_complex_matrix(basis_b)
    if va.shape[0] != d or vb.shape[0] != d:
        raise DimensionMismatch("subspace bases must live in the generators' ambient space")
    for name, v in (("basis_a", va), ("basis_b", vb)):
        for m in mats:
            scale = max(1.0, float(np.linalg.norm(m)))
            leak = m @ v - v @ (v.conj().T @ m @ v)
            if float(np.linalg.norm(leak)) > 1e-8 * scale:
                raise NotInvariant(f"{name} is not invariant under generator family")
    xs, ys = [], []
    for m in mats:
        nrm = max(1.0, float(np.linalg.norm(m)))
        xs.append(va.conj().T @ m @ va / nrm)
        ys.append(vb.conj().T @ m @ vb / nrm)
    out = []
    for lam in _intertwiners(xs, ys, tol):
        lam = lam / float(np.linalg.norm(lam))
        idx = np.unravel_index(int(np.argmax(np.abs(lam))), lam.shape)
        phase = lam[idx] / abs(lam[idx])
        out.append(lam / phase)
    return out

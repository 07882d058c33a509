"""Dense complex linear-algebra primitives with an explicit tolerance policy.

Everything downstream builds on the functions in this module. They are pure:
inputs are never mutated, and all thresholds come from an explicit
`Tolerances` value rather than hidden constants. Matrices are plain complex
ndarrays (dense, row-major); `DensityMatrix` and `StateFamily` add validated
metadata on top. The supported envelope is ambient dimension <= 64.
"""

import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
from typing import ClassVar

import numpy as np

from .exceptions import (
    BadWeights,
    DimensionMismatch,
    EmptyFamily,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    ValidationError,
    ZeroOffBlock,
    ZeroOperator,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "DensityMatrix",
    "StateFamily",
    "as_complex_matrix",
    "hermitian_part",
    "hermiticity_defect",
    "trace_norm",
    "density_matrix",
    "state_family",
    "hermitian_eig",
    "support_projector",
    "support_basis",
    "polar_offblock",
    "partial_trace",
    "von_neumann_entropy",
    "entropy_of_spectrum",
    "seeded_random_hermitian",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    tol_rank is relative to the largest eigenvalue (or singular value) of the
    operator being truncated, tol_cluster is relative to the spread of the
    spectrum being clustered, the rest are absolute. VERDICT decides the
    predicates' answers and CERTIFICATE bounds the reassembly and gauge
    tests; they are fixed class constants, not fields.
    """

    VERDICT: ClassVar[float] = 1e-8
    CERTIFICATE: ClassVar[float] = 1e-7

    tol_sym: float = 1e-10
    tol_psd: float = 1e-9
    tol_trace: float = 1e-9
    tol_rank: float = 1e-9
    tol_zero: float = 1e-12
    tol_cluster: float = 1e-7

    def __post_init__(self):
        for name, value in vars(self).items():
            ok = isinstance(value, numbers.Real) and np.isfinite(value) and value >= 0
            if not ok:
                raise ValueError(f"{name} must be a finite nonnegative real, got {value!r}")
        if self.tol_rank <= self.tol_zero:
            raise ValueError("tol_rank must exceed tol_zero")


DEFAULT_TOL = Tolerances()


@contextmanager
def _lapack():
    """Raise a LAPACK failure inside the block as NoConvergence."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def as_complex_matrix(mat) -> np.ndarray:
    """Coerce to a finite complex 2-d ndarray (accepts DensityMatrix)."""
    if isinstance(mat, DensityMatrix):
        return mat.mat
    a = np.asarray(mat, dtype=complex)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValidationError("matrix contains non-finite entries")
    return a


def _square(mat) -> np.ndarray:
    a = as_complex_matrix(mat)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitian_part(mat) -> np.ndarray:
    return _hermitian_stack(_square(mat))


def _hermitian_stack(a: np.ndarray) -> np.ndarray:
    """Hermitian part of each matrix in a ... x d x d stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def hermiticity_defect(mat) -> float:
    a = _square(mat)
    return float(np.linalg.norm(a - a.conj().T))


def trace_norm(mat) -> float:
    """Sum of singular values."""
    with _lapack():
        return float(np.linalg.svd(as_complex_matrix(mat), compute_uv=False).sum())


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian PSD matrix with cached trace and symmetry defect."""

    mat: np.ndarray
    trace: float
    hermiticity_defect: float
    normalized: bool = True

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _density_matrices(a: np.ndarray, tol: Tolerances, normalized: bool = True) -> list:
    """Run the checks of `density_matrix` on an m x d x d stack at once.

    Returns a DensityMatrix per member. A failing stack raises, for its
    first failing member, the error that `density_matrix` raises on that
    member alone.
    """
    finite = np.isfinite(a).all(axis=(1, 2))
    m = a.shape[0] if finite.all() else int(np.argmin(finite))
    a = a[:m]
    defects = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(1, 2))
    h = _hermitian_stack(a)
    with _lapack():
        w = np.linalg.eigvalsh(h)
    traces = np.trace(h, axis1=1, axis2=2).real
    floors = -tol.tol_psd * np.maximum(1.0, np.abs(w[:, -1]))
    not_herm = defects > tol.tol_sym
    not_psd = w[:, 0] < floors
    bad_trace = np.abs(traces - 1.0) > tol.tol_trace if normalized else traces <= tol.tol_zero
    bad = not_herm | not_psd | bad_trace
    if bad.any():
        k = int(np.argmax(bad))
        if not_herm[k]:
            raise NotHermitian(f"hermiticity defect {defects[k]:.3e} exceeds tol_sym={tol.tol_sym:.3e}")
        if not_psd[k]:
            raise ValidationError(f"matrix is not positive semidefinite (min eigenvalue {w[k, 0]:.3e})")
        tr = float(traces[k])
        if normalized:
            raise NotNormalized(f"trace {tr!r} differs from 1 beyond tol_trace={tol.tol_trace:.3e}")
        raise ValidationError(f"unnormalized density matrix must have positive trace, got {tr!r}")
    if m < finite.size:
        raise ValidationError("matrix contains non-finite entries")
    h.setflags(write=False)
    return [DensityMatrix(x, float(t), float(e), normalized) for x, t, e in zip(h, traces, defects)]


def density_matrix(mat, tol: Tolerances = DEFAULT_TOL, normalized: bool = True) -> DensityMatrix:
    """Validate a matrix as a (possibly unnormalized) density matrix.

    Raises NotHermitian when the symmetry defect exceeds tol_sym,
    ValidationError when an eigenvalue drops below -tol_psd (relative to
    max(1, largest eigenvalue)), and NotNormalized when the trace strays from
    1 while `normalized` is set.
    """
    return _density_matrices(_square(mat)[None], tol, normalized)[0]


@dataclass(frozen=True)
class StateFamily:
    """Finite list of same-dimension density matrices with optional weights."""

    states: tuple
    weights: np.ndarray | None
    dim: int

    def __len__(self) -> int:
        return len(self.states)

    def mats(self) -> list:
        return [s.mat for s in self.states]

    def effective_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        n = len(self.states)
        return np.full(n, 1.0 / n)


def state_family(states, weights=None, tol: Tolerances = DEFAULT_TOL) -> StateFamily:
    """Build a StateFamily; weights are normalized to sum to 1.

    Members already given as DensityMatrix are kept as they are. The raw
    members are validated as one stack per run of equal shapes, with the
    checks of `density_matrix`: the first failing member raises the error
    that `density_matrix` raises on it alone. Members of different
    dimensions raise DimensionMismatch naming the first one off.
    """
    states = list(states)
    if not states:
        raise EmptyFamily("a state family needs at least one state")
    raw = [s if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex) for s in states]
    out = []
    for shape, run in groupby(raw, key=lambda s: None if isinstance(s, DensityMatrix) else s.shape):
        run = list(run)
        if shape is None:
            out.extend(run)
            continue
        if len(shape) != 2 or 0 in shape or shape[0] != shape[1]:
            _square(run[0])  # raises what density_matrix raises on this member
        out.extend(_density_matrices(np.stack(run), tol))
    out = tuple(out)
    dim = out[0].dim
    for k, s in enumerate(out):
        if s.dim != dim:
            raise DimensionMismatch(f"state {k} has dim {s.dim}, expected {dim}")
    w = None
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != len(out):
            raise BadWeights(f"need {len(out)} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise BadWeights("weights must be finite and strictly positive")
        w = w / w.sum()
        w.setflags(write=False)
    return StateFamily(out, w, dim)


def hermitian_eig(mat, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with orthonormal
    columns). The input is symmetrized before the solve; a symmetry defect
    beyond tol_sym raises NotHermitian.
    """
    a = _square(mat)
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > tol.tol_sym:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds tol_sym={tol.tol_sym:.3e}")
    h = 0.5 * (a + a.conj().T)
    with _lapack():
        w, v = np.linalg.eigh(h)
    return w, v


def support_basis(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the support of a PSD matrix.

    Eigenvalues at or below tol_rank times the largest one count as zero.
    Raises ZeroOperator when nothing survives.
    """
    w, v = hermitian_eig(mat, tol)
    lmax = float(w[-1])
    if lmax <= tol.tol_zero:
        raise ZeroOperator("operator is numerically zero")
    keep = w > tol.tol_rank * lmax
    return v[:, keep]


def support_projector(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the support of a PSD matrix."""
    v = support_basis(mat, tol)
    p = v @ v.conj().T
    return 0.5 * (p + p.conj().T)


def polar_offblock(mat, tol: Tolerances = DEFAULT_TOL):
    """Polar factors (W, N) of an arbitrary matrix M = W N.

    W is the partial isometry from the rank-truncated SVD (support of N onto
    the image of M) and N = (M^dag M)^(1/2) restricted to its support.
    Raises ZeroOffBlock when M is numerically zero.
    """
    m = as_complex_matrix(mat)
    if float(np.linalg.norm(m)) <= tol.tol_zero:
        raise ZeroOffBlock("matrix is numerically zero")
    with _lapack():
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > tol.tol_rank * s[0]
    u_r, s_r, vh_r = u[:, keep], s[keep], vh[keep, :]
    w = u_r @ vh_r
    n = vh_r.conj().T @ (s_r[:, None] * vh_r)
    return w, 0.5 * (n + n.conj().T)


def partial_trace(rho, d_left: int, d_right: int, keep: str = "left"):
    """Trace out one tensor factor of an operator on C^d_left (x) C^d_right.

    keep="left" returns the d_left marginal, keep="right" the d_right one.
    A ... x d x d stack is traced member by member. DensityMatrix input gives
    DensityMatrix output (trace is preserved).
    """
    if keep not in ("left", "right"):
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    wrap = isinstance(rho, DensityMatrix)
    m = np.asarray(rho.mat if wrap else rho, dtype=complex)
    if m.ndim == 2:
        m = _square(m)
    if d_left < 1 or d_right < 1 or m.ndim < 2 or m.shape[-2:] != (d_left * d_right,) * 2:
        raise DimensionMismatch(
            f"matrix of shape {m.shape} does not factor as {d_left} x {d_right}"
        )
    r = m.reshape(*m.shape[:-2], d_left, d_right, d_left, d_right)
    out = np.einsum("...abcb->...ac", r) if keep == "left" else np.einsum("...abac->...bc", r)
    if wrap:
        out = 0.5 * (out + out.conj().T)
        return DensityMatrix(
            out, float(np.trace(out).real), hermiticity_defect(out), rho.normalized
        )
    return out


def entropy_of_spectrum(spectrum) -> float:
    """Shannon entropy in bits of a nonnegative vector; 0 log 0 := 0."""
    q = np.asarray(spectrum, dtype=float)
    q = q[q > 0.0]
    if q.size == 0:
        return 0.0
    # + 0.0 turns the -0.0 of a deterministic spectrum into plain 0.0
    return float(-(q * np.log2(q)).sum()) + 0.0


def von_neumann_entropy(rho, tol: Tolerances = DEFAULT_TOL) -> float:
    """Von Neumann entropy in bits of a normalized density matrix.

    Eigenvalues in (-tol_psd, tol_zero] are clamped to 0 before the log.
    Raises NotNormalized when the trace is off 1 by more than tol_trace.
    """
    m = _square(rho)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > tol.tol_trace:
        raise NotNormalized(f"trace {tr!r} differs from 1 beyond tol_trace={tol.tol_trace:.3e}")
    w, _ = hermitian_eig(m, tol)
    w = np.where(w <= tol.tol_zero, 0.0, w)
    return entropy_of_spectrum(w)


def seeded_random_hermitian(d: int, seed: int) -> np.ndarray:
    """Deterministic random Hermitian d x d matrix (Gaussian entries)."""
    if d < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)

"""Dense complex linear-algebra primitives with an explicit tolerance policy.

Everything downstream builds on the functions in this module. They are pure:
inputs are never mutated, and all thresholds come from an explicit
`Tolerances` value rather than hidden constants. Matrices are plain complex
ndarrays (dense, row-major), in and out; only `density_matrix` and
`state_family` wrap them, in `DensityMatrix` (Hermitian, PSD, unit trace)
and `StateFamily`, which mark them as validated. The supported envelope is
ambient dimension <= 64.

Inputs are validated once, where they enter: `tol_sym`, `tol_psd` and
`tol_trace` apply to what a caller hands in. A value that the package
builds from validated values (an average, a marginal, a product, an
eigenvalue-snapped component) is wrapped or diagonalized unchecked, through
the private `_as_densities`, `_as_family` and `_eigh`, so a strict
tolerance does not reject its roundoff.
"""

import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .exceptions import (
    BadWeights,
    DimensionMismatch,
    EmptyFamily,
    KidecompError,
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
    "trace_norm",
    "density_matrix",
    "state_family",
    "hermitian_eig",
    "support_projector",
    "support_basis",
    "partial_trace",
    "von_neumann_entropy",
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


def trace_norm(mat) -> float:
    """Sum of singular values."""
    with _lapack():
        return float(np.linalg.svd(as_complex_matrix(mat), compute_uv=False).sum())


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian PSD unit-trace matrix."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _as_densities(h: np.ndarray) -> list:
    """A DensityMatrix per member of a Hermitian m x d x d stack, unchecked:
    for stacks built from validated values. The stack becomes read-only."""
    h.setflags(write=False)
    return [DensityMatrix(x) for x in h]


def _hermitian_psd(a: np.ndarray, tol: Tolerances):
    """The hermiticity and PSD checks of `density_matrix` on an m x d x d
    stack, unraised. Returns the Hermitian parts of its members up to the
    first non-finite one, and their faults in the order `density_matrix`
    checks them, each a (mask, error of member k) pair."""
    finite = np.isfinite(a).all(axis=(1, 2))
    a = a[: a.shape[0] if finite.all() else int(np.argmin(finite))]
    defects = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(1, 2))
    h = _hermitian_stack(a)
    with _lapack():
        w = np.linalg.eigvalsh(h)
    floors = -tol.tol_psd * np.maximum(1.0, np.abs(w[:, -1]))

    def not_herm(k):
        return NotHermitian(f"hermiticity defect {defects[k]:.3e} exceeds tol_sym={tol.tol_sym:.3e}", member=k)

    def not_psd(k):
        return ValidationError(f"matrix is not positive semidefinite (min eigenvalue {w[k, 0]:.3e})", member=k)

    return h, [(defects > tol.tol_sym, not_herm), (w[:, 0] < floors, not_psd)]


def _raise_first(a: np.ndarray, h: np.ndarray, faults: list) -> np.ndarray:
    """Raise the first fault of the first member of `a` that has one, else
    the non-finite error of the first member that `h` lacks; returns h."""
    bad = np.any([mask for mask, _ in faults], axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise next(error(k) for mask, error in faults if mask[k])
    if h.shape[0] < a.shape[0]:
        raise ValidationError("matrix contains non-finite entries", member=h.shape[0])
    return h


def _density_matrices(a: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Run the checks of `density_matrix` on an m x d x d stack at once.

    Returns the members' Hermitian parts as one stack. A failing stack
    raises, for its first failing member, the error that `density_matrix`
    raises on that member alone, with the member's index as its `member`.
    """
    h, faults = _hermitian_psd(a, tol)
    traces = np.trace(h, axis1=1, axis2=2).real

    def bad_trace(k):
        return NotNormalized(f"trace {float(traces[k])!r} differs from 1 beyond tol_trace={tol.tol_trace:.3e}", member=k)

    return _raise_first(a, h, faults + [(np.abs(traces - 1.0) > tol.tol_trace, bad_trace)])


def _psd_matrix(mat, tol: Tolerances) -> np.ndarray:
    """The Hermitian part of a square matrix that passes the hermiticity and
    PSD checks of `density_matrix`, which raise as there; its trace is not
    checked. For states given with any positive trace."""
    a = _square(mat)[None]
    return _raise_first(a, *_hermitian_psd(a, tol))[0]


def density_matrix(mat, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Validate a matrix as a density matrix.

    Raises NotHermitian when the symmetry defect exceeds tol_sym,
    ValidationError when an eigenvalue drops below -tol_psd (relative to
    max(1, largest eigenvalue)), and NotNormalized when the trace strays from
    1 by more than tol_trace.
    """
    return _as_densities(_density_matrices(_square(mat)[None], tol))[0]


@dataclass(frozen=True)
class StateFamily:
    """Validated same-dimension density matrices, held as one read-only
    n x d x d array, with optional weights."""

    _stack: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray | None

    def __len__(self) -> int:
        return self._stack.shape[0]

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    def mats(self) -> np.ndarray:
        """The members' matrices as one read-only n x d x d array."""
        return self._stack

    def effective_weights(self) -> np.ndarray:
        if self.weights is not None:
            return self.weights
        return np.full(len(self), 1.0 / len(self))


def state_family(states, weights=None, tol: Tolerances = DEFAULT_TOL) -> StateFamily:
    """Build a StateFamily; weights are normalized to sum to 1.

    Every member goes through one path; a DensityMatrix is read through its
    `mat` and checked like any other member. Shapes are checked first: the
    first member that is not a square matrix raises what `density_matrix`
    raises on it, and the first one of another dimension than member 0
    raises DimensionMismatch naming it. Then the members are validated as
    one stack with the checks of `density_matrix`: the first failing member
    raises the error that `density_matrix` raises on it alone. Either way
    the error's `member` is that member's index. Only an input with two
    different faults can report another fault than a member-by-member
    `density_matrix` walk would: a shape fault wins over an earlier
    member's value fault.
    """
    mats = [np.asarray(s.mat if isinstance(s, DensityMatrix) else s, dtype=complex) for s in states]
    if not mats:
        raise EmptyFamily("a state family needs at least one state")
    for k, m in enumerate(mats):
        try:
            if m.ndim != 2 or 0 in m.shape or m.shape[0] != m.shape[1]:
                _square(m)  # raises what density_matrix raises on this member
            if m.shape != mats[0].shape:
                raise DimensionMismatch(f"state {k} has dim {m.shape[0]}, expected {mats[0].shape[0]}")
        except KidecompError as err:
            err.member = k
            raise
    stack = _density_matrices(np.stack(mats), tol)
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or weights.shape[0] != len(mats):
            raise BadWeights(f"need {len(mats)} weights, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0):
            raise BadWeights("weights must be finite and strictly positive")
    return _as_family(stack, weights)


def _as_family(h: np.ndarray, weights=None) -> StateFamily:
    """A StateFamily of a Hermitian n x d x d stack and positive weights (or
    None), unchecked: for families built from validated values. The weights
    are normalized to sum to 1; the stack becomes read-only."""
    h.setflags(write=False)
    if weights is not None:
        weights = weights / weights.sum()
        weights.setflags(write=False)
    return StateFamily(h, weights)


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
    return _eigh(a)


def _eigh(a: np.ndarray):
    """`np.linalg.eigh` of the Hermitian part of a matrix or a stack,
    unchecked: for matrices built from validated values."""
    with _lapack():
        return np.linalg.eigh(_hermitian_stack(a))


def support_basis(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the support of a PSD matrix.

    Eigenvalues at or below tol_rank times the largest one count as zero.
    Raises ZeroOperator when nothing survives.
    """
    return _support_of(*hermitian_eig(mat, tol), tol)


def _support_of(w: np.ndarray, v: np.ndarray, tol: Tolerances) -> np.ndarray:
    """The columns of v that `support_basis` keeps, from the eigenpairs (w, v)."""
    lmax = float(w[-1])
    if lmax <= tol.tol_zero:
        raise ZeroOperator("operator is numerically zero")
    return v[:, w > tol.tol_rank * lmax]


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

    keep="left" returns the d_left marginal, keep="right" the d_right one, as
    an ndarray. A ... x d x d stack is traced member by member; a
    DensityMatrix is read through its matrix.
    """
    if keep not in ("left", "right"):
        raise ValueError(f"keep must be 'left' or 'right', got {keep!r}")
    m = np.asarray(rho.mat if isinstance(rho, DensityMatrix) else rho, dtype=complex)
    if m.ndim == 2:
        m = _square(m)
    if d_left < 1 or d_right < 1 or m.ndim < 2 or m.shape[-2:] != (d_left * d_right,) * 2:
        raise DimensionMismatch(
            f"matrix of shape {m.shape} does not factor as {d_left} x {d_right}"
        )
    r = m.reshape(*m.shape[:-2], d_left, d_right, d_left, d_right)
    return np.einsum("...abcb->...ac", r) if keep == "left" else np.einsum("...abac->...bc", r)


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
    return _entropy_bits(hermitian_eig(m, tol)[0], tol)


def _entropy_bits(w: np.ndarray, tol: Tolerances) -> float:
    """`von_neumann_entropy` from the eigenvalues w of a density matrix."""
    return entropy_of_spectrum(np.where(w <= tol.tol_zero, 0.0, w))


def _check_seed(seed) -> int:
    """A seed as an int; ValidationError, naming it, unless it is a
    non-negative integer (a bool is not one)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def seeded_random_hermitian(d: int, seed: int) -> np.ndarray:
    """Deterministic random Hermitian d x d matrix (Gaussian entries).

    The seed must be a non-negative integer (ValidationError otherwise).
    """
    seed = _check_seed(seed)
    if d < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)

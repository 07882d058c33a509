import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import kidecomp

from kidecomp import (
    DEFAULT_TOL,
    Structure,
    Tolerances,
    canonical_kraus,
    coherence_pairing,
    confines_paired_subspace,
    confines_positive_part,
    density_matrix,
    hermitian_eig,
    identity_channel,
    partial_trace,
    seeded_random_hermitian,
    state_family,
    structures_equivalent,
    support_basis,
    support_projector,
    trace_norm,
    von_neumann_entropy,
)
from kidecomp.exceptions import (
    BadWeights,
    DimensionMismatch,
    EmptyFamily,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    ValidationError,
)
from kidecomp.linalg import (
    DensityMatrix,
    entropy_of_spectrum,
    hermitian_part,
    polar_offblock,
)

from helpers import fail_lapack_at


def test_tolerances_defaults_and_validation():
    tol = Tolerances()
    assert tol.tol_sym == 1e-10
    assert tol.tol_psd == 1e-9
    assert tol.tol_trace == 1e-9
    assert tol.tol_rank == 1e-9
    assert tol.tol_zero == 1e-12
    assert tol.tol_cluster == 1e-7
    with pytest.raises(ValueError):
        Tolerances(tol_rank=-1e-9)
    with pytest.raises(ValueError):
        Tolerances(tol_zero=1e-8)  # must stay below tol_rank


def test_fixed_thresholds_are_constants_not_fields():
    names = [f.name for f in fields(Tolerances)]
    assert names == ["tol_sym", "tol_psd", "tol_trace", "tol_rank", "tol_zero", "tol_cluster"]
    assert Tolerances.VERDICT == 1e-8
    assert Tolerances.CERTIFICATE == 1e-7
    with pytest.raises(TypeError):
        Tolerances(VERDICT=1.0)


def test_no_literal_threshold_outside_tolerances():
    # every small threshold is read from `Tolerances`; a literal below 1e-3
    # anywhere else in the package is a second threshold policy
    hits = []
    for path in sorted(Path(kidecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Tolerances":
                skip.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < node.value < 1e-3
                and id(node) not in skip
            ):
                hits.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert hits == []


def _public_functions(tree):
    """Functions named in a module's `__all__`, and the methods of the
    classes named there."""
    public = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            public = set(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            yield node
        if isinstance(node, ast.ClassDef) and node.name in public:
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def test_public_thresholds_come_only_through_tolerances():
    # a threshold enters a public call only as `tol: Tolerances`; a float
    # default, or a default read from `Tolerances`, is a second knob
    hits, scanned = [], 0
    for path in sorted(Path(kidecomp.__file__).parent.glob("*.py")):
        for fn in _public_functions(ast.parse(path.read_text())):
            scanned += 1
            for default in fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]:
                value = default.operand if isinstance(default, ast.UnaryOp) else default
                literal = isinstance(value, ast.Constant) and isinstance(value.value, float)
                from_tol = isinstance(value, ast.Attribute) and getattr(value.value, "id", None) == "Tolerances"
                if literal or from_tol:
                    hits.append(f"{path.name}:{value.lineno}: {fn.name}")
    assert scanned > 40
    assert hits == []


def test_hermitian_part_and_defect():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitian_part(m)
    assert np.allclose(h, h.conj().T)
    assert np.linalg.norm(h - h.conj().T) < 1e-15


def test_density_matrix_accepts_small_negatives():
    rho = density_matrix(np.diag([0.5, 0.5, 0.0]))
    assert rho.dim == 3
    assert abs(np.trace(rho.mat) - 1.0) < 1e-14
    # an eigenvalue at -1e-12 sits inside tol_psd; the data is kept as given
    tiny = np.diag([1.0 + 1e-12, -1e-12])
    accepted = density_matrix(tiny)
    assert np.allclose(accepted.mat, accepted.mat.conj().T)
    assert np.linalg.eigvalsh(accepted.mat).min() >= -1e-9


def test_density_matrix_rejections():
    with pytest.raises(NotHermitian):
        density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotNormalized):
        density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValidationError):
        density_matrix(np.diag([1.5, -0.5]))
    with pytest.raises(DimensionMismatch):
        density_matrix(np.ones((2, 3)))


def test_state_family_validation():
    rho = np.diag([1.0, 0.0])
    with pytest.raises(EmptyFamily):
        state_family([])
    with pytest.raises(DimensionMismatch):
        state_family([rho, np.eye(3) / 3.0])
    with pytest.raises(BadWeights):
        state_family([rho, rho], weights=[0.5, -0.5])
    with pytest.raises(BadWeights):
        state_family([rho, rho], weights=[1.0])
    fam = state_family([rho, np.diag([0.0, 1.0])], weights=[3.0, 1.0])
    assert np.allclose(fam.effective_weights(), [0.75, 0.25])
    uniform = state_family([rho, np.diag([0.0, 1.0])])
    assert np.allclose(uniform.effective_weights(), [0.5, 0.5])


GOOD = np.diag([0.5, 0.3, 0.2]).astype(complex)
BAD_MEMBERS = {
    "non-hermitian": np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]]),
    "non-psd": np.diag([1.2, -0.1, -0.1]),
    "wrong-trace": np.diag([0.5, 0.5, 0.5]),
    "non-finite": np.diag([np.nan, 0.5, 0.5]),
    "non-square": np.ones((3, 2)) / 3.0,
}


def scalar_error(mat):
    with pytest.raises(Exception) as err:
        density_matrix(mat)
    return err.value


@pytest.mark.parametrize("kind", sorted(BAD_MEMBERS))
@pytest.mark.parametrize("k", [0, 4, 9])
def test_state_family_raises_the_scalar_error_of_a_bad_member(kind, k):
    members = [GOOD] * 10
    members[k] = BAD_MEMBERS[kind]
    want = scalar_error(BAD_MEMBERS[kind])
    with pytest.raises(type(want)) as got:
        state_family(members)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)
    assert got.value.member == k


@pytest.mark.parametrize("first, second", [("non-psd", "non-hermitian"), ("non-hermitian", "non-finite"), ("non-finite", "wrong-trace")])
def test_state_family_reports_the_first_bad_member(first, second):
    members = [GOOD, GOOD, BAD_MEMBERS[first], GOOD, BAD_MEMBERS[second], GOOD]
    want = scalar_error(BAD_MEMBERS[first])
    with pytest.raises(type(want)) as got:
        state_family(members)
    assert str(got.value) == str(want)
    assert got.value.member == 2


def test_state_family_mixed_density_and_raw_members():
    other = np.diag([0.2, 0.2, 0.6]).astype(complex)
    given = density_matrix(other)
    fam = state_family([given, GOOD, GOOD, given, other])
    assert not fam.mats().flags.writeable
    for got, m in zip(fam.mats(), [other, GOOD, GOOD, other, other], strict=True):
        assert np.array_equal(got, density_matrix(m).mat)


def test_state_family_checks_density_matrix_members_like_raw_ones():
    # a DensityMatrix built around an invalid matrix, or validated under
    # looser tolerances, is checked again under the family's own
    with pytest.raises(ValidationError, match="positive semidefinite") as err:
        state_family([DensityMatrix(np.diag([3.0, -1.0])), np.eye(2) / 2])
    assert err.value.member == 0
    loose = density_matrix(np.diag([0.504, 0.5]), Tolerances(tol_trace=1e-2))
    with pytest.raises(NotNormalized) as err:
        state_family([np.eye(2) / 2, loose])
    assert err.value.member == 1
    assert len(state_family([np.eye(2) / 2, loose], tol=Tolerances(tol_trace=1e-2))) == 2


def test_state_family_mats_is_one_read_only_stack_of_the_members():
    other = np.diag([0.2, 0.2, 0.6]).astype(complex)
    fam = state_family([density_matrix(other), GOOD, other], weights=[1.0, 2.0, 1.0])
    mats = fam.mats()
    assert mats.shape == (3, 3, 3) and mats is fam.mats()
    assert fam.dim == 3 and len(fam) == 3
    assert not mats.flags.writeable
    for got, m in zip(mats, [other, GOOD, other], strict=True):
        assert np.array_equal(got, density_matrix(m).mat)
    with pytest.raises(ValueError):
        mats[0, 0, 0] = 1.0


@pytest.mark.parametrize("k", [1, 3])
def test_state_family_names_the_member_of_wrong_dimension(k):
    members = [density_matrix(GOOD), GOOD, GOOD, GOOD]
    members[k] = np.eye(2) / 2.0
    with pytest.raises(DimensionMismatch, match=f"state {k} has dim 2, expected 3") as err:
        state_family(members)
    assert err.value.member == k


def test_hermitian_eig_orders_ascending():
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = seeded_random_hermitian(5, int(rng.integers(1 << 30)))
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.allclose((v * w) @ v.conj().T, h, atol=1e-10)


def test_support_basis_and_projector():
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    vs = support_basis(rho)
    assert vs.shape == (4, 2)
    assert np.allclose(vs.conj().T @ vs, np.eye(2), atol=1e-12)
    p = support_projector(rho)
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)
    # support is basis-independent
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rot = q @ rho @ q.conj().T
    p2 = support_projector(rot)
    assert np.allclose(p2, q @ p @ q.conj().T, atol=1e-10)


def test_partial_trace_against_einsum():
    rng = np.random.default_rng(3)
    for da, db in [(2, 3), (3, 2), (2, 2), (4, 2)]:
        m = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal(
            (da * db, da * db)
        )
        t = m.reshape(da, db, da, db)
        left = partial_trace(m, da, db, keep="left")
        right = partial_trace(m, da, db, keep="right")
        assert np.allclose(left, np.einsum("ajbj->ab", t), atol=1e-13)
        assert np.allclose(right, np.einsum("iaib->ab", t), atol=1e-13)
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(6), 4, 2)


def test_partial_trace_of_product_states():
    rng = np.random.default_rng(4)
    a = np.diag([0.25, 0.75]).astype(complex)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = b @ b.conj().T
    b = b / np.trace(b).real
    kron = np.kron(a, b)
    assert np.allclose(partial_trace(kron, 2, 3, keep="left"), a, atol=1e-12)
    assert np.allclose(partial_trace(kron, 2, 3, keep="right"), b, atol=1e-12)


def test_partial_trace_of_a_stack_is_per_member():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((2, 3, 6, 6)) + 1j * rng.standard_normal((2, 3, 6, 6))
    for keep, shape in (("left", (2, 3, 2, 2)), ("right", (2, 3, 3, 3))):
        out = partial_trace(stack, 2, 3, keep=keep)
        assert out.shape == shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], partial_trace(stack[idx], 2, 3, keep=keep))
    with pytest.raises(DimensionMismatch):
        partial_trace(stack, 3, 3)
    with pytest.raises(DimensionMismatch):
        partial_trace(np.ones(6), 2, 3)


def test_trace_norm_is_singular_value_sum():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert abs(trace_norm(m) - np.linalg.svd(m, compute_uv=False).sum()) < 1e-10


def test_entropy_of_spectrum_values():
    assert entropy_of_spectrum([1.0]) == 0.0
    # deterministic spectra must print as plain zero, not -0.0
    assert str(entropy_of_spectrum([1.0, 0.0])) == "0.0"
    assert entropy_of_spectrum([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert entropy_of_spectrum([0.25] * 4) == pytest.approx(2.0, abs=1e-12)
    assert entropy_of_spectrum([0.75, 0.25]) == pytest.approx(
        0.8112781244591328, abs=1e-12
    )


def test_von_neumann_entropy_basis_invariant():
    rng = np.random.default_rng(6)
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    want = entropy_of_spectrum([0.1, 0.2, 0.3, 0.4])
    assert von_neumann_entropy(rho) == pytest.approx(want, abs=1e-10)
    assert von_neumann_entropy(q @ rho @ q.conj().T) == pytest.approx(want, abs=1e-10)


def test_von_neumann_entropy_additive_on_products():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.dirichlet([1.0] * 3)
        b = rng.dirichlet([1.0] * 2)
        got = von_neumann_entropy(np.kron(np.diag(a), np.diag(b)))
        want = entropy_of_spectrum(a) + entropy_of_spectrum(b)
        assert got == pytest.approx(want, abs=1e-9)


def test_seeded_random_hermitian_reproducible():
    h1 = seeded_random_hermitian(4, 123)
    h2 = seeded_random_hermitian(4, 123)
    h3 = seeded_random_hermitian(4, 124)
    assert np.array_equal(h1, h2)
    assert not np.allclose(h1, h3)
    assert np.allclose(h1, h1.conj().T)


def _pairing_with_complement():
    # coherence between e0 and e2 only, so k1 = e0 leaves e1 as its complement
    psi = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    eye = np.eye(3, dtype=complex)
    return coherence_pairing(np.outer(psi, psi), eye[:, :2], eye[:, 2:])


@pytest.mark.parametrize(
    "site, routine, call",
    [
        ("polar_offblock", "svd", lambda: polar_offblock(np.array([[0.0, 1.0], [0.0, 0.0]]))),
        ("_complement_within", "svd", _pairing_with_complement),
        (
            "structures_equivalent",
            "svd",
            lambda: structures_equivalent(*[Structure(2, ((2, 1),), np.eye(2, dtype=complex))] * 2),
        ),
        (
            "confines_positive_part",
            "eigh",
            lambda: confines_positive_part(identity_channel(2), np.diag([1.0, -1.0])),
        ),
        (
            "_eigh",
            "eigh",
            lambda: confines_paired_subspace(
                identity_channel(2), np.diag([0.5, 0.5]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
            ),
        ),
        ("canonical_kraus", "svd", lambda: canonical_kraus(identity_channel(2))),
    ],
    ids=[
        "polar_offblock",
        "coherence_pairing",
        "structures_equivalent",
        "confines_positive_part",
        "confines_paired_subspace",
        "canonical_kraus",
    ],
)
def test_lapack_failure_outside_the_pipeline_is_no_convergence(site, routine, call, monkeypatch):
    call()  # reaches the site when LAPACK works
    message = fail_lapack_at(monkeypatch, site, routine)
    with pytest.raises(NoConvergence, match=message):
        call()

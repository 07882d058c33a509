"""Shared generators for the test suite.

Everything here is seeded through numpy Generators passed in by the caller,
so individual tests stay reproducible in isolation.
"""

import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

import kidecomp
from kidecomp import (
    block_channel,
    kraus_channel,
    state_family,
)
from kidecomp.applications import BlockEntropy, BroadcastOutput, EntropyReport
from kidecomp.algebra import (
    _RETRY_BUDGET,
    _cluster_ascending,
    _commutant_basis,
    _project_onto_span,
    intertwiner_space,
)
from kidecomp.exceptions import DegenerateSample, DimensionMismatch
from kidecomp.linalg import (
    DEFAULT_TOL,
    density_matrix,
    entropy_of_spectrum,
    hermitian_part,
    partial_trace,
    seeded_random_hermitian,
    von_neumann_entropy,
)
from kidecomp.structure import DecomposedFamily, Structure, _build_decomposition


def cli_env():
    """Environment for a CLI subprocess that runs the `kidecomp` under test.

    The root of the package this process imported goes first on PYTHONPATH,
    ahead of the inherited entries, so a child never picks up a stale
    install or another checkout instead.
    """
    env = dict(os.environ)
    entries = [str(Path(kidecomp.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def haar_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d, rank=None):
    rank = d if rank is None else rank
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def build_family(rng, blocks, n_states, scramble=True, red_rank=None, pad_to=None, equal_weights=False):
    """Plant a known block/tensor structure and scramble it.

    Returns a dict with the ambient states, the planted data (unitary, per
    block redundant states, weight matrix) and bookkeeping dims. `pad_to`
    embeds the construction into a larger space so the family average has a
    proper support subspace. `equal_weights` gives every member the same
    block probabilities.
    """
    dim = sum(a * b for a, b in blocks)
    total = dim if pad_to is None else pad_to
    assert total >= dim
    u = haar_unitary(rng, total)
    red = [random_density(rng, b, rank=red_rank) for _, b in blocks]
    if equal_weights:
        weights = np.tile(rng.dirichlet([2.0] * len(blocks)), (n_states, 1))
    else:
        weights = rng.dirichlet([2.0] * len(blocks), size=n_states)
    if not scramble:
        u = np.eye(total, dtype=complex)
    states = []
    for s in range(n_states):
        m = np.zeros((total, total), dtype=complex)
        off = 0
        for l, (a, b) in enumerate(blocks):
            m[off : off + a * b, off : off + a * b] = weights[s, l] * np.kron(
                random_density(rng, a), red[l]
            )
            off += a * b
        states.append(u @ m @ u.conj().T)
    return {
        "states": states,
        "unitary": u,
        "red": red,
        "weights": weights,
        "blocks": [tuple(b) for b in blocks],
        "dim": total,
        "planted_dim": dim,
    }


def random_blocks(rng, max_total=12, max_factor=3):
    """Random multiset of (d_info, d_red) with the total dimension capped."""
    blocks = []
    total = 0
    while True:
        a = int(rng.integers(1, max_factor + 1))
        b = int(rng.integers(1, max_factor + 1))
        if total + a * b > max_total:
            if blocks:
                return blocks
            continue
        blocks.append((a, b))
        total += a * b
        if total == max_total or rng.random() < 0.35:
            return blocks


def random_cptp(rng, d_in, d_out=None, n_kraus=None):
    d_out = d_in if d_out is None else d_out
    n_kraus = d_in if n_kraus is None else n_kraus
    # the stacked Kraus block must be a tall isometry
    n_kraus = max(n_kraus, -(-d_in // d_out))
    z = rng.standard_normal((d_out * n_kraus, d_in)) + 1j * rng.standard_normal(
        (d_out * n_kraus, d_in)
    )
    q, _ = np.linalg.qr(z)
    ops = [q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]
    return kraus_channel(ops)


def red_fixing_channel(rng, red, strength=0.5):
    """Channel on the redundant factor that fixes `red` with full Kraus span."""
    b = red.shape[0]
    lam, vecs = np.linalg.eigh(red)
    f = haar_unitary(rng, b)
    ops = [np.sqrt(1.0 - strength) * np.eye(b, dtype=complex)]
    for j in range(b):
        for i in range(b):
            ops.append(
                np.sqrt(strength * max(lam[j], 0.0))
                * np.outer(vecs[:, j], f[:, i].conj())
            )
    return kraus_channel([op for op in ops if np.linalg.norm(op) > 1e-14])


def preserving_block_channel(rng, decomp, strength=None):
    """Random family-preserving channel assembled blockwise."""
    per = []
    for l, (_, dr) in enumerate(decomp.structure.blocks):
        s = rng.uniform(0.2, 0.8) if strength is None else strength
        per.append(red_fixing_channel(rng, decomp.red_states[l].mat, s))
    return block_channel(
        decomp.structure,
        per,
        red_states=[r.mat for r in decomp.red_states],
    )


def rotated_info_channel(rng, decomp, angle):
    """Unitary channel rotating one info factor by `angle`; breaks block form."""
    return rotation_channel(decomp.structure, decomp.support, angle)


def rotation_channel(structure, support, angle):
    """Unitary rotating the first info factor with d_info >= 2 by `angle`,
    lifted through `support` (None: the structure's own space) with the
    identity off the support."""
    target = None
    for l, (di, _) in enumerate(structure.blocks):
        if di >= 2:
            target = l
            break
    assert target is not None, "needs a block with d_info >= 2"
    di, dr = structure.blocks[target]
    g = np.eye(di, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    g[0, 0], g[0, 1], g[1, 0], g[1, 1] = c, -s, s, c
    inner = np.eye(structure.dim, dtype=complex)
    off = structure.block_offset(target)
    sz = di * dr
    inner[off : off + sz, off : off + sz] = np.kron(g, np.eye(dr))
    tr = structure.transform
    emb = np.eye(structure.dim) if support is None else support
    d0 = emb.shape[0]
    rot = emb @ tr.conj().T @ inner @ tr @ emb.conj().T
    rot = rot + (np.eye(d0) - emb @ emb.conj().T)
    return kraus_channel([rot])


def planted_frame(rng, built):
    """(structure, support) of the planted blocks of `built`, read off the
    construction instead of computed. Support is None at full support;
    otherwise the structure carries a random gauge on the planted subspace."""
    u, n = built["unitary"], built["planted_dim"]
    blocks = tuple(built["blocks"])
    if n == built["dim"]:
        return Structure(n, blocks, u.conj().T), None
    w = haar_unitary(rng, n)
    return Structure(n, blocks, w), u[:, :n] @ w


def lifted_preserving_channel(rng, structure, reds, support=None):
    """Identity on every info factor and a `reds[l]`-fixing channel on each
    redundant factor, lifted through `support` with the identity off it."""
    per = [red_fixing_channel(rng, r, rng.uniform(0.2, 0.8)) for r in reds]
    ch = block_channel(structure, per)
    if support is None:
        return ch
    ops = [support @ k @ support.conj().T for k in ch.kraus_ops]
    ops[0] = ops[0] + np.eye(support.shape[0]) - support @ support.conj().T
    return kraus_channel(ops)


def leaking_channel(rng, channel, support, angle):
    """`channel` followed by a rotation by `angle` between the first support
    direction and a random direction orthogonal to the support."""
    a = support[:, 0]
    o = random_pure(rng, support.shape[0])
    o = o - support @ (support.conj().T @ o)
    o = o / np.linalg.norm(o)
    c, s = np.cos(angle), np.sin(angle)
    rot = (
        np.eye(support.shape[0], dtype=complex)
        + (c - 1.0) * (np.outer(a, a.conj()) + np.outer(o, o.conj()))
        + s * (np.outer(o, a.conj()) - np.outer(a, o.conj()))
    )
    return kraus_channel([rot @ k for k in channel.kraus_ops])


def remixed_channel(rng, channel, extra=3):
    """Same channel in another Kraus gauge: K'_a = sum_i V[a, i] K_i, with V a
    random (n + extra) x n isometry."""
    n = len(channel.kraus_ops)
    v = haar_unitary(rng, n + extra)[:, :n]
    return kraus_channel(list(np.tensordot(v, np.stack(channel.kraus_ops), axes=1)))


def dense_block_form(channel, structure, tol_commute=1e-8, support=None):
    """Reference for `has_block_form`: (max_violation, violations) from dense
    lifted matrix units and the stacked norms over the given Kraus operators."""
    ops = np.stack(channel.kraus_ops)
    emb = np.eye(structure.dim) if support is None else np.asarray(support, dtype=complex)
    proj = emb @ emb.conj().T
    leak = float(np.linalg.norm((np.eye(ops.shape[1]) - proj) @ ops @ proj))
    worst, violations = 0.0, []
    for l, (di, _) in enumerate(structure.blocks):
        for row in range(di):
            for col in range(di):
                unit = emb @ structure.matrix_unit(l, row, col) @ emb.conj().T
                defect = max(float(np.linalg.norm(ops @ unit - unit @ ops)), leak)
                worst = max(worst, defect)
                if defect > tol_commute:
                    violations.append((l, row, col))
    return worst, tuple(violations)


def preservation_constraints(states, d):
    """Linear system (A, b): trace preservation plus T(rho_s) = rho_s rows,
    acting on the channel's Choi matrix flattened row-major."""
    cols = d * d * d * d
    a_tp = np.zeros((d * d, cols), dtype=complex)
    for j in range(d):
        for l in range(d):
            row = np.zeros((d, d, d, d), dtype=complex)
            for i in range(d):
                row[i, j, i, l] = 1.0
            a_tp[j * d + l] = row.reshape(-1)
    parts = [a_tp]
    rhs = [np.eye(d, dtype=complex).reshape(-1)]
    for rho in states:
        a_fx = np.zeros((d * d, cols), dtype=complex)
        for i in range(d):
            for k in range(d):
                row = np.zeros((d, d, d, d), dtype=complex)
                row[i, :, k, :] = rho
                a_fx[i * d + k] = row.reshape(-1)
        parts.append(a_fx)
        rhs.append(rho.reshape(-1))
    return np.vstack(parts), np.concatenate(rhs)


def commuting_face(blocks, u, d):
    """Orthonormal columns spanning vec of u (sum_l I x B_l) u^dag."""
    cols = []
    off = 0
    for a, b in blocks:
        for p in range(b):
            for q in range(b):
                unit = np.zeros((b, b), dtype=complex)
                unit[p, q] = 1.0
                k = np.zeros((d, d), dtype=complex)
                k[off : off + a * b, off : off + a * b] = np.kron(
                    np.eye(a, dtype=complex), unit
                )
                k = u @ k @ u.conj().T
                cols.append(k.reshape(-1) / np.sqrt(a))
        off += a * b
    return np.array(cols).T


def choi_of(channel):
    """Choi matrix sum_i vec(K_i) vec(K_i)^dag (row-major vec)."""
    vecs = np.stack([k.reshape(-1) for k in channel.kraus_ops])
    return vecs.T @ vecs.conj()


def kraus_from_choi(choi, input_dim, output_dim, tol=DEFAULT_TOL):
    """Kraus channel from a Choi matrix: its eigenvectors, scaled.

    Eigenvalues at or below tol_zero times max(1, largest) are dropped.
    """
    j = hermitian_part(choi)
    if j.shape != (input_dim * output_dim,) * 2:
        raise DimensionMismatch("Choi matrix shape does not match the given dimensions")
    w, v = np.linalg.eigh(j)
    lmax = max(float(w[-1]), 0.0)
    keep = w > tol.tol_zero * max(1.0, lmax)
    ops = np.sqrt(w[keep]) * v[:, keep]
    return kraus_channel(list(ops.T.reshape(-1, output_dim, input_dim)), tol)


def fail_lapack_at(monkeypatch, site, routine):
    """Make np.linalg.<routine> raise LinAlgError when called from the
    function named `site` (directly or from a comprehension inside it);
    returns the error message."""
    real = getattr(np.linalg, routine)
    message = f"{routine} failed in {site}"

    def fail_at_site(*args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name.startswith("<"):
            caller = caller.f_back
        if caller.f_code.co_name == site:
            raise np.linalg.LinAlgError(message)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, routine, fail_at_site)
    return message


def projected_preserving_channel(rng, built):
    """Family-preserving channel from constraint projection.

    Starts from a strictly interior feasible Choi matrix (a mixture, over
    blocks, of channels acting as the identity off one block while replacing
    that block's redundant factor), least-squares-projects a random Hermitian
    perturbation onto the affine preservation constraints restricted to the
    cone face selected by the planted structure, then steps as far as the
    cone allows. The family's computed decomposition never enters.
    """
    d = built["dim"]
    assert built["planted_dim"] == d, "needs a full-support family"
    a_mat, b_vec = preservation_constraints(built["states"], d)
    v = commuting_face(built["blocks"], built["unitary"], d)
    r = v.shape[1]
    lift = np.einsum("ar,bs->abrs", v, v.conj()).reshape(d * d * d * d, r * r)
    a2 = a_mat @ lift
    a2p = np.linalg.pinv(a2, rcond=1e-10)
    # base point: mix, over blocks, the channel acting as identity everywhere
    # except a full-span replace-with-red mixture on one block; its face
    # coefficient matrix is strictly positive, i.e. relative interior
    u = built["unitary"]
    blocks = built["blocks"]
    m0 = np.zeros((r, r), dtype=complex)
    for target in range(len(blocks)):
        per = []
        for l, (_, b) in enumerate(blocks):
            if l == target:
                lam, vecs = np.linalg.eigh(built["red"][l])
                f = haar_unitary(rng, b)
                ops = [np.sqrt(0.5) * np.eye(b, dtype=complex)]
                for j in range(b):
                    for i in range(b):
                        ops.append(
                            np.sqrt(0.5 * max(lam[j], 0.0))
                            * np.outer(vecs[:, j], f[:, i].conj())
                        )
                per.append(ops)
            else:
                per.append([np.eye(b, dtype=complex)])
        n_ops = max(len(p) for p in per)
        choi_t = np.zeros((d * d, d * d), dtype=complex)
        for i in range(n_ops):
            inner = np.zeros((d, d), dtype=complex)
            off = 0
            for l, (a, b) in enumerate(blocks):
                if i < len(per[l]):
                    inner[off : off + a * b, off : off + a * b] = np.kron(
                        np.eye(a), per[l][i]
                    )
                off += a * b
            k = (u @ inner @ u.conj().T).reshape(-1)
            choi_t += np.outer(k, k.conj())
        m0 += v.conj().T @ choi_t @ v / len(blocks)
    m0 = 0.5 * (m0 + m0.conj().T)
    base_aff = float(np.linalg.norm(a2 @ m0.reshape(-1) - b_vec))
    base_min = float(np.linalg.eigvalsh(m0).min())
    assert base_aff < 1e-10, f"base point misses the constraints by {base_aff:.3e}"
    assert base_min > 1e-8, f"base point not interior: min eig {base_min:.3e}"
    g0 = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    g0 = 0.5 * (g0 + g0.conj().T)
    g = g0.reshape(-1) - a2p @ (a2 @ g0.reshape(-1))
    g = g.reshape(r, r)
    g = 0.5 * (g + g.conj().T)
    gnorm = float(np.linalg.norm(g))
    if gnorm > 1e-12:
        lam0, u0 = np.linalg.eigh(m0)
        isqrt = (u0 * (1.0 / np.sqrt(np.clip(lam0, 1e-14, None)))) @ u0.conj().T
        smin = float(np.linalg.eigvalsh(isqrt @ g @ isqrt).min())
        t_max = np.inf if smin >= -1e-15 else 1.0 / (-smin)
        t = min(t_max * rng.uniform(0.3, 0.9), 10.0 / gnorm)
        m0 = m0 + t * g
        w, vv = np.linalg.eigh(m0)
        m0 = (vv * np.clip(w, 0, None)) @ vv.conj().T
    choi = (v @ m0 @ v.conj().T).reshape(d * d, d * d)
    return kraus_from_choi(choi, d, d)


def trivial_decomp_of(states):
    """Hand-coarsened alternative: a single block holding each state whole."""
    fam = state_family(states)
    d = states[0].shape[0]
    st = Structure(d, ((d, 1),), np.eye(d, dtype=complex))
    return DecomposedFamily(
        family=fam,
        structure=st,
        support=np.eye(d, dtype=complex),
        weights=np.ones((len(states), 1)),
        info_states=tuple((density_matrix(s),) for s in states),
        red_states=(density_matrix(np.eye(1, dtype=complex)),),
        red_spectra=((1.0,),),
    )


def split_decomp_identical_pair(p=0.75):
    """Hand-split alternative for {rho, rho}: pretends the eigenbasis carries
    classical information."""
    rho = np.diag([p, 1.0 - p]).astype(complex)
    fam = state_family([rho, rho])
    st = Structure(2, ((1, 1), (1, 1)), np.eye(2, dtype=complex))
    one = density_matrix(np.eye(1, dtype=complex))
    return DecomposedFamily(
        family=fam,
        structure=st,
        support=np.eye(2, dtype=complex),
        weights=np.array([[p, 1.0 - p], [p, 1.0 - p]]),
        info_states=((one, one), (one, one)),
        red_states=(one, one),
        red_spectra=((1.0,), (1.0,)),
    )


def family_payload(mats, labels=None, weights=None, dim=None, factor_dims=None, tolerances=None):
    dim = mats[0].shape[0] if dim is None else dim
    states = []
    for i, m in enumerate(mats):
        entry = {
            "label": labels[i] if labels else f"state{i}",
            "matrix": [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)],
        }
        if weights is not None:
            entry["weight"] = float(weights[i])
        states.append(entry)
    payload = {"version": "1", "dim": int(dim), "states": states}
    if factor_dims is not None:
        payload["factor_dims"] = [int(x) for x in factor_dims]
    if tolerances is not None:
        payload["tolerances"] = tolerances
    return payload


def write_family_file(path, mats, **kw):
    payload = family_payload(mats, **kw)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def write_kraus_file(path, ops, input_dim=None, output_dim=None):
    ops = [np.asarray(k, dtype=complex) for k in ops]
    input_dim = ops[0].shape[1] if input_dim is None else input_dim
    payload = {
        "version": "1",
        "input_dim": int(input_dim),
        "kraus": [[[[float(x.real), float(x.imag)] for x in row] for row in k] for k in ops],
    }
    if output_dim is not None:
        payload["output_dim"] = int(output_dim)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def weights_match(got, want, atol=1e-6):
    """Column-permutation-tolerant comparison of weight matrices."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    for perm in itertools.permutations(range(want.shape[1])):
        if np.allclose(got[:, list(perm)], want, atol=atol):
            return True
    return False


def loop_max_residual(decomp):
    """Reference for `DecomposedFamily.max_residual`: one `reassemble` per
    member."""
    worst = 0.0
    for s, state in enumerate(decomp.family.states):
        worst = max(worst, float(np.linalg.norm(state.mat - decomp.reassemble(s))))
    return worst


def zero_weight_block_states(rng):
    """Two states on C^4 = C^2 (+) C^2; the first has no weight on the
    second block, so its information state there is None."""
    r1, r2 = random_density(rng, 2), random_density(rng, 2)
    z = np.zeros((2, 2))
    return [np.block([[r1, z], [z, z]]), np.block([[0.5 * r1, z], [z, 0.5 * r2]])]


def loop_block_matrix(decomp, s):
    """Reference for `DecomposedFamily.block_matrix`: member s assembled
    block by block."""
    st = decomp.structure
    out = np.zeros((st.dim, st.dim), dtype=complex)
    for l, (di, dr) in enumerate(st.blocks):
        w = float(decomp.weights[s, l])
        info = decomp.info_states[s][l]
        if w <= 0.0 or info is None:
            continue
        off = st.block_offset(l)
        out[off : off + di * dr, off : off + di * dr] = w * np.kron(info.mat, decomp.red_states[l].mat)
    return out


def loop_tensor_structure(a, b, tol=DEFAULT_TOL):
    """Reference for `tensor_structure`: one Kronecker product and one
    `density_matrix` per pair of states, and each block pair's column order
    from an index loop."""
    na, nb = len(a.family), len(b.family)
    pw = np.outer(a.family.effective_weights(), b.family.effective_weights()).reshape(-1)
    states = [np.kron(x.mat, y.mat) for x in a.family.states for y in b.family.states]
    weighted = a.family.weights is not None or b.family.weights is not None
    fam = state_family(states, weights=pw if weighted else None, tol=tol)
    entries = []
    for l1, (d1, r1) in enumerate(a.structure.blocks):
        for l2, (d2, r2) in enumerate(b.structure.blocks):
            local = np.empty(d1 * d2 * r1 * r2, dtype=int)
            for j1, j2, q1, q2 in itertools.product(range(d1), range(d2), range(r1), range(r2)):
                dst = (j1 * d2 + j2) * (r1 * r2) + (q1 * r2 + q2)
                local[dst] = (j1 * r1 + q1) * (d2 * r2) + (j2 * r2 + q2)
            w_col, infos = np.zeros(na * nb), []
            for s, t in itertools.product(range(na), range(nb)):
                w = float(a.weights[s, l1] * b.weights[t, l2])
                ia, ib = a.info_states[s][l1], b.info_states[t][l2]
                if w > tol.tol_zero and ia is not None and ib is not None:
                    w_col[s * nb + t] = w
                    infos.append(density_matrix(np.kron(ia.mat, ib.mat), tol))
            entries.append(
                {
                    "d_info": d1 * d2,
                    "d_red": r1 * r2,
                    "iso": np.kron(a.structure.block_basis(l1), b.structure.block_basis(l2))[:, local],
                    "weights": w_col,
                    "live": w_col > 0.0,
                    "info": infos,
                    "red": density_matrix(np.kron(a.red_states[l1].mat, b.red_states[l2].mat), tol),
                    "spectrum": np.kron(a.red_spectra[l1], b.red_spectra[l2]),
                }
            )
    return _build_decomposition(fam, np.kron(a.support, b.support), entries)


def loop_entropy_report(decomp, weights=None, tol=DEFAULT_TOL):
    """Reference for `entropy_report`: each block's weighted information
    average summed one state at a time."""
    pw = decomp.family.effective_weights() if weights is None else np.asarray(weights, dtype=float)
    p_blocks = pw @ decomp.weights
    per_block = []
    for l, (di, _) in enumerate(decomp.structure.blocks):
        p_l = float(p_blocks[l])
        acc = np.zeros((di, di), dtype=complex)
        for s in range(len(decomp.family)):
            info = decomp.info_states[s][l]
            if info is not None:
                acc += pw[s] * float(decomp.weights[s, l]) * info.mat
        info_bits = von_neumann_entropy(acc / p_l, tol) if p_l > tol.tol_zero else 0.0
        per_block.append(BlockEntropy(p_l, info_bits, entropy_of_spectrum(decomp.red_spectra[l])))
    return EntropyReport(
        entropy_of_spectrum(p_blocks),
        sum(b.weight * b.info_bits for b in per_block),
        sum(b.weight * b.red_bits for b in per_block),
        tuple(per_block),
    )


def loop_broadcast_states(decomp, mode, tol=DEFAULT_TOL):
    """Reference for `broadcast_states`: every (state, block) pair builds
    its lifted two-party state and adds it to the state's output."""
    d0 = decomp.family.dim
    chis, worst = [], 0.0
    for s, state in enumerate(decomp.family.states):
        chi = np.zeros((d0 * d0, d0 * d0), dtype=complex)
        for l, (_, dr) in enumerate(decomp.structure.blocks):
            w = float(decomp.weights[s, l])
            if w <= 0.0:
                continue
            red, q = decomp.red_states[l].mat, decomp.red_spectra[l]
            if mode == "product":
                zeta = np.kron(red, red)
            elif mode == "classical":
                zeta = np.zeros((dr * dr, dr * dr), dtype=complex)
                for k in range(dr):
                    zeta[k * dr + k, k * dr + k] = q[k]
            else:
                vec = np.zeros(dr * dr, dtype=complex)
                for k in range(dr):
                    vec[k * dr + k] = np.sqrt(q[k])
                zeta = np.outer(vec, vec.conj())
            embed = decomp.support @ decomp.structure.block_basis(l)
            lift = np.kron(embed, embed)
            chi += w * (lift @ zeta @ lift.conj().T)
        for keep in ("left", "right"):
            worst = max(worst, float(np.linalg.norm(partial_trace(chi, d0, d0, keep=keep) - state.mat)))
        chis.append(density_matrix(hermitian_part(chi), tol))
    return BroadcastOutput(mode, tuple(chis), worst)


def loop_commutator_defect(mats):
    """Reference for `is_broadcastable(...).commutator_defect`: the largest
    commutator norm, one pair at a time."""
    defect = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            defect = max(defect, float(np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])))
    return defect


def loop_weight_gaps(w):
    """Reference for `no_imprinting_holds`: (offending, max_weight_gap) from
    the loop over every (s, s', block)."""
    offending, worst = None, 0.0
    for s in range(w.shape[0]):
        for t in range(s + 1, w.shape[0]):
            for l in range(w.shape[1]):
                gap = abs(float(w[s, l] - w[t, l]))
                worst = max(worst, gap)
                if gap > 1e-8 and offending is None:
                    offending = (s, t, l)
    return offending, worst


def planted_generators(rng, blocks, n_gens):
    """Hermitian generators u ((+)_l A_l (x) I_m(l)) u^dag for blocks
    [(simple_dim, multiplicity), ...]: class l has simple dimension
    simple_dim and multiplicity m(l), and a simple dimension of 1 gives a
    scalar multiple of I_m(l)."""
    d = sum(k * m for k, m in blocks)
    u = haar_unitary(rng, d)
    gens = []
    for _ in range(n_gens):
        m = np.zeros((d, d), dtype=complex)
        off = 0
        for k, mult in blocks:
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            m[off : off + k * mult, off : off + k * mult] = np.kron(a + a.conj().T, np.eye(mult))
            off += k * mult
        gens.append(u @ m @ u.conj().T)
    return gens


def recursive_isotypic_split(generators, seed=0, tol=DEFAULT_TOL):
    """Reference for `isotypic_decompose`: the recursive split it replaced.

    Splits each piece along the eigenvalue clusters of a random Hermitian
    element of the piece's own commutant until every piece has a trivial
    commutant, then puts a piece into the first class whose first piece it
    has a nonzero intertwiner with. Returns the classes as lists of
    d x simple_dim isometries; copies are not aligned.
    """
    mats = np.asarray(generators, dtype=complex)
    mats = mats / np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))[:, None, None]
    seeds = itertools.count(seed)
    simples = []

    def split(iso):
        comm = _commutant_basis(iso.conj().T @ mats @ iso, tol)
        if len(comm) <= 1:
            simples.append(iso)
            return
        for _ in range(_RETRY_BUDGET):
            x = _project_onto_span(seeded_random_hermitian(iso.shape[1], next(seeds)), comm)
            w, u = np.linalg.eigh(0.5 * (x + x.conj().T))
            clusters = _cluster_ascending(w, tol)
            if len(clusters) > 1:
                for cl in clusters:
                    split(iso @ u[:, cl])
                return
        raise DegenerateSample("reference split stayed degenerate")

    split(np.eye(mats.shape[1], dtype=complex))
    classes = []
    for v in simples:
        for cls in classes:
            if cls[0].shape[1] == v.shape[1] and intertwiner_space(mats, cls[0], v, tol):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes

"""Seeded input generators for the benchmark.

Everything here is plain numpy and depends only on the numpy Generator it is
given, so the same seed always yields the same inputs. The benchmark builds
its own inputs instead of importing the test helpers, so that a change to
the test suite cannot change what is measured.

A planted family fixes a block/tensor structure first and builds the states
from it, so every output of the program can be checked against the planted
data rather than against a stored copy of an earlier output.
"""

from dataclasses import dataclass

import numpy as np


def haar_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_isometry(rng, rows, cols):
    """rows x cols matrix with orthonormal columns (rows >= cols)."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(z)
    return q


@dataclass(frozen=True)
class Planted:
    """A family built from a known structure.

    states[s] = U (+)_l weights[s, l] info[s][l] (x) red[l] U^dag, with the
    planted blocks occupying the first `planted_dim` columns of U and the
    rest of the `dim`-dimensional space left empty. `prior` holds the
    family's own state weights, or None for a uniform family.
    """

    states: tuple
    unitary: np.ndarray
    blocks: tuple
    weights: np.ndarray
    info: tuple
    red: tuple
    prior: np.ndarray | None
    dim: int
    planted_dim: int

    def effective_prior(self):
        n = len(self.states)
        return np.full(n, 1.0 / n) if self.prior is None else self.prior

    def support(self):
        return self.unitary[:, : self.planted_dim]


def planted_family(rng, blocks, n_states, pad_to=None, equal_weights=False, prior=False):
    """Plant `blocks` ((d_info, d_red), ...) into `n_states` random states.

    `pad_to` embeds the construction into a larger space, so the family
    average has a proper support. `equal_weights` gives every state the same
    block probabilities. `prior` attaches random state weights.
    """
    blocks = tuple((int(a), int(b)) for a, b in blocks)
    planted_dim = sum(a * b for a, b in blocks)
    dim = planted_dim if pad_to is None else int(pad_to)
    if dim < planted_dim:
        raise ValueError(f"pad_to={dim} is below the planted dimension {planted_dim}")
    u = haar_unitary(rng, dim)
    red = tuple(random_density(rng, b) for _, b in blocks)
    if equal_weights:
        weights = np.tile(rng.dirichlet([2.0] * len(blocks)), (n_states, 1))
    else:
        weights = rng.dirichlet([2.0] * len(blocks), size=n_states)
    info = []
    states = []
    for s in range(n_states):
        m = np.zeros((dim, dim), dtype=complex)
        row = []
        off = 0
        for l, (a, b) in enumerate(blocks):
            sigma = random_density(rng, a)
            row.append(sigma)
            m[off : off + a * b, off : off + a * b] = weights[s, l] * np.kron(sigma, red[l])
            off += a * b
        info.append(tuple(row))
        rho = u @ m @ u.conj().T
        states.append(0.5 * (rho + rho.conj().T))
    pw = None
    if prior:
        pw = rng.dirichlet([3.0] * n_states)
    return Planted(
        states=tuple(states),
        unitary=u,
        blocks=blocks,
        weights=weights,
        info=tuple(info),
        red=red,
        prior=pw,
        dim=dim,
        planted_dim=planted_dim,
    )


def pure_bipartite(rng, d_first, d_second, n_states, orthogonal):
    """Rank-one states on C^d_first (x) C^d_second; orthogonal or generic."""
    d = d_first * d_second
    if orthogonal:
        vecs = random_isometry(rng, d, n_states).T
    else:
        vecs = rng.standard_normal((n_states, d)) + 1j * rng.standard_normal((n_states, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return tuple(np.outer(v, v.conj()) for v in vecs)


# --- channels on a planted frame ---------------------------------------------


def red_fixing_ops(rng, red, strength):
    """Kraus operators of a channel on C^d_red that fixes the state `red`.

    Mixes the identity with the replace-by-`red` channel; the replacement
    part has full Kraus span.
    """
    b = red.shape[0]
    lam, vecs = np.linalg.eigh(red)
    f = haar_unitary(rng, b)
    ops = [np.sqrt(1.0 - strength) * np.eye(b, dtype=complex)]
    for j in range(b):
        for i in range(b):
            ops.append(np.sqrt(strength * max(lam[j], 0.0)) * np.outer(vecs[:, j], f[:, i].conj()))
    return [op for op in ops if np.linalg.norm(op) > 1e-14]


def _frame_ops(planted, per_block, outer_ops):
    """Assemble global Kraus operators U (+)_l (I (x) per_block[l][i]) (+) outer[i] U^dag."""
    u = planted.unitary
    n_ops = max([len(p) for p in per_block] + [len(outer_ops)])
    out = []
    for i in range(n_ops):
        inner = np.zeros((planted.dim, planted.dim), dtype=complex)
        off = 0
        for l, (a, b) in enumerate(planted.blocks):
            if i < len(per_block[l]):
                inner[off : off + a * b, off : off + a * b] = np.kron(np.eye(a), per_block[l][i])
            off += a * b
        if i < len(outer_ops):
            inner[off:, off:] = outer_ops[i]
        out.append(u @ inner @ u.conj().T)
    return out


def _outer_identity(planted):
    pad = planted.dim - planted.planted_dim
    return [np.eye(pad, dtype=complex)] if pad else []


def preserving_ops(rng, planted):
    """Identity on every information factor, a red-fixing channel on each block."""
    per = [red_fixing_ops(rng, r, rng.uniform(0.2, 0.8)) for r in planted.red]
    return _frame_ops(planted, per, _outer_identity(planted))


def remix_ops(rng, ops, extra):
    """Same channel, other Kraus gauge: K'_a = sum_i V[a, i] K_i with V an isometry."""
    v = random_isometry(rng, len(ops) + extra, len(ops))
    stacked = np.stack(ops)
    return [np.tensordot(v[a], stacked, axes=1) for a in range(v.shape[0])]


def first_info_block(planted):
    """(offset, d_info, d_red) of the first planted block with d_info >= 2."""
    target = next(l for l, (a, _) in enumerate(planted.blocks) if a >= 2)
    a, b = planted.blocks[target]
    return sum(x * y for x, y in planted.blocks[:target]), a, b


def rotation_ops(planted, angle):
    """Unitary rotating the first information factor with d_info >= 2 by `angle`."""
    off, a, b = first_info_block(planted)
    g = np.eye(a, dtype=complex)
    c, s = np.cos(angle), np.sin(angle)
    g[0, 0], g[0, 1], g[1, 0], g[1, 1] = c, -s, s, c
    inner = np.eye(planted.dim, dtype=complex)
    inner[off : off + a * b, off : off + a * b] = np.kron(g, np.eye(b))
    u = planted.unitary
    return [u @ inner @ u.conj().T]


def random_cptp_ops(rng, d, n_kraus):
    q = random_isometry(rng, d * n_kraus, d)
    return [q[i * d : (i + 1) * d, :] for i in range(n_kraus)]

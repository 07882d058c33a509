"""Output checks that do not rely on the program under test.

Every expected value here is computed with numpy from the planted data that
`gen` builds, or follows from a property the decomposition must have. No
check compares against a stored copy of an earlier output. A failing check
raises CheckFailed.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

REASSEMBLY_TOL = 1e-7  # the program's own certificate uses the same bound
UNITARY_TOL = 1e-8
WEIGHT_TOL = 1e-6
ENTROPY_TOL = 1e-7


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def entropy_bits(rho):
    """Von Neumann entropy in bits, from numpy.linalg.eigvalsh."""
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return shannon_bits(np.clip(w, 0.0, None))


def shannon_bits(p):
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum()) + 0.0


@dataclass(frozen=True)
class Sector:
    d_info: int
    d_red: int
    column: np.ndarray  # block weight of every state
    info_bits: float  # entropy of the averaged information state
    red_bits: float  # entropy of the redundant state


@dataclass(frozen=True)
class Expected:
    """What the finest decomposition of a planted family must report."""

    sectors: tuple
    prior: np.ndarray
    average_bits: float

    @property
    def shapes(self):
        return Counter((s.d_info, s.d_red) for s in self.sectors)

    @property
    def block_probs(self):
        return np.array([self.prior @ s.column for s in self.sectors])

    @property
    def classical(self):
        return shannon_bits(self.block_probs)

    @property
    def nonclassical(self):
        return float(self.block_probs @ np.array([s.info_bits for s in self.sectors]))

    @property
    def redundant(self):
        return float(self.block_probs @ np.array([s.red_bits for s in self.sectors]))

    @property
    def broadcastable(self):
        return all(s.d_info == 1 for s in self.sectors)

    @property
    def imprint_free(self):
        cols = np.stack([s.column for s in self.sectors], axis=1)
        return bool(np.all(np.abs(cols - cols[0]) <= 1e-8))


def expected_of(planted):
    """Expected decomposition of a planted family.

    Planted sectors with d_info = 1 whose weight columns are proportional
    carry the same information and merge into one (1, sum d_red) sector; the
    merged redundant state is the weighted direct sum of the parts.
    """
    pw = planted.effective_prior()
    sectors = []
    merged = {}
    for l, (di, dr) in enumerate(planted.blocks):
        col = planted.weights[:, l]
        p_l = float(pw @ col)
        if di > 1:
            avg = sum(pw[s] * col[s] * planted.info[s][l] for s in range(len(pw))) / p_l
            sectors.append(Sector(di, dr, col, entropy_bits(avg), entropy_bits(planted.red[l])))
            continue
        key = None
        for k in merged:
            if np.allclose(col / p_l, merged[k][0][0] / merged[k][0][1], rtol=1e-9, atol=1e-12):
                key = k
                break
        if key is None:
            key = len(merged)
            merged[key] = []
        merged[key].append((col, p_l, dr, entropy_bits(planted.red[l])))
    for parts in merged.values():
        p_m = sum(p for _, p, _, _ in parts)
        shares = np.array([p / p_m for _, p, _, _ in parts])
        red_bits = shannon_bits(shares) + float(shares @ np.array([b for *_, b in parts]))
        col = sum(c for c, _, _, _ in parts)
        sectors.append(Sector(1, sum(dr for _, _, dr, _ in parts), col, 0.0, red_bits))
    avg = sum(w * rho for w, rho in zip(pw, planted.states))
    return Expected(tuple(sectors), pw, entropy_bits(avg))


def tensor_expected(ea, eb):
    """Blocks and weights of the product of two independent families."""
    sectors = []
    for sa in ea.sectors:
        for sb in eb.sectors:
            sectors.append(
                Sector(
                    sa.d_info * sb.d_info,
                    sa.d_red * sb.d_red,
                    np.outer(sa.column, sb.column).reshape(-1),
                    sa.info_bits + sb.info_bits,
                    sa.red_bits + sb.red_bits,
                )
            )
    prior = np.outer(ea.prior, eb.prior).reshape(-1)
    return Expected(tuple(sectors), prior, ea.average_bits + eb.average_bits)


# --- decompositions -------------------------------------------------------------


def check_blocks(blocks, weights, expected):
    """Block multiset and weight columns, up to a column permutation."""
    got = Counter((int(a), int(b)) for a, b in blocks)
    require(got == expected.shapes, f"blocks {sorted(got.elements())} != expected {sorted(expected.shapes.elements())}")
    weights = np.asarray(weights, dtype=float)
    require(weights.shape == (len(expected.prior), len(blocks)), f"weights have shape {weights.shape}")
    unused = list(range(len(expected.sectors)))
    for l, (a, b) in enumerate(blocks):
        best, gap = None, np.inf
        for k in unused:
            sec = expected.sectors[k]
            if (sec.d_info, sec.d_red) != (int(a), int(b)):
                continue
            g = float(np.abs(weights[:, l] - sec.column).max())
            if g < gap:
                best, gap = k, g
        require(gap <= WEIGHT_TOL, f"block {l} weight column is {gap:.3e} from every planted column")
        unused.remove(best)


def check_reassembly(states, blocks, weights, transform, support, info, red):
    """Rebuild every state from the returned components and compare.

    `info[s][l]` and `red[l]` are plain arrays (info may be None where the
    weight vanishes); the rebuild uses numpy only.
    """
    g = np.asarray(transform, dtype=complex)
    sup = np.asarray(support, dtype=complex)
    dim = g.shape[0]
    require(g.shape == (dim, dim), f"transform has shape {g.shape}")
    defect = float(np.linalg.norm(g @ g.conj().T - np.eye(dim)))
    require(defect <= UNITARY_TOL * np.sqrt(dim), f"transform is not unitary: defect {defect:.3e}")
    iso = float(np.linalg.norm(sup.conj().T @ sup - np.eye(dim)))
    require(iso <= UNITARY_TOL * np.sqrt(dim), f"support is not an isometry: defect {iso:.3e}")
    worst = 0.0
    for s, rho in enumerate(states):
        inner = np.zeros((dim, dim), dtype=complex)
        off = 0
        for l, (a, b) in enumerate(blocks):
            sz = a * b
            if info[s][l] is not None and weights[s][l] > 0.0:
                inner[off : off + sz, off : off + sz] = weights[s][l] * np.kron(info[s][l], red[l])
            off += sz
        rebuilt = sup @ g.conj().T @ inner @ g @ sup.conj().T
        worst = max(worst, float(np.linalg.norm(rebuilt - rho)))
    require(worst <= REASSEMBLY_TOL, f"reassembly residual {worst:.3e} exceeds {REASSEMBLY_TOL:g}")


def check_decomposition(dec, states, expected):
    """A library DecomposedFamily against the planted structure and the input."""
    blocks = dec.structure.blocks
    check_blocks(blocks, dec.weights, expected)
    info = [[None if m is None else m.mat for m in row] for row in dec.info_states]
    check_reassembly(
        states,
        blocks,
        dec.weights,
        dec.structure.transform,
        dec.support,
        info,
        [r.mat for r in dec.red_states],
    )


# --- entropy and predicates -------------------------------------------------------


def check_entropy(classical, nonclassical, redundant, expected):
    for name, got, want in (
        ("classical", classical, expected.classical),
        ("nonclassical", nonclassical, expected.nonclassical),
        ("redundant", redundant, expected.redundant),
    ):
        require(abs(got - want) <= ENTROPY_TOL, f"{name} bits {got!r} != planted {want!r}")
    total = classical + nonclassical + redundant
    require(
        abs(total - expected.average_bits) <= ENTROPY_TOL,
        f"entropy parts sum to {total!r}, average state has {expected.average_bits!r}",
    )


def check_verdict(name, got, want):
    require(bool(got) is bool(want), f"{name} verdict {got!r}, construction implies {want!r}")


# --- channels -------------------------------------------------------------------------


def apply_ops(ops, rho):
    return sum(k @ rho @ k.conj().T for k in ops)


def preservation_deviation(ops, states):
    """Largest trace-norm change of a family member, computed with numpy."""
    worst = 0.0
    for rho in states:
        diff = apply_ops(ops, rho) - rho
        w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
        worst = max(worst, float(np.abs(w).sum()))
    return worst


def check_preservation(report_ok, report_dev, ops, states, want):
    check_verdict("preserves_family", report_ok, want)
    mine = preservation_deviation(ops, states)
    require(
        abs(report_dev - mine) <= 1e-6 * max(1.0, mine) + 1e-9,
        f"reported deviation {report_dev:.6e} != recomputed {mine:.6e}",
    )


def positive_part_leak(ops, obs):
    """max ||(I - P) K P|| / max(1, ||K||) over the given Kraus operators."""
    w, v = np.linalg.eigh(0.5 * (obs + obs.conj().T))
    pos = v[:, w > 1e-9 * float(np.abs(w).max())]
    p = pos @ pos.conj().T
    comp = np.eye(p.shape[0]) - p
    return max(float(np.linalg.norm(comp @ k @ p)) / max(1.0, float(np.linalg.norm(k))) for k in ops)

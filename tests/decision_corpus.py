"""The decision corpus: gauge-free fingerprints of `decompose` on seeded
planted families, kept in tests/golden/decision_corpus.json.

Per family the file holds the blocks, the support dimension, the
`check_maximal` verdict (ok, violated), the weights, and per block l the
traces Tr(P_l G_k) for k = 0, 1, with P_l the ambient projector onto block
l and G_k the probe `probe(d, k)`, a Gaussian Hermitian matrix built here
from np.random.default_rng(k), so the record does not depend on the
library's own random draws. None of these depends on the gauge
(block-local unitaries) that the decomposition leaves free, so the file
pins the decisions and nothing else.

The "tier1" part runs in `tests/test_decision_corpus.py`; the "d64" part
is too slow for that budget and runs from the command line:

    PYTHONPATH=src python tests/decision_corpus.py --check d64

Rewrite the whole file only when a change of decisions is intended:

    PYTHONPATH=src python tests/decision_corpus.py --write
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from kidecomp import check_maximal, decompose

from helpers import CLASSICAL_64, ENVELOPE_64, build_family

PATH = Path(__file__).resolve().parent / "golden" / "decision_corpus.json"
WEIGHT_ATOL = 1e-10
TRACE_ATOL = 1e-8

# one shape per member count
SHAPES = {
    4: [(2, 2), (1, 3), (3, 1), (2, 1)],
    5: [(1, 2), (1, 3), (1, 1), (1, 2)],
    30: [(2, 3), (1, 4), (3, 2), (2, 2)],
    60: [(1, 1), (1, 1), (2, 2), (1, 3)],
}
PADDED = [([(2, 2), (1, 3)], 12), ([(1, 2), (2, 1), (1, 1)], 9), ([(3, 2), (2, 2), (1, 4)], 20), ([(2, 3), (1, 1)], 10)]
# multiplicity-heavy d = 64 shapes with maximally mixed redundant factors,
# up to I/64 itself: every spectral cluster comes from a multiplicity
HEAVY_64 = [[(8, 8)], [(4, 16)], [(2, 32)], [(1, 32), (1, 32)], [(1, 64)]]


def _families():
    """name -> (part, zero-argument builder of the member list)."""
    out = {}
    for n, shape in SHAPES.items():
        for s in range(6):
            out[f"rng[{s},{n}]"] = ("tier1", lambda s=s, n=n, shape=shape: build_family(np.random.default_rng([s, n]), shape, n))
    for s, (shape, pad) in enumerate(PADDED):
        out[f"rng[70,{s}]-pad{pad}"] = ("tier1", lambda s=s, shape=shape, pad=pad: build_family(np.random.default_rng([70, s]), shape, 5, pad_to=pad))
    for label, shape in (("envelope", ENVELOPE_64), ("classical", CLASSICAL_64)):
        for n in (4, 60):
            out[f"{label}64-{n}"] = ("d64", lambda shape=shape, n=n: build_family(np.random.default_rng(92), shape, n))
    for n in (4, 60):
        out[f"envelope64-mixed-{n}"] = ("d64", lambda n=n: build_family(np.random.default_rng(92), ENVELOPE_64, n, mixed_red=True))
    for shape in HEAVY_64:
        label = "+".join(f"{a}x{b}" for a, b in shape)
        out[f"heavy64-{label}"] = ("d64", lambda shape=shape: build_family(np.random.default_rng(5), shape, 4, mixed_red=True))
    return out


FAMILIES = _families()


def names(part):
    return [name for name, (p, _) in FAMILIES.items() if p == part]


def probe(d, k):
    """The k-th trace probe on C^d: (A + A^dag) / 2 for A with independent
    standard Gaussian real and imaginary parts, from np.random.default_rng(k)."""
    rng = np.random.default_rng(k)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def fingerprint(name):
    """The gauge-free record of `decompose` on the named family."""
    states = FAMILIES[name][1]()["states"]
    dec = decompose(states)
    rep = check_maximal(dec)
    d = dec.support.shape[0]
    gs = [probe(d, k) for k in (0, 1)]
    traces = []
    for l in range(dec.n_blocks):
        v = dec.support @ dec.structure.block_basis(l)
        traces.append([float(np.einsum("ij,ik,kj->", v.conj(), g, v).real) for g in gs])
    return {
        "blocks": [list(b) for b in dec.structure.blocks],
        "support_dim": int(dec.support.shape[1]),
        "ok": bool(rep.ok),
        "violated": [list(v) for v in rep.violated],
        "weights": np.asarray(dec.weights).tolist(),
        "traces": traces,
    }


def load():
    return json.loads(PATH.read_text())


def mismatches(name, want):
    """What moved on the named family against its stored record, one line
    per quantity; empty when nothing did."""
    got = fingerprint(name)
    bad = [
        f"{name}: {key} {got[key]} != stored {want[key]}"
        for key in ("blocks", "support_dim", "ok", "violated")
        if got[key] != want[key]
    ]
    if bad:
        return bad
    for key, atol in (("weights", WEIGHT_ATOL), ("traces", TRACE_ATOL)):
        err = float(np.abs(np.array(got[key]) - np.array(want[key])).max())
        if err > atol:
            bad.append(f"{name}: {key} moved by {err:.3e} > {atol:g}")
    return bad


def _dumps(records):
    """One family per block of lines, one quantity per line."""
    fams = []
    for name, rec in records.items():
        fields = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rec.items())
        fams.append(f" {json.dumps(name)}: {{\n{fields}\n }}")
    return "{\n" + ",\n".join(fams) + "\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="rewrite the file from the code under test")
    action.add_argument("--check", choices=("tier1", "d64"), help="compare one part against the file")
    args = parser.parse_args(argv)
    if args.write:
        PATH.write_text(_dumps({name: fingerprint(name) for name in FAMILIES}))
        print(f"wrote {len(FAMILIES)} families to {PATH}")
        return 0
    stored = load()
    bad = [line for name in names(args.check) for line in mismatches(name, stored[name])]
    print("\n".join(bad) if bad else f"{args.check}: {len(names(args.check))} families match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

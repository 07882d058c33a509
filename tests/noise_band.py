"""The noise band: `decompose` on a planted family mixed with full-rank noise.

The family is the d = 20 planted shape SHAPE with 5 members, built from
default_rng([seed, 3]) for seeds 0-19. Each member rho_s is replaced by
(rho_s + eps P_s) / (1 + eps), where P_s is a random full-rank density
matrix drawn next from the same generator. For a tiny eps the planted
structure should come back; once the noise is above the rank floor the
mixed members generate the full matrix algebra, and the answer is the
trivial structure, one (20, 1) block. In between, a typed error is an
honest answer, but nothing else is. The table counts the outcomes per eps
(planted, trivial, another certified structure, or the error's name) and
gives the median time of the calls that raised.

    PYTHONPATH=src python tests/noise_band.py
    PYTHONPATH=src python tests/noise_band.py --check

`--check` exits 1 when a call raises anything but a KidecompError, when
the eps = 1e-14 row is not planted on every seed, or when a row with
eps >= 1e-8 is not trivial on every seed.
"""

import argparse
import sys
import time
from collections import Counter

import numpy as np

from kidecomp import decompose
from kidecomp.exceptions import KidecompError

from helpers import build_family, random_density

SHAPE = [(2, 3), (1, 4), (3, 2), (2, 2)]
N_STATES = 5
SEEDS = range(20)
EPSILONS = [10.0**k for k in range(-14, -1)]
TRIVIAL = ((sum(a * b for a, b in SHAPE), 1),)


def noisy_family(seed, eps):
    """The members of the planted family for `seed`, each mixed with eps
    times its own random full-rank state."""
    rng = np.random.default_rng([seed, 3])
    states = build_family(rng, SHAPE, N_STATES)["states"]
    d = states[0].shape[0]
    return [(rho + eps * random_density(rng, d)) / (1.0 + eps) for rho in states]


def outcome(seed, eps):
    """"planted", "trivial" or "other" for the structure `decompose` returns,
    or the name of the error it raises ("untyped ..." unless a
    KidecompError)."""
    try:
        blocks = decompose(noisy_family(seed, eps)).structure.blocks
    except KidecompError as err:
        return type(err).__name__
    except Exception as err:  # a defect, which --check fails
        return f"untyped {type(err).__name__}"
    if sorted(blocks) == sorted(SHAPE):
        return "planted"
    return "trivial" if tuple(blocks) == TRIVIAL else "other"


def sweep():
    """eps -> (outcome counts, median ms of the calls that raised or None)."""
    rows = {}
    for eps in EPSILONS:
        counts, raised_ms = Counter(), []
        for seed in SEEDS:
            start = time.perf_counter()
            got = outcome(seed, eps)
            ms = 1e3 * (time.perf_counter() - start)
            counts[got] += 1
            if got not in ("planted", "trivial", "other"):
                raised_ms.append(ms)
        rows[eps] = (counts, float(np.median(raised_ms)) if raised_ms else None)
    return rows


def failures(rows):
    """The rows that break the band's promise, one line each."""
    n, bad = len(SEEDS), []
    for eps, (counts, _) in rows.items():
        bad += [f"eps {eps:.0e}: {k} on {v} seeds" for k, v in counts.items() if k.startswith("untyped")]
        want = "planted" if eps == EPSILONS[0] else "trivial" if eps >= 1e-8 else None
        if want and counts[want] != n:
            bad.append(f"eps {eps:.0e}: {want} on {counts[want]} of {n} seeds")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 unless the band keeps its promise")
    args = parser.parse_args(argv)
    rows = sweep()
    print("| eps | outcome over 20 seeds | median ms of raising calls |")
    print("|---|---|---|")
    for eps, (counts, ms) in rows.items():
        text = ", ".join(f"{k} {v}" for k, v in counts.most_common())
        print(f"| {eps:.0e} | {text} | {'-' if ms is None else f'{ms:.1f}'} |")
    if not args.check:
        return 0
    bad = failures(rows)
    print("\n".join(bad) if bad else "noise band: every checked row holds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

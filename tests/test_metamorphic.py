"""Metamorphic relations of `decompose` on seeded planted families.

The decomposition depends only on the set of states, meaning the algebra
their span generates, and it is covariant under a change of frame. So
listing the members in another order, weighting them differently, adding
convex mixtures of them, or conjugating all of them by one unitary V must
give the same structure (through V, for the last). The block weights are
per member, so they follow the members: permuted rows, the same rows, the
mixtures' rows appended, and the same rows again.

Tier-1 checks the four relations on the families below (d <= 20). The five
d = 64 families of the decision corpus are too slow for that budget; CI's
seed-scan job checks the relations on them from the command line:

    PYTHONPATH=src python tests/test_metamorphic.py --check d64
"""

import argparse
import sys

import numpy as np
import pytest

from kidecomp import decompose, decompositions_equivalent, state_family, structures_equivalent

from helpers import build_family, haar_unitary, weights_match

# (seed, planted blocks, members, pad_to); every ambient dimension is <= 20
FAMILIES = [
    (300, [(2, 2), (1, 3), (3, 1), (2, 1)], 4, None),  # d = 12
    (301, [(2, 3), (1, 4), (3, 2), (2, 2)], 5, None),  # d = 20
    (302, [(1, 2), (1, 3), (1, 1), (1, 2)], 3, None),  # classical, d = 8
    (303, [(2, 2), (2, 1), (1, 3)], 6, 16),  # an 11-dim support in d = 16
    (304, [(3, 1), (3, 2), (1, 1)], 2, None),  # two classes with d_info 3, d = 10
]
IDS = [f"seed-{f[0]}" for f in FAMILIES]
ATOL = 1e-9


def planted(seed, blocks, n_states, pad_to):
    rng = np.random.default_rng(seed)
    states = build_family(rng, blocks, n_states, pad_to=pad_to)["states"]
    return rng, states, decompose(states)


def permuting(rng, states, base):
    perm = rng.permutation(len(states))
    got = decompose([states[i] for i in perm])
    assert decompositions_equivalent(base, got)
    assert weights_match(got.weights, base.weights[perm], atol=ATOL)


def reweighting(rng, states, base):
    got = decompose(state_family(states, weights=rng.uniform(0.05, 1.0, len(states))))
    assert decompositions_equivalent(base, got)
    assert weights_match(got.weights, base.weights, atol=ATOL)


def appending_mixtures(rng, states, base):
    # a channel that preserves every member preserves their mixtures, so
    # more members with the same span leave the structure where it was
    mix = rng.dirichlet(np.ones(len(states)), size=3)
    got = decompose(list(states) + list(np.tensordot(mix, np.asarray(states), axes=1)))
    assert decompositions_equivalent(base, got)
    assert weights_match(got.weights, np.vstack([base.weights, mix @ base.weights]), atol=ATOL)


def conjugating(rng, states, base):
    v = haar_unitary(rng, states[0].shape[0])
    got = decompose([v @ s @ v.conj().T for s in states])
    # V carries the support of the family onto the support of its image
    connector = got.support.conj().T @ v @ base.support
    assert structures_equivalent(base.structure, got.structure, connector=connector)
    assert weights_match(got.weights, base.weights, atol=ATOL)


RELATIONS = (permuting, reweighting, appending_mixtures, conjugating)


@pytest.mark.parametrize("seed, blocks, n_states, pad_to", FAMILIES, ids=IDS)
def test_permuting_members_permutes_weight_rows(seed, blocks, n_states, pad_to):
    permuting(*planted(seed, blocks, n_states, pad_to))


@pytest.mark.parametrize("seed, blocks, n_states, pad_to", FAMILIES, ids=IDS)
def test_reweighting_members_keeps_the_structure(seed, blocks, n_states, pad_to):
    reweighting(*planted(seed, blocks, n_states, pad_to))


@pytest.mark.parametrize("seed, blocks, n_states, pad_to", FAMILIES, ids=IDS)
def test_appending_mixtures_of_members_keeps_the_structure(seed, blocks, n_states, pad_to):
    appending_mixtures(*planted(seed, blocks, n_states, pad_to))


@pytest.mark.parametrize("seed, blocks, n_states, pad_to", FAMILIES, ids=IDS)
def test_unitary_conjugation_is_covariant(seed, blocks, n_states, pad_to):
    conjugating(*planted(seed, blocks, n_states, pad_to))


def main(argv=None):
    """Check every relation on one part of the decision corpus; each draw
    comes from default_rng([k, r]) for the part's k-th family and the r-th
    relation. Exits 1 naming each family and relation that fails."""
    from decision_corpus import FAMILIES as CORPUS, names

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", choices=("d64",), required=True, help="the part of the decision corpus to check")
    args = parser.parse_args(argv)
    bad = []
    for k, name in enumerate(names(args.check)):
        states = CORPUS[name][1]()["states"]
        base = decompose(states)
        for r, relation in enumerate(RELATIONS):
            try:
                relation(np.random.default_rng([k, r]), states, base)
            except AssertionError as err:
                bad.append(f"{name}: {relation.__name__} fails {err}")
    count = len(names(args.check)) * len(RELATIONS)
    print("\n".join(bad) if bad else f"{args.check}: {count} relations hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front-end.

Three subcommands: `decompose` prints the finest block/tensor structure of
a family file, `check` runs one of the operational predicates (broadcast,
imprint, clone, channel), and `entropy` prints the information split,
optionally for the tensor product of two families. All randomness flows
from one seed (--seed, else KIDECOMP_SEED, else 0) and reports are
byte-identical for a fixed (input, seed) pair.

Exit codes: 0 success or predicate holds, 1 predicate fails, 2 bad input,
3 numerical failure.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .applications import (
    entropy_report,
    is_broadcastable,
    no_imprinting_holds,
    sequential_clonability,
)
from .channels import has_block_form, preserves_family
from .exceptions import (
    BadWeights,
    DimensionMismatch,
    EmptyFamily,
    KidecompError,
    NotHermitian,
    NotNormalized,
    ParseError,
    ValidationError,
)
from .io import (
    dumps_canonical,
    dumps_text,
    load_family_file,
    load_kraus_file,
    matrix_to_pairs,
    merge_tolerances,
    parse_tolerance_overrides,
)
from .linalg import Tolerances, von_neumann_entropy
from .structure import check_maximal, decompose, tensor_structure

__all__ = ["main"]

_INPUT_ERRORS = (
    ParseError,
    ValidationError,
    NotHermitian,
    NotNormalized,
    BadWeights,
    DimensionMismatch,
    EmptyFamily,
)


def _add_common_flags(sub):
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default: KIDECOMP_SEED or 0)")
    sub.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="tolerance override, repeatable (e.g. --tol rank=1e-8)",
    )
    sub.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kidecomp",
        description="Simultaneous block/tensor decomposition of density-matrix families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="finest common block/tensor structure of a family")
    d.add_argument("family", help="family file (JSON)")
    _add_common_flags(d)

    c = sub.add_parser("check", help="run an operational predicate on a family")
    c.add_argument("kind", choices=("broadcast", "imprint", "clone", "channel"))
    c.add_argument(
        "inputs",
        nargs="+",
        help="family file; kind=channel takes a family file then a Kraus file",
    )
    _add_common_flags(c)

    e = sub.add_parser("entropy", help="classical/nonclassical/redundant information split")
    e.add_argument("family", nargs="?", default=None, help="family file (JSON)")
    e.add_argument(
        "--tensor",
        nargs=2,
        metavar=("A", "B"),
        help="report the split of the tensor product of two family files",
    )
    _add_common_flags(e)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("KIDECOMP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"KIDECOMP_SEED must be an integer, got {env!r}") from None
    return 0


def _parse_tol_flags(items) -> dict:
    out = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ParseError(f"--tol expects NAME=VALUE, got {item!r}")
        try:
            parsed = float(value)
        except ValueError:
            raise ParseError(f"--tol {name}: not a number: {value!r}") from None
        out.update(parse_tolerance_overrides({name: parsed}, where="--tol"))
    return out


def _meta(command: str, seed: int, tol: Tolerances) -> dict:
    return {
        "report_version": "1",
        "command": command,
        "seed": int(seed),
        "tolerances": {
            name: float(getattr(tol, name))
            for name in (
                "tol_sym",
                "tol_psd",
                "tol_trace",
                "tol_rank",
                "tol_zero",
                "tol_cluster",
            )
        },
    }


def _structure_summary(decomp, labels) -> dict:
    eff = decomp.family.effective_weights()
    avg = eff @ decomp.weights
    return {
        "dim": int(decomp.family.dim),
        "support_dim": int(decomp.structure.dim),
        "labels": list(labels),
        "blocks": [
            {
                "d_info": int(di),
                "d_red": int(dr),
                "avg_probability": float(avg[l]),
            }
            for l, (di, dr) in enumerate(decomp.structure.blocks)
        ],
        "weights": [[float(x) for x in row] for row in decomp.weights],
    }


def _entropy_payload(rep, family, tol) -> dict:
    # decompose has already validated the family's average
    average = np.tensordot(family.effective_weights(), np.stack(family.mats()), axes=1)
    return {
        "classical_bits": float(rep.classical),
        "nonclassical_bits": float(rep.nonclassical),
        "redundant_bits": float(rep.redundant),
        "total_bits": float(rep.total),
        "average_state_bits": float(von_neumann_entropy(average, tol)),
        "compression_qubits": float(rep.compression_qubits),
        "classical_replaceable_bits": float(rep.classical_replaceable_bits),
        "teleport_ebits": float(rep.teleport_ebits),
        "per_block": [
            {
                "weight": float(b.weight),
                "info_bits": float(b.info_bits),
                "red_bits": float(b.red_bits),
            }
            for b in rep.per_block
        ],
    }


def _run_decompose(args, seed: int, cli_tol: dict) -> dict:
    loaded = load_family_file(args.family, cli_tol)
    tol = loaded.tolerances
    decomp = decompose(loaded.family, seed=seed, tol=tol)
    cert = check_maximal(decomp, tol)
    ent = entropy_report(decomp, tol=tol)
    payload = _meta("decompose", seed, tol)
    payload.update(_structure_summary(decomp, loaded.labels))
    payload["transform"] = matrix_to_pairs(decomp.structure.transform)
    payload["support"] = matrix_to_pairs(decomp.support)
    payload["red_spectra"] = [[float(x) for x in q] for q in decomp.red_spectra]
    payload["red_states"] = [matrix_to_pairs(r.mat) for r in decomp.red_states]
    payload["info_states"] = [
        [None if m is None else matrix_to_pairs(m.mat) for m in per_state]
        for per_state in decomp.info_states
    ]
    payload["reassembly_residual"] = float(cert.reassembly_residual)
    payload["maximality"] = {
        "ok": bool(cert.ok),
        "violated": [list(v) for v in cert.violated],
        "reassembly_residual": float(cert.reassembly_residual),
    }
    payload["entropy"] = _entropy_payload(ent, loaded.family, tol)
    return payload


def _run_check(args, seed: int, cli_tol: dict) -> dict:
    kind = args.kind
    expected = 2 if kind == "channel" else 1
    if len(args.inputs) != expected:
        raise ParseError(
            f"check {kind} takes {expected} input file(s), got {len(args.inputs)}"
        )
    loaded = load_family_file(args.inputs[0], cli_tol)
    tol = loaded.tolerances

    if kind == "broadcast":
        rep = is_broadcastable(loaded.family, seed=seed, tol=tol)
        payload = _meta("check broadcast", seed, tol)
        payload.update(_structure_summary(rep.decomposition, loaded.labels))
        payload["ok"] = bool(rep.ok)
        payload["witness_block"] = None if rep.witness_block is None else int(rep.witness_block)
        payload["commutator_defect"] = float(rep.commutator_defect)
        return payload

    if kind == "imprint":
        rep = no_imprinting_holds(loaded.family, seed=seed, tol=tol)
        payload = _meta("check imprint", seed, tol)
        payload.update(_structure_summary(rep.decomposition, loaded.labels))
        payload["ok"] = bool(rep.ok)
        payload["offending"] = None if rep.offending is None else list(rep.offending)
        payload["max_weight_gap"] = float(rep.max_weight_gap)
        return payload

    if kind == "clone":
        if loaded.factor_dims is None:
            raise ValidationError(
                "check clone needs \"factor_dims\": [d_first, d_second] in the family file"
            )
        d_first, d_second = loaded.factor_dims
        rep = sequential_clonability(
            loaded.family.mats(), d_first, d_second, seed=seed, tol=tol
        )
        payload = _meta("check clone", seed, tol)
        payload.update(_structure_summary(rep.marginal_decomposition, loaded.labels))
        payload["ok"] = bool(rep.clonable)
        payload["factor_dims"] = [int(d_first), int(d_second)]
        payload["orthogonality_defect"] = float(rep.orthogonality_defect)
        return payload

    channel = load_kraus_file(args.inputs[1], tol)
    decomp = decompose(loaded.family, seed=seed, tol=tol)
    pres = preserves_family(channel, loaded.family, tol)
    form = has_block_form(channel, decomp.structure, support=decomp.support)
    payload = _meta("check channel", seed, tol)
    payload.update(_structure_summary(decomp, loaded.labels))
    payload["ok"] = bool(pres.ok and form.ok)
    payload["preserves_family"] = {
        "ok": bool(pres.ok),
        "max_deviation": float(pres.max_deviation),
    }
    payload["block_form"] = {
        "ok": bool(form.ok),
        "max_violation": float(form.max_violation),
        "violations": [list(v) for v in form.violations],
    }
    return payload


def _run_entropy(args, seed: int, cli_tol: dict) -> dict:
    if args.tensor and args.family:
        raise ParseError("give either a family file or --tensor A B, not both")
    if not args.tensor and not args.family:
        raise ParseError("entropy needs a family file or --tensor A B")

    if args.tensor:
        first = load_family_file(args.tensor[0], cli_tol)
        second = load_family_file(args.tensor[1], cli_tol)
        da = decompose(first.family, seed=seed, tol=first.tolerances)
        db = decompose(second.family, seed=seed, tol=second.tolerances)
        tol = merge_tolerances(cli_tol)
        decomp = tensor_structure(da, db, tol=tol)
        labels = [f"{a}*{b}" for a in first.labels for b in second.labels]
    else:
        loaded = load_family_file(args.family, cli_tol)
        tol = loaded.tolerances
        decomp = decompose(loaded.family, seed=seed, tol=tol)
        labels = loaded.labels

    ent = entropy_report(decomp, tol=tol)
    payload = _meta("entropy", seed, tol)
    payload.update(_structure_summary(decomp, labels))
    payload["entropy"] = _entropy_payload(ent, decomp.family, tol)
    return payload


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        seed = _resolve_seed(args)
        cli_tol = _parse_tol_flags(args.tol)
        if args.command == "decompose":
            payload = _run_decompose(args, seed, cli_tol)
        elif args.command == "check":
            payload = _run_check(args, seed, cli_tol)
        else:
            payload = _run_entropy(args, seed, cli_tol)
        text = dumps_canonical(payload) if args.format == "json" else dumps_text(payload)
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except _INPUT_ERRORS as err:
        print(f"kidecomp: error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"kidecomp: error: {err}", file=sys.stderr)
        return 2
    except KidecompError as err:
        print(f"kidecomp: numerical failure: {err}", file=sys.stderr)
        return 3
    return 0 if payload.get("ok", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""File formats and deterministic report serialization.

Families and channels travel as JSON with every complex entry spelled as a
[re, im] pair, so fixtures stay diff-able. Reports are emitted through a
canonical writer (sorted keys, floats at 17 significant digits) so a fixed
(input, seed) pair produces byte-identical output on one numpy/BLAS build
and BLAS thread count.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channels import KrausChannel, kraus_channel
from .exceptions import KidecompError, ParseError, ValidationError
from .linalg import DEFAULT_TOL, StateFamily, Tolerances, state_family

__all__ = [
    "LoadedFamily",
    "load_family_file",
    "load_kraus_file",
    "dumps_canonical",
    "dumps_text",
]

_TOL_NAMES = tuple(f.name for f in fields(Tolerances))


@dataclass(frozen=True)
class LoadedFamily:
    family: StateFamily
    labels: tuple
    tolerances: Tolerances  # defaults, then file overrides, then caller's
    factor_dims: tuple | None
    version: str


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _version(data: dict) -> str:
    version = data.get("version")
    _require(isinstance(version, str), "version: required and must be a string")
    return version


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    out = float(value)
    if not math.isfinite(out):
        raise ParseError(f"{where}: value must be finite")
    return out


def _pairs_to_matrix(rows, n_rows: int, n_cols: int, where: str) -> np.ndarray:
    _require(isinstance(rows, list), f"{where}: expected a list of rows")
    _require(
        len(rows) == n_rows, f"{where}: has {len(rows)} rows, expected {n_rows}"
    )
    out = np.zeros((n_rows, n_cols), dtype=complex)
    for i, row in enumerate(rows):
        here = f"{where}[{i}]"
        _require(isinstance(row, list), f"{here}: expected a list of [re, im] pairs")
        _require(
            len(row) == n_cols, f"{here}: has {len(row)} entries, expected {n_cols}"
        )
        for j, pair in enumerate(row):
            spot = f"{here}[{j}]"
            _require(
                isinstance(pair, list) and len(pair) == 2,
                f"{spot}: expected a [re, im] pair",
            )
            out[i, j] = complex(_as_float(pair[0], spot), _as_float(pair[1], spot))
    return out


def matrix_to_pairs(mat) -> list:
    m = np.asarray(mat, dtype=complex)
    return [
        [[float(m[i, j].real), float(m[i, j].imag)] for j in range(m.shape[1])]
        for i in range(m.shape[0])
    ]


def _load_json(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise ParseError(f"{p}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{p}: line {err.lineno} column {err.colno}: {err.msg}") from err
    _require(isinstance(data, dict), f"{p}: top level must be an object")
    return data


def parse_tolerance_overrides(pairs, where: str = "tolerances") -> dict:
    """Validate a {name: value} mapping of tolerance overrides."""
    _require(isinstance(pairs, dict), f"{where}: expected an object")
    out = {}
    for name, value in pairs.items():
        key = name if name.startswith("tol_") else f"tol_{name}"
        if key not in _TOL_NAMES:
            raise ParseError(
                f"{where}: unknown tolerance {name!r}; known: {', '.join(_TOL_NAMES)}"
            )
        out[key] = _as_float(value, f"{where}.{name}")
    return out


def merge_tolerances(*override_maps) -> Tolerances:
    """Fold override maps (later wins) onto the defaults."""
    merged = {}
    for one in override_maps:
        merged.update(one)
    try:
        return Tolerances(**merged)
    except ValueError as err:
        raise ValidationError(str(err)) from err


def load_family_file(path, tol_overrides=None) -> LoadedFamily:
    """Parse and validate a family file.

    Raises ParseError for structural problems (field identified) and
    ValidationError for matrices that fail density-matrix checks (state
    label named). Caller-supplied tolerance overrides win over the file's
    own `tolerances` section; both sit on top of the defaults.
    """
    data = _load_json(path)
    version = _version(data)
    dim = data.get("dim")
    _require(_is_positive_int(dim), "dim: required and must be a positive integer")
    file_overrides = {}
    if "tolerances" in data:
        file_overrides = parse_tolerance_overrides(data["tolerances"])
    active_tol = merge_tolerances(file_overrides, dict(tol_overrides or {}))

    factor_dims = None
    if "factor_dims" in data:
        raw = data["factor_dims"]
        _require(
            isinstance(raw, list) and len(raw) == 2 and all(_is_positive_int(v) for v in raw),
            "factor_dims: must be a pair of positive integers",
        )
        _require(
            raw[0] * raw[1] == dim,
            f"factor_dims: product {raw[0] * raw[1]} does not match dim {dim}",
        )
        factor_dims = (raw[0], raw[1])

    raw_states = data.get("states")
    _require(
        isinstance(raw_states, list) and len(raw_states) >= 1,
        "states: required and must be a nonempty list",
    )
    labels = []
    mats = []
    weights = []
    for i, entry in enumerate(raw_states):
        where = f"states[{i}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        label = entry.get("label")
        _require(isinstance(label, str) and label, f"{where}.label: required string")
        _require(label not in labels, f"{where}.label: duplicate label {label!r}")
        labels.append(label)
        if "weight" in entry:
            w = _as_float(entry["weight"], f"{where}.weight")
            _require(w > 0, f"{where}.weight: must be positive")
            weights.append(w)
        _require("matrix" in entry, f"{where}.matrix: required")
        mats.append(_pairs_to_matrix(entry["matrix"], dim, dim, f"{where}.matrix"))
    _require(
        len(weights) in (0, len(mats)),
        "states: weights must be absent or present on every state",
    )

    try:
        family = state_family(
            mats, weights=weights if weights else None, tol=active_tol
        )
    except KidecompError as err:
        if err.member is None:
            raise
        raise ValidationError(f"state {labels[err.member]!r}: {err}") from err
    return LoadedFamily(family, tuple(labels), active_tol, factor_dims, version)


def load_kraus_file(path, tol: Tolerances = DEFAULT_TOL) -> KrausChannel:
    """Parse a channel file holding a list of Kraus operators."""
    data = _load_json(path)
    _version(data)
    d_in = data.get("input_dim")
    _require(_is_positive_int(d_in), "input_dim: required and must be a positive integer")
    d_out = data.get("output_dim", d_in)
    _require(_is_positive_int(d_out), "output_dim: must be a positive integer")
    raw = data.get("kraus")
    _require(
        isinstance(raw, list) and len(raw) >= 1,
        "kraus: required and must be a nonempty list of matrices",
    )
    ops = [
        _pairs_to_matrix(entry, d_out, d_in, f"kraus[{i}]")
        for i, entry in enumerate(raw)
    ]
    return kraus_channel(ops, tol=tol)


def format_float(x) -> str:
    """17-significant-digit decimal form, enough to round-trip a double."""
    v = float(x)
    if not math.isfinite(v):
        raise ValidationError(f"cannot serialize non-finite number {v!r}")
    return format(v, ".17g")


def _scalar_token(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    raise ValidationError(f"cannot serialize value of type {type(value).__name__}")


def _depth(value) -> int:
    if isinstance(value, (list, tuple)):
        return 1 + max((_depth(v) for v in value), default=0)
    if isinstance(value, dict):
        return 3  # force dicts onto their own lines
    return 0


def _write(value, out, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(value)
        for pos, key in enumerate(keys):
            if not isinstance(key, str):
                raise ValidationError("object keys must be strings")
            out.append("  " * (indent + 1))
            out.append(json.dumps(key))
            out.append(": ")
            _write(value[key], out, indent + 1)
            out.append(",\n" if pos + 1 < len(keys) else "\n")
        out.append(pad)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif _depth(value) <= 2:
            out.append("[")
            for pos, item in enumerate(value):
                if pos:
                    out.append(", ")
                if isinstance(item, (list, tuple)):
                    out.append("[")
                    out.append(", ".join(_scalar_token(v) for v in item))
                    out.append("]")
                else:
                    out.append(_scalar_token(item))
            out.append("]")
        else:
            out.append("[\n")
            for pos, item in enumerate(value):
                out.append("  " * (indent + 1))
                _write(item, out, indent + 1)
                out.append(",\n" if pos + 1 < len(value) else "\n")
            out.append(pad)
            out.append("]")
    else:
        out.append(_scalar_token(value))


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats, fixed layout."""
    out = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _flatten(value, path, lines):
    if isinstance(value, dict):
        for key in sorted(value):
            sub = key if not path else f"{path}.{key}"
            _flatten(value[key], sub, lines)
    elif isinstance(value, (list, tuple)) and _depth(value) > 2:
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", lines)
    elif isinstance(value, (list, tuple)):
        out = []
        _write(value, out, 0)
        lines.append(f"{path} = {''.join(out)}")
    else:
        lines.append(f"{path} = {_scalar_token(value)}")


def dumps_text(obj) -> str:
    """Flat `path = value` rendering of a report, same determinism as JSON."""
    lines = []
    _flatten(obj, "", lines)
    return "\n".join(lines) + "\n"

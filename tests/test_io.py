import json

import numpy as np
import pytest

from kidecomp.exceptions import ParseError, ValidationError
from kidecomp.io import (
    dumps_canonical,
    dumps_text,
    format_float,
    load_family_file,
    load_kraus_file,
    matrix_to_pairs,
    merge_tolerances,
    parse_tolerance_overrides,
)
from kidecomp.linalg import DEFAULT_TOL

from helpers import (
    family_payload,
    random_density,
    write_family_file,
    write_kraus_file,
)


def test_load_family_happy_path(tmp_path):
    rng = np.random.default_rng(40)
    mats = [random_density(rng, 3) for _ in range(2)]
    path = write_family_file(
        tmp_path / "fam.json",
        mats,
        labels=["alpha", "beta"],
        weights=[0.25, 0.75],
    )
    loaded = load_family_file(path)
    assert loaded.version == "1"
    assert loaded.labels == ("alpha", "beta")
    assert loaded.factor_dims is None
    assert len(loaded.family) == 2
    for got, want in zip(loaded.family.mats(), mats):
        assert np.allclose(got, want, atol=1e-15)
    assert np.allclose(loaded.family.effective_weights(), [0.25, 0.75])


def test_load_family_factor_dims_and_tolerances(tmp_path):
    rng = np.random.default_rng(41)
    mats = [random_density(rng, 6) for _ in range(2)]
    path = write_family_file(
        tmp_path / "fam.json",
        mats,
        factor_dims=(2, 3),
        tolerances={"tol_psd": 1e-7, "cluster": 1e-5},
    )
    loaded = load_family_file(path)
    assert loaded.factor_dims == (2, 3)
    assert loaded.tolerances.tol_psd == 1e-7
    assert loaded.tolerances.tol_cluster == 1e-5
    assert loaded.tolerances.tol_sym == DEFAULT_TOL.tol_sym
    # caller overrides beat the file's own section
    loaded2 = load_family_file(path, tol_overrides={"tol_psd": 1e-6})
    assert loaded2.tolerances.tol_psd == 1e-6


def write_raw(tmp_path, payload):
    p = tmp_path / "raw.json"
    p.write_text(json.dumps(payload))
    return p


def base_payload():
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return {
        "version": "1",
        "dim": 2,
        "states": [{"label": "s0", "matrix": eye}],
    }


def test_load_family_parse_errors(tmp_path):
    cases = []

    p = base_payload()
    del p["version"]
    cases.append((p, "version"))

    p = base_payload()
    p["dim"] = -1
    cases.append((p, "dim"))

    p = base_payload()
    p["dim"] = 2.5
    cases.append((p, "dim"))

    p = base_payload()
    p["states"] = []
    cases.append((p, "states"))

    p = base_payload()
    p["states"].append(dict(p["states"][0]))  # duplicate label
    cases.append((p, "states[1].label"))

    p = base_payload()
    p["states"][0]["weight"] = 0.0
    cases.append((p, "states[0].weight"))

    p = base_payload()
    p["states"][0]["matrix"] = [[[1.0, 0.0]]]  # wrong row count
    cases.append((p, "states[0].matrix"))

    p = base_payload()
    p["states"][0]["matrix"][0][0] = [1.0]  # not a [re, im] pair
    cases.append((p, "states[0].matrix[0][0]"))

    p = base_payload()
    p["states"][0]["matrix"][0][0] = [1.0, "x"]
    cases.append((p, "states[0].matrix[0][0]"))

    p = base_payload()
    p["factor_dims"] = [2, 3]  # product mismatches dim
    cases.append((p, "factor_dims"))

    p = base_payload()
    p["factor_dims"] = [2]
    cases.append((p, "factor_dims"))

    p = base_payload()
    second = {"label": "s1", "matrix": p["states"][0]["matrix"], "weight": 1.0}
    p["states"] = [p["states"][0], second]  # weight on one state only
    cases.append((p, "weights must be absent or present"))

    for payload, needle in cases:
        with pytest.raises(ParseError) as err:
            load_family_file(write_raw(tmp_path, payload))
        assert needle in str(err.value), f"{needle!r} not in {err.value}"


def test_load_family_not_json(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    with pytest.raises(ParseError) as err:
        load_family_file(p)
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        load_family_file(tmp_path / "missing.json")
    p2 = tmp_path / "top.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ParseError):
        load_family_file(p2)


def test_load_family_names_bad_state(tmp_path):
    rng = np.random.default_rng(42)
    good = random_density(rng, 2)
    bad = np.array([[0.5, 0.5], [0.0, 0.5]])  # not Hermitian
    path = write_family_file(tmp_path / "fam.json", [good, bad], labels=["ok", "broken"])
    with pytest.raises(ValidationError) as err:
        load_family_file(path)
    assert "'broken'" in str(err.value)
    assert err.value.__cause__.member == 1


def test_load_kraus_file(tmp_path):
    rng = np.random.default_rng(43)
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    path = write_kraus_file(tmp_path / "ch.json", [u], input_dim=3)
    ch = load_kraus_file(path)
    assert ch.input_dim == 3 and ch.output_dim == 3
    assert np.allclose(ch.kraus_ops[0], u, atol=1e-15)
    # not trace preserving fails validation
    path2 = write_kraus_file(tmp_path / "bad.json", [0.5 * u], input_dim=3)
    with pytest.raises(ValidationError):
        load_kraus_file(path2)
    # missing kraus section
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"version": "1", "input_dim": 2, "kraus": []}))
    with pytest.raises(ParseError) as err:
        load_kraus_file(p)
    assert "kraus" in str(err.value)
    # rectangular operators honor output_dim
    iso = np.zeros((3, 2), dtype=complex)
    iso[0, 0] = iso[1, 1] = 1.0
    path3 = write_kraus_file(tmp_path / "rect.json", [iso], input_dim=2, output_dim=3)
    ch3 = load_kraus_file(path3)
    assert ch3.input_dim == 2 and ch3.output_dim == 3


def test_parse_tolerance_overrides():
    out = parse_tolerance_overrides({"psd": 1e-7, "tol_rank": 1e-8})
    assert out == {"tol_psd": 1e-7, "tol_rank": 1e-8}
    with pytest.raises(ParseError) as err:
        parse_tolerance_overrides({"wobble": 1e-3})
    assert "wobble" in str(err.value)
    with pytest.raises(ParseError):
        parse_tolerance_overrides({"psd": "tiny"})
    with pytest.raises(ParseError):
        parse_tolerance_overrides(["psd", 1e-7])


def test_merge_tolerances():
    merged = merge_tolerances({"tol_psd": 1e-7}, {"tol_psd": 1e-6, "tol_sym": 1e-9})
    assert merged.tol_psd == 1e-6  # later map wins
    assert merged.tol_sym == 1e-9
    assert merged.tol_rank == DEFAULT_TOL.tol_rank
    # invalid combinations surface as ValidationError, not ValueError
    with pytest.raises(ValidationError):
        merge_tolerances({"tol_zero": 1.0})  # tol_zero must stay below tol_rank
    with pytest.raises(ValidationError):
        merge_tolerances({"tol_psd": -1e-9})


def test_format_float():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0
    assert format_float(2.0) == "2"
    with pytest.raises(ValidationError):
        format_float(float("nan"))
    with pytest.raises(ValidationError):
        format_float(float("inf"))


def test_matrix_to_pairs_round_trip():
    rng = np.random.default_rng(44)
    m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    pairs = matrix_to_pairs(m)
    back = np.array([[complex(re, im) for re, im in row] for row in pairs])
    assert np.array_equal(back, m)


def test_dumps_canonical_deterministic_and_sorted():
    obj = {"b": [1.0, 2.0], "a": {"y": True, "x": None}, "c": "text"}
    text = dumps_canonical(obj)
    assert text == dumps_canonical(json.loads(json.dumps(obj)))
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    # valid JSON that parses back to the same data
    assert json.loads(text) == {"b": [1.0, 2.0], "a": {"y": True, "x": None}, "c": "text"}
    # shallow lists stay on one line, deep ones do not
    flat = dumps_canonical({"m": [[1.0, 0.0], [0.0, 1.0]]})
    assert '[[1, 0], [0, 1]]' in flat
    deep = dumps_canonical({"m": [[[1.0, 0.0]]]})
    assert deep.count("\n") > flat.count("\n")


def test_dumps_text_paths():
    obj = {"top": {"num": 0.5, "flag": False}, "rows": [[1.0, 2.0]], "name": "x"}
    text = dumps_text(obj)
    lines = text.strip().split("\n")
    assert 'name = "x"' in lines
    assert "top.flag = false" in lines
    assert "top.num = 0.5" in lines
    assert "rows = [[1, 2]]" in lines
    # deterministic across dict orderings
    assert text == dumps_text({"rows": [[1.0, 2.0]], "name": "x", "top": {"flag": False, "num": 0.5}})

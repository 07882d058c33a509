"""Self-tests of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest perfbench -q

They show that every checker rejects a wrong answer, that the inputs depend
only on the seed, that the inputs come from the benchmark's own generators,
and that every workload passes on a second seed. The last group starts the
benchmark command itself; the whole file takes about a minute.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import kidecomp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

BLOCKS = ((2, 2), (1, 2), (1, 1))


def planted(seed=5, **kw):
    return gen.planted_family(np.random.default_rng(seed), BLOCKS, 4, **kw)


@pytest.fixture(scope="module")
def decomposed():
    p = planted()
    return p, kidecomp.decompose(list(p.states)), checks.expected_of(p)


# --- the checkers reject wrong answers -------------------------------------------------------


def test_decomposition_check_accepts_the_program_output(decomposed):
    p, dec, want = decomposed
    checks.check_decomposition(dec, list(p.states), want)


def test_decomposition_check_rejects_a_coarsened_decomposition(decomposed):
    p, _, want = decomposed
    d = p.dim
    one_block = kidecomp.DecomposedFamily(
        family=kidecomp.state_family(list(p.states)),
        structure=kidecomp.Structure(d, ((d, 1),), np.eye(d, dtype=complex)),
        support=np.eye(d, dtype=complex),
        weights=np.ones((len(p.states), 1)),
        info_states=tuple((kidecomp.density_matrix(s),) for s in p.states),
        red_states=(kidecomp.density_matrix(np.eye(1, dtype=complex)),),
        red_spectra=((1.0,),),
    )
    # it reassembles exactly, so only the structure check can catch it
    checks.check_reassembly(
        list(p.states), ((d, 1),), one_block.weights, np.eye(d), np.eye(d), [[s] for s in p.states], [np.eye(1)]
    )
    with pytest.raises(CheckFailed, match="blocks"):
        checks.check_decomposition(one_block, list(p.states), want)


def test_decomposition_check_rejects_wrong_weights_and_components(decomposed):
    p, dec, want = decomposed
    states = list(p.states)
    swapped = np.array(dec.weights)[::-1]
    with pytest.raises(CheckFailed, match="weight column"):
        checks.check_blocks(dec.structure.blocks, swapped, want)
    info = [[None if m is None else m.mat for m in row] for row in dec.info_states]
    red = [r.mat for r in dec.red_states]
    args = (states, dec.structure.blocks, dec.weights)
    bent = np.array(dec.structure.transform) * 1.001
    with pytest.raises(CheckFailed, match="unitary"):
        checks.check_reassembly(*args, bent, dec.support, info, red)
    l = next(l for l, (di, _) in enumerate(dec.structure.blocks) if di >= 2)
    info[0][l] = info[1][l]
    with pytest.raises(CheckFailed, match="reassembly"):
        checks.check_reassembly(*args, dec.structure.transform, dec.support, info, red)


def test_merged_classical_sectors_are_expected():
    p = gen.planted_family(np.random.default_rng(3), ((2, 2), (1, 4), (1, 2)), 6, equal_weights=True)
    want = checks.expected_of(p)
    assert sorted(want.shapes.elements()) == [(1, 6), (2, 2)]
    dec = kidecomp.decompose(list(p.states))
    checks.check_decomposition(dec, list(p.states), want)


def test_entropy_and_predicate_checks_reject_wrong_values(decomposed):
    p, dec, want = decomposed
    rep = kidecomp.entropy_report(dec)
    checks.check_entropy(rep.classical, rep.nonclassical, rep.redundant, want)
    with pytest.raises(CheckFailed):
        checks.check_entropy(rep.classical + 1e-4, rep.nonclassical, rep.redundant, want)
    with pytest.raises(CheckFailed):
        checks.check_entropy(rep.classical, rep.nonclassical + 1e-4, rep.redundant - 1e-4, want)
    assert want.broadcastable is False and want.imprint_free is False
    for name, got in (("broadcast", True), ("imprint", True)):
        with pytest.raises(CheckFailed):
            checks.check_verdict(name, got, False)


def test_channel_checks_reject_flipped_verdicts_and_wrong_deviation():
    p = planted(7)
    states = list(p.states)
    ops = gen.preserving_ops(np.random.default_rng(1), p)
    checks.check_preservation(True, 0.0, ops, states, True)
    with pytest.raises(CheckFailed):
        checks.check_preservation(False, 0.0, ops, states, True)
    rot = gen.rotation_ops(p, 0.3)
    dev = checks.preservation_deviation(rot, states)
    assert dev > 1e-3
    checks.check_preservation(False, dev, rot, states, False)
    with pytest.raises(CheckFailed, match="deviation"):
        checks.check_preservation(False, 2 * dev, rot, states, False)
    with pytest.raises(CheckFailed):
        checks.check_verdict("has_block_form", True, False)


def test_audit_check_rejects_a_flipped_block_form_verdict():
    wl = workloads.channel_audit(3, "measure")
    op = next(o for o in wl.ops if o.name == "audit/d16/rotate-1e-3")
    pres, form, confined = op.call()
    op.check((pres, form, confined))
    flipped = kidecomp.BlockFormReport(not form.ok, form.max_violation, form.violations)
    with pytest.raises(CheckFailed):
        op.check((pres, flipped, confined))


def test_cli_checks_reject_wrong_exit_code_and_changed_bytes():
    wl = workloads.cli_batch(3, "trace")
    try:
        by_name = {op.name: op for op in wl.ops}
        first = by_name["decompose"].call()
        by_name["decompose"].check(first)
        with pytest.raises(CheckFailed, match="exit code"):
            by_name["decompose"].check(workloads.CliResult(1, first.stdout, None))
        changed = first.stdout.replace(b'"seed": 0', b'"seed": 1')
        with pytest.raises(CheckFailed, match="byte-identical"):
            by_name["decompose-repeat"].check(workloads.CliResult(0, changed, None))
        failing = by_name["imprint-fails"].call()
        by_name["imprint-fails"].check(failing)
        payload = json.loads(failing.stdout)
        payload["ok"] = True
        with pytest.raises(CheckFailed):
            by_name["imprint-fails"].check(workloads.CliResult(1, json.dumps(payload).encode(), None))
    finally:
        wl.close()


# --- inputs -------------------------------------------------------------------------------------


def test_generators_are_deterministic_for_a_seed():
    a, b, c = planted(11, pad_to=10), planted(11, pad_to=10), planted(12, pad_to=10)
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x, y)
    assert not np.allclose(a.states[0], c.states[0])
    for make in (
        lambda r: gen.pure_bipartite(r, 3, 2, 4, True),
        lambda r: gen.random_cptp_ops(r, 5, 3),
        lambda r: gen.remix_ops(r, gen.preserving_ops(r, a), 2),
    ):
        one, two = make(np.random.default_rng(4)), make(np.random.default_rng(4))
        assert all(np.array_equal(x, y) for x, y in zip(one, two))


def test_cli_input_files_depend_only_on_the_seed():
    def files(seed):
        wl = workloads.cli_batch(seed, "trace")
        try:
            return {p.name: p.read_bytes() for p in sorted(wl.workdir.glob("*.json"))}
        finally:
            wl.close()

    first = files(8)
    assert first and first == files(8)
    assert files(9) != first


def test_inputs_come_from_the_benchmarks_own_code():
    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert not name.startswith(("tests", "helpers", "conftest")), f"{path.name} imports {name}"


# --- tracing ------------------------------------------------------------------------------------


def test_tracer_restores_every_patched_function():
    import kidecomp.cli
    import kidecomp.structure

    before = (kidecomp.structure.check_maximal, kidecomp.cli.check_maximal, kidecomp.decompose)
    with tracing.Tracer() as tr:
        assert kidecomp.cli.check_maximal is not before[1]
        kidecomp.decompose(list(planted().states))
    assert (kidecomp.structure.check_maximal, kidecomp.cli.check_maximal, kidecomp.decompose) == before
    m = tracing.layer_metrics(tr.spans)
    assert m["structure.decompose.calls"] == 1
    assert m["structure.check_maximal.calls"] == 1
    assert m["algebra.isotypic_decompose.calls"] == 2
    assert m["structure.decompose.s"] >= m["algebra.isotypic_decompose.s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        ["structure.decompose", 0.0, 10.0, -1],
        ["algebra.isotypic_decompose", 1.0, 4.0, 0],
        ["algebra.intertwiner_space", 2.0, 3.0, 1],
        ["structure.check_maximal", 5.0, 9.0, 0],
        ["algebra.commutant_of_family", 6.0, 8.0, 3],
    ]
    m = tracing.layer_metrics(spans)
    assert m["structure.self_s"] == pytest.approx((10 - 3 - 4) + (4 - 2))
    assert m["algebra.self_s"] == pytest.approx((3 - 1) + 1 + 2)
    assert m["structure.decompose.s"] == pytest.approx(10.0)


# --- the command ----------------------------------------------------------------------------------


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    return proc


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def n_ops(workload, mode):
    wl = workloads.WORKLOADS[workload](2, mode)
    wl.close()
    return len(wl.ops)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_passes_on_a_second_seed(workload):
    proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0 and result["attempted"] % n_ops(workload, "measure") == 0
    assert set(result["metrics"]) == {m["name"] for m in bench_spec()["end_to_end"]}


def test_traced_cli_batch_counts_the_duplicated_certificate():
    proc = run_bench("--workload", "cli-batch", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in bench_spec()["per_layer"]}
    # each `kidecomp decompose` command certifies twice: inside decompose()
    # and again in the command; every other decompose() call certifies once
    assert metrics["structure.check_maximal.calls"] == metrics["structure.decompose.calls"] + 3
    assert metrics["cli.main.calls"] == n_ops("cli-batch", "trace")


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "cli-batch", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

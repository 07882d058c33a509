"""The four benchmark workloads: seeded inputs, a fixed list of operations
and an independent check for each operation's output.

Block shapes, dimensions and state counts are fixed per workload; the seed
only draws the random unitaries, weights and states. Every item draws from
its own generator `default_rng([seed, k])` with a fixed stream number `k`,
so the items that seed scans found clean keep their inputs. Program calls
go through module attributes (`kidecomp.decompose`, never a local import of
the function), so the tracer sees them.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
from checks import require

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


@dataclass
class Op:
    name: str
    call: object  # () -> output of the program
    check: object  # output -> None, raises CheckFailed


@dataclass
class Workload:
    """A fixed list of operations; set-up warms up with one untimed call of
    the first, so the cheapest representative operation goes first."""

    name: str
    ops: list
    children_rss: bool = False  # peak memory is that of child processes
    workdir: Path | None = None  # input files, removed by close()

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _rng(seed, k):
    return np.random.default_rng([int(seed), int(k)])


# --- sectors-large ------------------------------------------------------------------

SECTOR_FAMILIES = (
    # (label, blocks, pad_to); four states each
    ("info-one", ((8, 2), (4, 3)), None),  # d = 28
    ("info-two", ((8, 2), (8, 1)), None),  # d = 24
    ("classical", ((1, 4), (1, 4), (1, 4), (1, 3), (1, 3), (1, 2), (1, 2), (1, 2)), None),  # d = 24
    ("mixed", ((4, 2), (3, 2), (2, 3), (1, 2), (1, 2)), None),  # d = 24
    ("padded", ((4, 2), (2, 2), (1, 2), (1, 2)), 24),  # 16 planted dims in d = 24
)


def _decompose_op(name, planted):
    import kidecomp

    states = list(planted.states)
    expected = checks.expected_of(planted)
    return Op(
        name,
        lambda: kidecomp.decompose(states),
        lambda dec: checks.check_decomposition(dec, states, expected),
    )


def sectors_large(seed, mode):
    ops = []
    for k, (label, blocks, pad) in enumerate(SECTOR_FAMILIES):
        planted = gen.planted_family(_rng(seed, k), blocks, 4, pad_to=pad)
        ops.append(_decompose_op(f"decompose/{label}", planted))
    # the padded family is the cheapest: it goes first, so set-up warms up with it
    return Workload("sectors-large", ops[-1:] + ops[:-1])


# --- ensembles-many --------------------------------------------------------------------

ENSEMBLES = (
    # (label, random stream, blocks, pad_to, equal_weights, prior); sixty states each.
    # Stream 2 held an all-classical family ((1,2)(1,3)(1,1)(1,2), d = 8);
    # it is left out because decompose fails its certificate on it for seed 48.
    ("padded", 0, ((3, 2), (2, 1), (1, 3), (1, 1)), 16, False, False),  # 13 planted dims in d = 16
    ("equal-weight", 1, ((2, 3), (1, 4), (1, 2)), None, True, False),  # d = 12; (1,4)+(1,2) -> (1,6)
    ("weighted", 3, ((2, 2), (2, 1), (1, 2), (1, 1), (1, 1)), None, False, True),  # d = 10
)
N_ENSEMBLE = 60

TENSOR_PAIRS = (
    # ((blocks, n_states), (blocks, n_states))
    ((((2, 1), (1, 2)), 3), (((1, 2), (1, 1)), 2)),
    ((((2, 2),), 2), (((1, 1), (1, 1)), 3)),
)

CLONE_CASES = (("orthogonal", True), ("generic", False))  # pure states on C^3 (x) C^2


def _ensemble_ops(label, planted):
    import kidecomp

    states = list(planted.states)
    weights = None if planted.prior is None else list(planted.prior)
    expected = checks.expected_of(planted)
    held = {}

    def run_decompose():
        held.clear()
        held["dec"] = kidecomp.decompose(kidecomp.state_family(states, weights))
        return held["dec"]

    def check_entropy(rep):
        checks.check_entropy(rep.classical, rep.nonclassical, rep.redundant, expected)

    return [
        Op(f"decompose/{label}", run_decompose, lambda dec: checks.check_decomposition(dec, states, expected)),
        Op(f"entropy/{label}", lambda: kidecomp.entropy_report(held["dec"]), check_entropy),
        Op(
            f"broadcast/{label}",
            lambda: kidecomp.is_broadcastable(kidecomp.state_family(states, weights)),
            lambda rep: checks.check_verdict("broadcast", rep.ok, expected.broadcastable),
        ),
        Op(
            f"imprint/{label}",
            lambda: kidecomp.no_imprinting_holds(kidecomp.state_family(states, weights)),
            lambda rep: checks.check_verdict("imprint", rep.ok, expected.imprint_free),
        ),
    ]


def _tensor_op(k, pa, pb):
    import kidecomp

    want = checks.tensor_expected(checks.expected_of(pa), checks.expected_of(pb))
    product = [np.kron(a, b) for a in pa.states for b in pb.states]

    def run():
        da = kidecomp.decompose(list(pa.states))
        db = kidecomp.decompose(list(pb.states))
        return kidecomp.tensor_structure(da, db)

    return Op(f"tensor/{k}", run, lambda dec: checks.check_decomposition(dec, product, want))


def _clone_op(label, chis, want):
    import kidecomp

    return Op(
        f"clone/{label}",
        lambda: kidecomp.sequential_clonability(chis, 3, 2),
        lambda rep: checks.check_verdict("clone", rep.clonable, want),
    )


def ensembles_many(seed, mode):
    ops = []
    for label, k, blocks, pad, equal, prior in ENSEMBLES:
        planted = gen.planted_family(_rng(seed, k), blocks, N_ENSEMBLE, pad_to=pad, equal_weights=equal, prior=prior)
        ops.extend(_ensemble_ops(label, planted))
    for k, ((ba, na), (bb, nb)) in enumerate(TENSOR_PAIRS):
        rng = _rng(seed, 10 + k)
        ops.append(_tensor_op(k, gen.planted_family(rng, ba, na), gen.planted_family(rng, bb, nb)))
    for k, (label, orthogonal) in enumerate(CLONE_CASES):
        chis = list(gen.pure_bipartite(_rng(seed, 20 + k), 3, 2, 4, orthogonal))
        ops.append(_clone_op(label, chis, orthogonal))
    return Workload("ensembles-many", ops)


# --- channel-audit -------------------------------------------------------------------------

CHANNEL_KINDS = ("preserving", "remix", "rotate-0.3", "rotate-1e-3", "random")
FRAMES = (
    # (label, blocks, pad_to, channel kinds); four states each
    ("d16", ((2, 2), (2, 1), (1, 3), (1, 3), (1, 2), (1, 2)), None, CHANNEL_KINDS),  # d = 16
    ("d24-padded", ((3, 2), (2, 3), (1, 4), (1, 2), (1, 2)), 24, CHANNEL_KINDS),  # 20 planted dims in d = 24
    ("d28", ((8, 2), (4, 3)), None, CHANNEL_KINDS),  # d = 28
    ("d36-padded", ((4, 3), (3, 2), (2, 4), (1, 4), (1, 2)), 36, ("random",)),  # 32 planted dims in d = 36
)


@dataclass(frozen=True)
class Frame:
    planted: object
    structure: object  # kidecomp Structure on the planted space
    support: object  # isometry into the ambient space, or None for full support


def _frame(rng, blocks, pad):
    import kidecomp

    planted = gen.planted_family(rng, blocks, 4, pad_to=pad)
    if pad is None:
        return Frame(planted, kidecomp.Structure(planted.dim, planted.blocks, planted.unitary.conj().T), None)
    # a random gauge on the support: support @ transform^dag maps block
    # coordinates to the planted columns of U
    w = gen.haar_unitary(rng, planted.planted_dim)
    structure = kidecomp.Structure(planted.planted_dim, planted.blocks, w)
    return Frame(planted, structure, planted.support() @ w)


def _channel(rng, frame, kind):
    """Kraus operators, whether they preserve the family, and an observable
    they preserve (None when they preserve none we can name)."""
    p = frame.planted
    if kind in ("preserving", "remix"):
        ops = gen.preserving_ops(rng, p)
        if kind == "remix":
            ops = gen.remix_ops(rng, ops, extra=3)
        return ops, True, p.states[0] - p.states[1]
    if kind.startswith("rotate-"):
        off, a, b = gen.first_info_block(p)
        cols = p.unitary[:, off : off + a * b]
        return gen.rotation_ops(p, float(kind.split("-", 1)[1])), False, cols @ cols.conj().T
    return gen.random_cptp_ops(rng, p.dim, 4), False, None


def _audit_op(name, frame, ops, preserving, obs):
    import kidecomp
    from kidecomp.exceptions import NotPreserved

    channel = kidecomp.kraus_channel(ops)
    states = list(frame.planted.states)

    def run():
        pres = kidecomp.preserves_family(channel, states)
        form = kidecomp.has_block_form(channel, frame.structure, support=frame.support)
        if obs is None:
            # nothing named is preserved: the predicate must refuse
            try:
                kidecomp.confines_positive_part(channel, states[0] - states[1])
                confined = "accepted"
            except NotPreserved:
                confined = "refused"
        else:
            confined = kidecomp.confines_positive_part(channel, obs)
        return pres, form, confined

    def check(out):
        pres, form, confined = out
        checks.check_preservation(pres.ok, pres.max_deviation, ops, states, preserving)
        checks.check_verdict("has_block_form", form.ok, preserving)
        require(form.ok == (form.max_violation <= 1e-8), "block-form verdict disagrees with its violation")
        if obs is None:
            require(confined == "refused", "confines_positive_part accepted an observable the channel moves")
        else:
            checks.check_verdict("confines_positive_part", confined, True)
            leak = checks.positive_part_leak(ops, obs)
            require(leak <= 1e-7, f"given Kraus operators leak {leak:.3e} out of the positive part")

    return Op(name, run, check)


def channel_audit(seed, mode):
    ops = []
    for k, (label, blocks, pad, kinds) in enumerate(FRAMES):
        rng = _rng(seed, k)
        frame = _frame(rng, blocks, pad)
        for kind in kinds:
            kraus, preserving, obs = _channel(rng, frame, kind)
            ops.append(_audit_op(f"audit/{label}/{kind}", frame, kraus, preserving, obs))
    return Workload("channel-audit", ops)


# --- cli-batch ---------------------------------------------------------------------------------


def _pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _unpairs(rows):
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def write_family(path, states, weights=None, factor_dims=None):
    entries = []
    for i, m in enumerate(states):
        entry = {"label": f"s{i}", "matrix": _pairs(m)}
        if weights is not None:
            entry["weight"] = float(weights[i])
        entries.append(entry)
    payload = {"version": "1", "dim": int(states[0].shape[0]), "states": entries}
    if factor_dims is not None:
        payload["factor_dims"] = list(factor_dims)
    Path(path).write_text(json.dumps(payload))


def write_kraus(path, ops):
    payload = {"version": "1", "input_dim": int(ops[0].shape[1]), "kraus": [_pairs(k) for k in ops]}
    Path(path).write_text(json.dumps(payload))


def cli_env():
    """Child environment: the checkout's `src` first on PYTHONPATH, no seed override."""
    env = dict(os.environ)
    env.pop("KIDECOMP_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    output_file: bytes | None


class CliRunner:
    """Runs `kidecomp` either as `python -m kidecomp.cli` or in-process."""

    def __init__(self, in_process):
        self.in_process = in_process
        self.env = cli_env()

    def __call__(self, argv, output_path=None):
        if output_path is not None and output_path.exists():
            output_path.unlink()
        if self.in_process:
            import kidecomp.cli

            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = kidecomp.cli.main(argv)
            stdout = buf.getvalue().encode()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "kidecomp.cli", *argv],
                env=self.env,
                capture_output=True,
                timeout=120,
                check=False,
            )
            code, stdout = proc.returncode, proc.stdout
        written = output_path.read_bytes() if output_path is not None else None
        return CliResult(code, stdout, written)


def _payload_blocks(payload):
    return [(b["d_info"], b["d_red"]) for b in payload["blocks"]]


def check_cli_payload(payload, expected):
    checks.check_blocks(_payload_blocks(payload), payload["weights"], expected)


def check_cli_decompose(payload, states, expected):
    check_cli_payload(payload, expected)
    info = [[None if m is None else _unpairs(m) for m in row] for row in payload["info_states"]]
    checks.check_reassembly(
        states,
        _payload_blocks(payload),
        payload["weights"],
        _unpairs(payload["transform"]),
        _unpairs(payload["support"]),
        info,
        [_unpairs(r) for r in payload["red_states"]],
    )
    require(payload["maximality"]["ok"] is True, "report does not certify maximality")


def parse_text_report(text):
    """`path = value` lines of `--format text` back into a flat dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        require(sep == " = ", f"malformed text report line {line!r}")
        out[key] = json.loads(value)
    return out


def text_blocks(flat):
    blocks = []
    while f"blocks[{len(blocks)}].d_info" in flat:
        i = len(blocks)
        blocks.append((flat[f"blocks[{i}].d_info"], flat[f"blocks[{i}].d_red"]))
    return blocks


CLI_FAMILIES = (
    # (file, blocks, n_states, equal_weights, prior); d <= 10
    ("mixed", ((2, 2), (2, 1), (1, 2), (1, 2)), 4, False, False),  # d = 10
    ("many", ((2, 1), (1, 2), (1, 2)), 60, True, False),  # d = 6, merges to (2,1),(1,4)
    ("classical", ((1, 2), (1, 2), (1, 1)), 60, False, True),  # d = 5
    ("channel", ((2, 2), (1, 2)), 4, False, False),  # d = 6
    ("tensor-a", ((2, 1), (1, 2)), 3, False, False),  # d = 4
    ("tensor-b", ((1, 2), (1, 1)), 2, False, False),  # d = 3
)


def cli_batch(seed, mode):
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    files, planted, expected = {}, {}, {}
    for k, (label, blocks, n, equal, prior) in enumerate(CLI_FAMILIES):
        p = gen.planted_family(_rng(seed, k), blocks, n, equal_weights=equal, prior=prior)
        planted[label], expected[label] = p, checks.expected_of(p)
        files[label] = work / f"{label}.json"
        write_family(files[label], p.states, p.prior)
    for k, (label, orthogonal) in enumerate(CLONE_CASES):
        files[f"clone-{label}"] = work / f"clone-{label}.json"
        chis = gen.pure_bipartite(_rng(seed, 20 + k), 3, 2, 4, orthogonal)
        write_family(files[f"clone-{label}"], chis, factor_dims=(3, 2))
    rng = _rng(seed, 30)
    files["kraus-preserving"] = work / "kraus-preserving.json"
    write_kraus(files["kraus-preserving"], gen.preserving_ops(rng, planted["channel"]))
    files["kraus-rotate"] = work / "kraus-rotate.json"
    write_kraus(files["kraus-rotate"], gen.rotation_ops(planted["channel"], 0.3))
    report_path = work / "entropy-report.json"

    run = CliRunner(in_process=(mode == "trace"))
    f = {k: str(v) for k, v in files.items()}
    tensor = checks.tensor_expected(expected["tensor-a"], expected["tensor-b"])
    first = {}

    def call(argv, output=None):
        return lambda: run(argv, output)

    def expect(code, then=None):
        def check(res):
            require(res.code == code, f"exit code {res.code}, expected {code}")
            if then is not None:
                then(res)

        return check

    def json_of(res):
        return json.loads((res.output_file if res.output_file is not None else res.stdout).decode())

    def decompose_first(res):
        first["decompose"] = res.stdout
        check_cli_decompose(json_of(res), planted["mixed"].states, expected["mixed"])

    def decompose_again(res):
        require(res.stdout == first.get("decompose"), "repeated decompose call is not byte-identical")

    def text_check(res):
        flat = parse_text_report(res.stdout.decode())
        checks.check_blocks(text_blocks(flat), flat["weights"], expected["many"])

    def verdict(label, want):
        def check(res):
            payload = json_of(res)
            check_cli_payload(payload, expected[label])
            checks.check_verdict(payload["command"], payload["ok"], want)

        return check

    def clone_verdict(want):
        return lambda res: checks.check_verdict("check clone", json_of(res)["ok"], want)

    def entropy_check(exp):
        def check(res):
            payload = json_of(res)
            check_cli_payload(payload, exp)
            e = payload["entropy"]
            checks.check_entropy(e["classical_bits"], e["nonclassical_bits"], e["redundant_bits"], exp)

        return check

    ops = [
        Op("decompose", call(["decompose", f["mixed"]]), expect(0, decompose_first)),
        Op("decompose-repeat", call(["decompose", f["mixed"]]), expect(0, decompose_again)),
        Op("decompose-text", call(["decompose", f["many"], "--format", "text"]), expect(0, text_check)),
        Op("broadcast-holds", call(["check", "broadcast", f["classical"]]), expect(0, verdict("classical", True))),
        Op("imprint-fails", call(["check", "imprint", f["classical"]]), expect(1, verdict("classical", False))),
        Op("clone-orthogonal", call(["check", "clone", f["clone-orthogonal"]]), expect(0, clone_verdict(True))),
        Op("clone-generic", call(["check", "clone", f["clone-generic"]]), expect(1, clone_verdict(False))),
        Op(
            "channel-preserving",
            call(["check", "channel", f["channel"], f["kraus-preserving"]]),
            expect(0, verdict("channel", True)),
        ),
        Op(
            "channel-rotate",
            call(["check", "channel", f["channel"], f["kraus-rotate"]]),
            expect(1, verdict("channel", False)),
        ),
        Op(
            "entropy-output",
            call(["entropy", f["many"], "--output", str(report_path)], report_path),
            expect(0, entropy_check(expected["many"])),
        ),
        Op(
            "entropy-tensor",
            call(["entropy", "--tensor", f["tensor-a"], f["tensor-b"]]),
            expect(0, entropy_check(tensor)),
        ),
    ]
    return Workload("cli-batch", ops, children_rss=not run.in_process, workdir=work)


WORKLOADS = {
    "sectors-large": sectors_large,
    "ensembles-many": ensembles_many,
    "channel-audit": channel_audit,
    "cli-batch": cli_batch,
}

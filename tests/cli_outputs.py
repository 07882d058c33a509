"""Record and compare the CLI's outputs on the files in tests/data.

`--write FILE` runs a fixed list of 44 invocations in-process through
`kidecomp.cli.main` and stores, per invocation, the argv, the exit code,
stdout and stderr. The list is `decompose` (json and text), `entropy` and
`check broadcast|imprint|clone|channel` on the four family files, plus
`entropy --tensor` on all 16 ordered pairs of them; five of these are
usage errors that exit 2. `KIDECOMP_SEED` is unset for the run and paths
are given relative to the checkout, so two checkouts give comparable
records.

`--diff A B` compares two records invocation by invocation. It prints
"identical", or the largest difference between numeric tokens and the
first differing non-numeric token, and exits 1 when any invocation
differs. Compare a change against its parent by writing one record per
checkout:

    PYTHONPATH=src python tests/cli_outputs.py --write /tmp/new.json
    python tests/cli_outputs.py --diff /tmp/old.json /tmp/new.json

The records are not goldens: transforms of blocks with a degenerate
redundant spectrum (`clone_pair.json`'s second block) follow `eigh`
roundoff, so they may differ between numpy/BLAS builds.
"""

import argparse
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = [f"tests/data/{name}.json" for name in ("clone_pair", "commuting_triple", "orthogonal_pair", "uniform_pair")]
CHANNEL = "tests/data/identity_channel.json"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def invocations():
    out = []
    for fam in FAMILIES:
        out.append(["decompose", fam])
        out.append(["decompose", fam, "--format", "text"])
        out.append(["entropy", fam])
        for kind in ("broadcast", "imprint", "clone"):
            out.append(["check", kind, fam])
        out.append(["check", "channel", fam, CHANNEL])
    for a in FAMILIES:
        for b in FAMILIES:
            out.append(["entropy", "--tensor", a, b])
    return out


def record():
    from kidecomp.cli import main

    os.environ.pop("KIDECOMP_SEED", None)
    os.chdir(ROOT)
    runs = []
    for argv in invocations():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        runs.append({"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return runs


def _tokens(text):
    """Numeric tokens as floats and the rest as strings, in order."""
    out, pos = [], 0
    for m in NUMBER.finditer(text):
        out.extend(text[pos : m.start()].split())
        out.append(float(m.group()))
        pos = m.end()
    out.extend(text[pos:].split())
    return out


def compare(a, b):
    """'identical', or how run b's output differs from run a's."""
    if a["argv"] != b["argv"]:
        return f"argv differs: {a['argv']} vs {b['argv']}"
    if a["exit"] != b["exit"]:
        return f"exit {a['exit']} vs {b['exit']}"
    if (a["stdout"], a["stderr"]) == (b["stdout"], b["stderr"]):
        return "identical"
    ta, tb = _tokens(a["stdout"] + a["stderr"]), _tokens(b["stdout"] + b["stderr"])
    worst, first = 0.0, None
    for x, y in zip(ta, tb):
        if isinstance(x, float) and isinstance(y, float):
            worst = max(worst, abs(x - y))
        elif x != y and first is None:
            first = f"{x!r} vs {y!r}"
    if len(ta) != len(tb) and first is None:
        first = f"{len(ta)} vs {len(tb)} tokens"
    return f"largest float difference {worst:.3e}; first differing non-float token: {first or 'none'}"


def diff(path_a, path_b):
    """Print one line per invocation; return how many differ."""
    runs_a, runs_b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if len(runs_a) != len(runs_b):
        print(f"{len(runs_a)} vs {len(runs_b)} invocations")
        return max(len(runs_a), len(runs_b))
    differ = 0
    for a, b in zip(runs_a, runs_b):
        verdict = compare(a, b)
        differ += verdict != "identical"
        print(f"{' '.join(a['argv'])}: {verdict}")
    print(f"{len(runs_a) - differ} of {len(runs_a)} identical")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="FILE", help="run the invocations and store their outputs")
    action.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two stored records")
    args = parser.parse_args(argv)
    if args.write:
        path = Path(args.write).resolve()
        runs = record()
        path.write_text(json.dumps(runs, indent=1) + "\n")
        print(f"wrote {len(runs)} invocations to {path}")
        return 0
    return 1 if diff(*args.diff) else 0


if __name__ == "__main__":
    sys.exit(main())

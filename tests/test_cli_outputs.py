"""`cli_outputs.py --diff` on a synthetic pair of records."""

import json

from cli_outputs import invocations, main


def run(stdout, code=0):
    return {"argv": ["decompose", "f.json"], "exit": code, "stdout": stdout, "stderr": ""}


def test_diff_reports_each_kind_of_difference(tmp_path, capsys):
    a = [run('{"x": 0.5, "ok": true}\n'), run('{"x": 0.5}\n'), run('{"ok": true}\n'), run("", code=2)]
    b = [run('{"x": 0.5, "ok": true}\n'), run('{"x": 0.50000000000000011}\n'), run('{"ok": false}\n'), run("", code=3)]
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert main(["--diff", str(pa), str(pb)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "decompose f.json: identical"
    assert lines[1] == "decompose f.json: largest float difference 1.110e-16; first differing non-float token: none"
    assert lines[2] == "decompose f.json: largest float difference 0.000e+00; first differing non-float token: 'true}' vs 'false}'"
    assert lines[3] == "decompose f.json: exit 2 vs 3"
    assert lines[4] == "1 of 4 identical"
    assert main(["--diff", str(pa), str(pa)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4 of 4 identical"


def test_the_invocation_list():
    runs = invocations()
    assert len(runs) == 44
    assert sum(argv[:2] == ["entropy", "--tensor"] for argv in runs) == 16

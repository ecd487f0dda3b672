"""Golden reports: the exact stdout and exit code of every CLI subcommand.

Each case runs ``poissonkit.cli.main`` in-process, without ``--timings``, and
compares its stdout byte for byte and its exit code with the files under
``tests/golden/``.  The flow trajectory (about 0.8 MB of CSV) is stored
gzip-compressed; it is compared after decompression.

Regenerate the files only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import gzip
import io
import json
import sys
from pathlib import Path

import pytest

from poissonkit import action, cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
BUNDLE = str(ROOT / "demos" / "bundles" / "sample.json")

BUNDLE_SUBCOMMANDS = ["check-lie", "check-bialgebra", "check-poisson", "stratify", "flow",
                      "check-action", "momentum"]
CASES = {name: [name, "--bundle", BUNDLE] for name in BUNDLE_SUBCOMMANDS}
CASES["example51-0,2,0"] = ["example51", "--lambda", "0,2,0", "--c", "1", "--seed", "0"]
CASES["example51-1,2,5"] = ["example51", "--lambda", "1,2,5", "--c", "1", "--seed", "0"]
COMPRESSED = {"flow"}


def _stdout_path(name: str) -> Path:
    return GOLDEN / (f"{name}.stdout.gz" if name in COMPRESSED else f"{name}.stdout")


def _run(argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue().encode()


def _read_stdout(name: str) -> bytes:
    data = _stdout_path(name).read_bytes()
    return gzip.decompress(data) if name in COMPRESSED else data


def _first_difference(expected: bytes, actual: bytes) -> str:
    """The number, expected line and actual line of the first line that differs."""
    exp, act = expected.splitlines(keepends=True), actual.splitlines(keepends=True)
    n = next((i for i, (e, a) in enumerate(zip(exp, act)) if e != a), min(len(exp), len(act)))

    def line(lines):
        return repr(lines[n]) if n < len(lines) else "<end of output>"

    return f"stdout differs first at line {n + 1}\n  expected: {line(exp)}\n  actual:   {line(act)}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    code, stdout = _run(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    expected = _read_stdout(name)
    if stdout != expected:
        pytest.fail(_first_difference(expected, stdout), pytrace=False)


def _filtered(name: str, suite: str):
    """The golden exit code and stdout of case ``name`` as ``--suite suite``
    must give them: only the matching checks, and a summary of those."""
    lines, reports = [], []
    for line in _read_stdout(name).decode().splitlines(keepends=True):
        if not line.startswith("{"):
            lines.append(line)                       # flow's CSV trajectory
        elif suite in json.loads(line).get("check", ""):
            reports.append(json.loads(line))
    failed = [r["check"] for r in reports if not r.get("skipped") and not r.get("passed")]
    skipped = [r["check"] for r in reports if r.get("skipped")]
    summary = {"summary": {"checks": len(reports), "failed": failed, "skipped": skipped,
                           "passed": len(reports) - len(failed) - len(skipped)}}
    lines += [json.dumps(r, sort_keys=True) + "\n" for r in reports + [summary]]
    return (1 if failed else 0), "".join(lines).encode()


@pytest.mark.parametrize("name, suite", [
    ("check-action", "tangential"),
    ("check-action", "plane_action:structure"),
    ("check-bialgebra", "torus"),
    ("check-bialgebra", "hyperbola"),
    ("check-lie", "no-such-check"),
    ("check-poisson", "casimir"),
    ("stratify", "plane"),
    ("flow", "no-such-check"),
    ("momentum", "obstruction"),
    ("example51-0,2,0", "momentum"),
    ("example51-1,2,5", "h-subgroup"),
])
def test_suite_selects_golden_checks(name, suite):
    assert _run(CASES[name] + ["--suite", suite]) == _filtered(name, suite)


def test_suite_skips_unselected_checks_before_computing(monkeypatch):
    def fail(*args):
        raise AssertionError("check_poisson_action ran for a filtered-out check")

    monkeypatch.setattr(action, "check_poisson_action", fail)
    assert _run(CASES["check-action"] + ["--suite", "tangential"]) == \
        _filtered("check-action", "tangential")


@pytest.mark.parametrize("name", ["check-lie", "example51-0,2,0"])
def test_out_writes_the_golden_report(name, tmp_path):
    path = tmp_path / "report.jsonl"
    code, stdout = _run(CASES[name] + ["--out", str(path)])
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert stdout == b""
    assert path.read_bytes() == _read_stdout(name)


def test_out_to_an_unwritable_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "report.jsonl"
    assert cli.main(CASES["check-lie"] + ["--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("schema error: cannot write --out")
    assert not path.exists()


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        code, stdout = _run(CASES[name])
        codes[name] = code
        if name in COMPRESSED:
            stdout = gzip.compress(stdout, compresslevel=9, mtime=0)
        _stdout_path(name).write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()

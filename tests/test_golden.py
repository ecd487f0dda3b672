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

from poissonkit import cli

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    code, stdout = _run(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert stdout == _read_stdout(name)


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

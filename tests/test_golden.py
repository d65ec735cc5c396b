"""Byte identity of `dctool` results on fixed inputs.

Each case runs `dctool spectral`, `svd` or `eig` on one input, then `dctool
verify` on the result when there is one, and compares the exit code, the
stderr text and the SHA-256 of the output document with `golden.json`.
Digests stand in for the documents, which take about 100 KB together.
The inputs are the three fixtures, three copies of the paper's 2x2
subeigenvalue example (kron(EX2, I_3), one youla_skew group of six) and
`gen_random("hermitian", 6, 6, 1)`.

Case names and exit codes are compared on every build.  Floating-point
output is byte-identical only on the numpy and BLAS build it was recorded
with, so the stderr text and the digests are compared only there.  A change
meant to alter any of these outputs regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and records in CHANGES.md which outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES
from dclinalg import EPS_J, DCMatrix, from_scalars, gen_random, jsonio
from dclinalg.cli import main

GOLDEN = Path(__file__).parent / "golden.json"


def _build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def _inputs(tmp: Path) -> dict:
    ex2 = from_scalars([[1, EPS_J], [-EPS_J, 1]])
    generated = {
        "kron_ex2_i3": DCMatrix(np.kron(ex2.standard, np.eye(3)),
                                np.kron(ex2.infinitesimal, np.eye(3))),
        "hermitian_6_seed1": gen_random("hermitian", 6, 6, 1),
    }
    paths = {p.stem: p for p in sorted(FIXTURES.glob("*.json"))}
    for name, a in generated.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(jsonio.encode_matrix(a)))
    return paths


def _case(command: str, src: Path, out: Path) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--input", str(src), "--output", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return {"exit": code, "stderr": err.getvalue(),
            "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_cases(tmp: Path) -> dict:
    """Exit code, stderr and output digest of every case, keyed by case name."""
    cases = {}
    for name, path in _inputs(tmp).items():
        for command in ("spectral", "svd", "eig"):
            doc = tmp / f"{name}.{command}.json"
            cases[f"{name}.{command}"] = _case(command, path, doc)
            if doc.exists():  # dctool writes no document when it fails
                cases[f"{name}.{command}.verify"] = _case(
                    "verify", doc, tmp / f"{name}.{command}.verify.json")
    return cases


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("golden"))


def test_dctool_cases_and_exit_codes_match_golden(cases):
    golden = json.loads(GOLDEN.read_text())["cases"]
    assert sorted(cases) == sorted(golden)
    assert {name: case["exit"] for name, case in cases.items()} == \
        {name: case["exit"] for name, case in golden.items()}


def test_dctool_output_matches_golden(cases):
    golden = json.loads(GOLDEN.read_text())
    if golden["build"] != _build():
        pytest.skip(f"golden digests recorded on {golden['build']}, not {_build()}")
    assert sorted(cases) == sorted(golden["cases"])
    changed = [case for case in golden["cases"] if cases[case] != golden["cases"][case]]
    assert not changed, {case: (golden["cases"][case], cases[case]) for case in changed}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"build": _build(), "cases": run_cases(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['cases'])} cases to {GOLDEN}", file=sys.stderr)

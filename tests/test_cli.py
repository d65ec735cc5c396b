import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import FIXTURES
from dclinalg import DCError, DCMatrix, SingularStandardPart, errors, gen_random, jsonio
from dclinalg.cli import JobSpec, main, run
from dclinalg.scalar import Tolerances

# exit status per error class: 2 rejects the input, 3 is a numerical failure
EXIT_CODES = {
    "NotHermitian": 2, "ShapeMismatch": 2, "NonFinite": 2, "NotAppreciable": 2,
    "NotOrthogonal": 2, "NotSkewSymmetric": 2, "BadEigenspace": 2, "UnknownEigenvalue": 2,
    "IllConditionedGap": 3, "Inconsistent": 3, "AccuracyError": 3, "SingularStandardPart": 3,
}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, DCError) and c is not DCError]


def dctool(*args, env=None):
    return subprocess.run([sys.executable, "-m", "dclinalg", *args],
                          capture_output=True, text=True, env=env)


def test_spectral_worked_example(tmp_path):
    out = tmp_path / "spec.json"
    code = main(["spectral", "--input", str(FIXTURES / "example2.json"),
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "spectral"
    assert len(doc["blocks"]) == 1
    blk = doc["blocks"][0]
    assert blk["kind"] == "Sub"
    assert blk["lambda"] == pytest.approx(1.0, abs=1e-12)
    assert blk["mu_abs"] == pytest.approx(1.0, abs=1e-12)


def test_svd_zero_matrix(tmp_path):
    out = tmp_path / "svd.json"
    assert main(["svd", "--input", str(FIXTURES / "zero.json"),
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["r"] == 0 and doc["p"] == 0


def test_verify_round_trip(tmp_path):
    for command, fixture in [("spectral", "example2.json"), ("svd", "example1.json"),
                             ("eig", "example1.json")]:
        out = tmp_path / f"{command}.json"
        assert main([command, "--input", str(FIXTURES / fixture),
                     "--output", str(out)]) == 0
        assert main(["verify", "--input", str(out)]) == 0


def test_exit_code_validation_failure():
    # the first worked example is not Hermitian
    assert main(["spectral", "--input", str(FIXTURES / "example1.json")]) == 2


def test_exit_code_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 2,\n  "cols": oops}')
    assert main(["svd", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_exit_code_schema_error(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text('{"rows": 2, "cols": 2}')
    assert main(["svd", "--input", str(doc)]) == 1


def test_exit_code_numerical_failure(tmp_path):
    gap = {
        "rows": 2, "cols": 2,
        "standard": [[[1.0, 0], [0, 0]], [[0, 0], [1.0000001, 0]]],
        "infinitesimal": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
    }
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(gap))
    assert main(["spectral", "--input", str(path)]) == 3


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_carries_its_exit_code(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]


def test_singular_standard_part_exits_numerical(monkeypatch, capsys):
    def singular(a, tol):
        raise SingularStandardPart("standard part is numerically singular")

    monkeypatch.setattr("dclinalg.cli.dc_svd", singular)
    assert main(["svd", "--input", str(FIXTURES / "example1.json")]) == 3
    assert "SingularStandardPart" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectral", "eig"])
def test_near_overflow_input_exits_numerical(tmp_path, capsys, command):
    # finite entries whose Hermitian part overflows inside the routine; numpy's
    # LinAlgError is a ValueError but must not read as malformed input (1)
    h = gen_random("hermitian", 4, 4, 3)
    src = tmp_path / "big.json"
    big = DCMatrix(h.standard * 1e308, h.infinitesimal)
    src.write_text(json.dumps(jsonio.encode_matrix(big)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--input", str(src)]) == 3
    assert "LinAlgError" in capsys.readouterr().err


def test_verify_strict_tolerance_fails(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["gen", "--kind", "hermitian", "--m", "5", "--seed", "9",
                 "--output", str(tmp_path / "h.json")]) == 0
    assert main(["spectral", "--input", str(tmp_path / "h.json"),
                 "--output", str(out)]) == 0
    assert main(["verify", "--input", str(out)]) == 0
    assert main(["verify", "--input", str(out), "--resid-tol", "1e-30",
                 "--output", str(tmp_path / "v.json")]) == 3
    assert json.loads((tmp_path / "v.json").read_text())["ok"] is False


def test_gen_deterministic_and_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "--kind", "unitary", "--m", "4", "--seed", "3"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_rerun_byte_identical(tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    for out in (one, two):
        assert main(["spectral", "--input", str(FIXTURES / "example2.json"),
                     "--output", str(out)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_json_compact_single_line(tmp_path):
    out = tmp_path / "c.json"
    assert main(["svd", "--input", str(FIXTURES / "zero.json"), "--json-compact",
                 "--output", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 and " " not in text.splitlines()[0]
    json.loads(text)  # still valid JSON


def test_batch_directory(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["svd", "--input-dir", str(FIXTURES), "--output", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.glob("*.json"))
    assert names == ["example1.svd.json", "example2.svd.json", "zero.svd.json"]
    for p in out_dir.glob("*.json"):
        assert main(["verify", "--input", str(p)]) == 0


def test_batch_collects_worst_exit_code(tmp_path):
    out_dir = tmp_path / "out"
    # spectral fails on example1 (not Hermitian) but succeeds on example2
    assert main(["spectral", "--input-dir", str(FIXTURES),
                 "--output", str(out_dir)]) == 2
    assert (out_dir / "example2.spectral.json").exists()
    assert not (out_dir / "example1.spectral.json").exists()


def test_env_tolerance_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DCTOOL_TOL", "resid=1e-30")
    assert main(["gen", "--kind", "hermitian", "--m", "4", "--seed", "1",
                 "--output", str(tmp_path / "h.json")]) == 0
    assert main(["spectral", "--input", str(tmp_path / "h.json"),
                 "--output", str(tmp_path / "s.json")]) == 0
    assert main(["verify", "--input", str(tmp_path / "s.json")]) == 3
    # flags beat the environment
    assert main(["verify", "--input", str(tmp_path / "s.json"),
                 "--resid-tol", "1e-9"]) == 0
    monkeypatch.setenv("DCTOOL_TOL", "bogus=1")
    assert main(["verify", "--input", str(tmp_path / "s.json")]) == 1


def test_run_jobspec_api(tmp_path):
    spec = JobSpec(command="gen", kind="general", m=2, n=3, seed=5,
                   output_path=tmp_path / "g.json", tolerances=Tolerances())
    assert run(spec) == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["rows"] == 2 and doc["cols"] == 3


def test_console_entry_point_subprocess(tmp_path):
    res = dctool("spectral", "--input", str(FIXTURES / "example2.json"))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["blocks"][0]["kind"] == "Sub"

import argparse
import gc
import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import FIXTURES
from dclinalg import (
    DCError,
    DCMatrix,
    SingularStandardPart,
    SpectralBlock,
    SpectralDecomposition,
    Tolerances,
    cli,
    errors,
    gen_random,
    jsonio,
)
from dclinalg.cli import main

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


def test_eig_general_input_round_trip(tmp_path):
    src, out = tmp_path / "g.json", tmp_path / "g.eig.json"
    src.write_text(json.dumps(jsonio.encode_matrix(gen_random("general", 24, 24, 21))))
    assert main(["eig", "--input", str(src), "--output", str(out)]) == 0
    assert len(json.loads(out.read_text())["complex_pairs"]) == 24
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


# a matrix entry that is a JSON integer beyond double range, and a boolean row
# count, which the JSON parser accepts and the wire format does not; and
# arrays nested deeper than the parser's recursion limit
SCHEMA_HOLES = {
    "deep_nesting": "[" * 100000 + "]" * 100000,
    "huge_entry": '{"rows": 1, "cols": 1, "standard": [[[1%s, 0]]], '
                  '"infinitesimal": [[[0, 0]]]}' % ("0" * 400),
    "bool_rows": '{"rows": true, "cols": 1, "standard": [[[1, 0]]], '
                 '"infinitesimal": [[[0, 0]]]}',
}


@pytest.mark.parametrize("hole", sorted(SCHEMA_HOLES))
def test_schema_hole_exits_malformed_with_one_line(tmp_path, capsys, hole):
    src = tmp_path / "bad.json"
    src.write_text(SCHEMA_HOLES[hole])
    assert main(["svd", "--input", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dctool: ") and err.count("\n") == 1


@pytest.mark.parametrize("hole", sorted(SCHEMA_HOLES))
def test_batch_with_a_schema_hole_keeps_the_good_output(tmp_path, capsys, hole):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    (in_dir / "bad.json").write_text(SCHEMA_HOLES[hole])
    (in_dir / "good.json").write_text((FIXTURES / "example2.json").read_text())
    assert main(["spectral", "--input-dir", str(in_dir), "--output", str(out_dir)]) == 1
    assert (out_dir / "good.spectral.json").exists()
    assert not (out_dir / "bad.spectral.json").exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("dctool: ") == 1


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
    # finite entries whose Hermitian part would overflow inside the routine;
    # the range check's AccuracyError reads as a numerical failure (3)
    h = gen_random("hermitian", 4, 4, 3)
    src = tmp_path / "big.json"
    big = DCMatrix(h.standard * 1e308, h.infinitesimal)
    src.write_text(json.dumps(jsonio.encode_matrix(big)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--input", str(src)]) == 3
    assert "AccuracyError" in capsys.readouterr().err


def test_svd_near_overflow_input_exits_numerical(tmp_path, capsys):
    # the same input through svd: no product of A with itself overflows into
    # a NonFinite factor; the final residual reads inf and is rejected as a
    # numerical failure
    h = gen_random("hermitian", 4, 4, 3)
    src = tmp_path / "big.json"
    big = DCMatrix(h.standard * 1e308, h.infinitesimal)
    src.write_text(json.dumps(jsonio.encode_matrix(big)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["svd", "--input", str(src)]) == 3
    err = capsys.readouterr().err
    assert "AccuracyError" in err and "NonFinite" not in err


def test_svd_of_rounded_rank_deficient_input_verifies(tmp_path):
    # a rank-3 standard part written with 10 decimal places: the rounding
    # leaves singular values near 1e-11, far inside 10 tau of zero, which
    # join the cluster at zero; svd and verify both exit 0
    rng = np.random.default_rng(21)
    g = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
    a = DCMatrix(np.round(g, 10), np.round(rng.standard_normal((6, 6)), 10))
    sv = np.linalg.svd(a.standard, compute_uv=False)
    assert 0 < sv[3] < 1e-8 * sv[0]
    src, out = tmp_path / "a.json", tmp_path / "svd.json"
    src.write_text(json.dumps(jsonio.encode_matrix(a)))
    assert main(["svd", "--input", str(src), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["r"] == 3
    assert main(["verify", "--input", str(out)]) == 0


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


@pytest.mark.parametrize("compact", [False, True], ids=["indented", "compact"])
@pytest.mark.parametrize("command", ["spectral", "svd", "eig"])
def test_batch_output_equals_single_file_output(tmp_path, command, compact):
    flags = ["--json-compact"] if compact else []
    out_dir = tmp_path / "batch"
    batch_code = main([command, "--input-dir", str(FIXTURES), "--output", str(out_dir)] + flags)
    codes = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        name = f"{fixture.stem}.{command}.json"
        single = tmp_path / name
        codes.append(main([command, "--input", str(fixture), "--output", str(single)] + flags))
        assert single.exists() == (out_dir / name).exists()
        if single.exists():
            assert (out_dir / name).read_bytes() == single.read_bytes()
    assert batch_code == max(codes)
    assert any(out_dir.glob("*.json"))


def test_batch_collects_worst_exit_code(tmp_path):
    out_dir = tmp_path / "out"
    # spectral fails on example1 (not Hermitian) but succeeds on example2
    assert main(["spectral", "--input-dir", str(FIXTURES),
                 "--output", str(out_dir)]) == 2
    assert (out_dir / "example2.spectral.json").exists()
    assert not (out_dir / "example1.spectral.json").exists()


@pytest.mark.parametrize("sizes", [["--m", "0"], ["--m", "-1"], ["--m", "3", "--n", "0"],
                                   ["--m", "3", "--n", "-1"]],
                         ids=["m0", "m-1", "n0", "n-1"])
def test_gen_rejects_sizes_below_one(tmp_path, capsys, sizes):
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "general", *sizes, "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("dctool: --m and --n must be at least 1") and err.count("\n") == 1


@pytest.mark.parametrize("flag", [["--input", str(FIXTURES / "zero.json")],
                                  ["--input-dir", str(FIXTURES)], ["--group-tol", "1e-7"],
                                  ["--resid-tol", "1e-8"], ["--zero-tol", "1e-11"]],
                         ids=["input", "input-dir", "group-tol", "resid-tol", "zero-tol"])
def test_gen_rejects_flags_it_would_ignore(tmp_path, capsys, flag):
    # gen reads no input and uses no tolerance: argparse refuses these flags
    out = tmp_path / "g.json"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--kind", "general", "--m", "2", *flag, "--output", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_take_the_umask_like_open(tmp_path):
    # the written file gets 0o666 less the umask, as open() would give it,
    # and no temporary is left beside it
    old = os.umask(0o022)
    try:
        single, batch = tmp_path / "single", tmp_path / "batch"
        assert main(["gen", "--kind", "general", "--m", "3", "--output",
                     str(single / "g.json")]) == 0
        assert main(["svd", "--input", str(single / "g.json"), "--output",
                     str(single / "g.svd.json")]) == 0
        assert main(["svd", "--input-dir", str(FIXTURES), "--output", str(batch)]) == 0
    finally:
        os.umask(old)
    outputs = sorted(single.iterdir()) + sorted(batch.iterdir())
    assert [p.name for p in outputs] == ["g.json", "g.svd.json", "example1.svd.json",
                                         "example2.svd.json", "zero.svd.json"]
    for path in outputs:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def test_a_failed_write_keeps_the_old_output(tmp_path, monkeypatch, capsys):
    # the write fails after its first piece: the output keeps its old bytes,
    # and the temporary file is gone
    out = tmp_path / "g.json"
    out.write_bytes(b"old bytes")

    def broken(doc, write, compact=False):
        write("{")
        raise OSError("no space left on device")

    monkeypatch.setattr(jsonio, "_write", broken)
    assert main(["gen", "--kind", "general", "--m", "2", "--seed", "1",
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == "dctool: no space left on device\n"
    assert out.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


def test_output_name_may_fill_the_file_system_limit(tmp_path):
    # the temporary's name does not grow with the output's: a 250-byte name
    # (of the usual 255) is written, and nothing is left beside it
    out = tmp_path / ("o" * 245 + ".json")
    assert main(["gen", "--kind", "general", "--m", "2", "--output", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [out.name]
    assert jsonio.decode_matrix(json.loads(out.read_text())).shape == (2, 2)


def test_gen_keeps_output_flags(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "general", "--m", "2", "--json-compact",
                 "-o", str(out)]) == 0
    assert out.read_text().count("\n") == 1


def test_input_and_input_dir_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["svd", "--input", str(FIXTURES / "zero.json"), "--input-dir", str(FIXTURES),
              "--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_decomposition_without_an_input_exits_malformed(capsys):
    assert main(["svd"]) == 1
    assert capsys.readouterr().err == "dctool: --input (or --input-dir) is required\n"


def test_input_dir_without_json_files_exits_malformed(tmp_path, capsys):
    (tmp_path / "a.txt").write_text((FIXTURES / "example1.json").read_text())
    assert main(["svd", "--input-dir", str(tmp_path), "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"dctool: no *.json files in {tmp_path}\n"
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("flags, env", [
    (["--resid-tol", "inf"], None), (["--group-tol", "nan"], None),
    ([], "inf"), ([], "resid=1e-9,zero=inf")])
def test_non_finite_tolerance_is_a_bad_setting(tmp_path, monkeypatch, capsys, flags, env):
    # an infinite resid_tol passes every gate: verify wrote "ok": true for any document
    doc = tmp_path / "svd.json"
    assert main(["svd", "--input", str(FIXTURES / "example1.json"), "--output", str(doc)]) == 0
    if env is not None:
        monkeypatch.setenv("DCTOOL_TOL", env)
    for command, source in (("svd", FIXTURES / "example1.json"), ("verify", doc)):
        out = tmp_path / f"{command}.out.json"
        assert main([command, "--input", str(source), "--output", str(out)] + flags) == 1
        assert "dctool: bad tolerance setting" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value, resid_tol", [("1e-30", 1e-30), ("", 1e-9), ("  ", 1e-9)])
def test_env_tolerance_bare_number_or_empty(tmp_path, monkeypatch, value, resid_tol):
    # a bare number is resid_tol; an empty or blank value keeps the defaults
    assert main(["gen", "--kind", "hermitian", "--m", "4", "--seed", "1",
                 "--output", str(tmp_path / "h.json")]) == 0
    assert main(["spectral", "--input", str(tmp_path / "h.json"),
                 "--output", str(tmp_path / "s.json")]) == 0
    monkeypatch.setenv("DCTOOL_TOL", value)
    assert cli._tolerances(argparse.Namespace()) == Tolerances(resid_tol=resid_tol)
    assert main(["verify", "--input", str(tmp_path / "s.json")]) == (3 if value.strip() else 0)


def test_run_jobspec_api(tmp_path):
    assert main(["gen", "--kind", "general", "--m", "2", "--n", "3", "--seed", "5",
                 "--output", str(tmp_path / "g.json")]) == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["rows"] == 2 and doc["cols"] == 3


def test_console_entry_point_subprocess(tmp_path):
    res = dctool("spectral", "--input", str(FIXTURES / "example2.json"))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["blocks"][0]["kind"] == "Sub"


def test_batch_error_lines_name_the_input(tmp_path, capsys):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    bad = in_dir / "bad.json"
    bad.write_text('{"rows": 1, "cols": 1, "standard": [[[true, 0]]], '
                   '"infinitesimal": [[[0, 0]]]}')
    (in_dir / "good.json").write_text((FIXTURES / "example2.json").read_text())
    (in_dir / "not_hermitian.json").write_text((FIXTURES / "example1.json").read_text())
    assert main(["spectral", "--input-dir", str(in_dir), "--output", str(out_dir)]) == 2
    assert (out_dir / "good.spectral.json").exists()
    lines = sorted(capsys.readouterr().err.splitlines())
    assert lines[0] == f"dctool: {bad}: standard[0][0]: expected a number, got True"
    assert lines[1].startswith(f"dctool: {in_dir / 'not_hermitian.json'}: NotHermitian: ")
    assert len(lines) == 2
    # one input, one file: the error line stays as it was
    assert main(["spectral", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == "dctool: standard[0][0]: expected a number, got True\n"


def test_batch_runs_its_inputs_in_sorted_order(tmp_path, capsys):
    # one job after another: the error lines come in the inputs' sorted
    # order as they are printed, with the good input's job between them
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    (in_dir / "not_hermitian.json").write_text((FIXTURES / "example1.json").read_text())
    (in_dir / "good.json").write_text((FIXTURES / "example2.json").read_text())
    (in_dir / "bad.json").write_text('{"rows": 1, "cols": 1, "standard": [[[true, 0]]], '
                                     '"infinitesimal": [[[0, 0]]]}')
    assert main(["spectral", "--input-dir", str(in_dir), "--output", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[1] for line in lines] == [str(in_dir / "bad.json"),
                                                     str(in_dir / "not_hermitian.json")]
    assert lines[1].startswith(f"dctool: {in_dir / 'not_hermitian.json'}: NotHermitian: ")


def test_verify_of_an_eig_document_writes_the_stored_residual(tmp_path, capsys):
    # each list of pairs is checked as one stack, as eig computed the
    # residuals it stores, so verify gives back their maximum bit for bit
    inputs = {f"{kind}{n}": gen_random(kind, n, n, seed)
              for kind, n, seed in (("general", 32, 21), ("hermitian", 12, 3), ("general", 9, 5))}
    # a 3x3 Jordan block at 2, which gen cannot make: V is all but singular,
    # so every eigenvalue takes the SVD path
    inputs["jordan3"] = DCMatrix(2 * np.eye(3) + np.eye(3, k=1))
    for name, a in inputs.items():
        src, out, ver = (tmp_path / f"{name}.{ext}.json" for ext in ("in", "eig", "verify"))
        src.write_text(json.dumps(jsonio.encode_matrix(a)))
        assert main(["eig", "--input", str(src), "--output", str(out)]) == 0
        assert main(["verify", "--input", str(out), "--output", str(ver)]) == 0
        doc = json.loads(out.read_text())
        stored = [max(p["residual"][i] for p in doc["pairs"] + doc["complex_pairs"])
                  for i in (0, 1)]
        assert json.loads(ver.read_text())["residual"] == stored, name
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("mutate, error", [
    (lambda pair: pair["vector"].update(rows=1, standard=[[[1.0, 0.0]]],
                                        infinitesimal=[[[0.0, 0.0]]]), "ShapeMismatch"),
    (lambda pair: pair["vector"].update(standard=[[[0.0, 0.0]]] * 2), "NotAppreciable"),
], ids=["shape", "zero_vector"])
def test_verify_of_an_eig_document_checks_every_vector(tmp_path, capsys, mutate, error):
    out = tmp_path / "eig.json"
    assert main(["eig", "--input", str(FIXTURES / "example1.json"), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    mutate(doc["pairs"][-1])
    out.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(out)]) == 2
    assert f"{error}: " in capsys.readouterr().err


@pytest.mark.parametrize("shape, mutate, code, error", [
    ((3, 2), lambda doc: doc["standard_blocks"].append({"sigma": 0.5}), 1,
     "svd: r must be the width of standard_blocks"),
    ((5, 4), lambda doc: doc.update(r=1, p=7), 1, "svd: r must be the width of standard_blocks"),
    ((3, 2), lambda doc: doc.update(r=3, standard_blocks=doc["standard_blocks"] + [{"sigma": 0.5}]),
     2, "ShapeMismatch: "),
    ((5, 4), lambda doc: doc.update(infinitesimal_values=[0.25], p=1), 2, "ShapeMismatch: "),
], ids=["extra_block", "r_and_p_off", "extra_block_counted", "extra_value_counted"])
def test_verify_of_an_svd_document_checks_its_layout(tmp_path, capsys, shape, mutate, code,
                                                       error):
    # a layout that r and p do not describe, or one wider than min(m, n),
    # is one error line, not a traceback from the residual or a pass
    src, out, ver = (tmp_path / f"{name}.json" for name in ("a", "svd", "verify"))
    src.write_text(json.dumps(jsonio.encode_matrix(gen_random("general", *shape, 1))))
    assert main(["svd", "--input", str(src), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    mutate(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(out), "--output", str(ver)]) == code
    err = capsys.readouterr().err
    assert err.startswith("dctool: ") and err.count("\n") == 1 and error in err
    assert not ver.exists()


def test_verify_of_an_unknown_document_type_exits_malformed(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"type": "nope"}))
    assert main(["verify", "--input", str(doc)]) == 1
    assert capsys.readouterr().err == "dctool: cannot verify a document of type 'nope'\n"


@pytest.mark.parametrize("command, key, value", [
    ("spectral", "blocks", {}), ("svd", "standard_blocks", 1),
    ("svd", "infinitesimal_values", "0.5"), ("eig", "pairs", None),
    ("eig", "complex_pairs", {"value": [[1, 0], [0, 0]]}),
], ids=["spectral_blocks", "svd_standard_blocks", "svd_infinitesimal_values", "eig_pairs",
        "eig_complex_pairs"])
def test_verify_of_a_document_whose_list_is_not_a_list(tmp_path, capsys, command, key, value):
    fixture = "example2.json" if command == "spectral" else "example1.json"
    out, ver = tmp_path / "out.json", tmp_path / "verify.json"
    assert main([command, "--input", str(FIXTURES / fixture), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc[key] = value
    out.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(out), "--output", str(ver)]) == 1
    assert capsys.readouterr().err == f"dctool: {command}: {key} must be a list\n"
    assert not ver.exists()


def _set_first_pair_value(doc):
    doc["pairs"][0]["value"][0][0] = 1e308


@pytest.mark.parametrize("command, kind, shape, mutate", [
    ("svd", "general", (3, 2), lambda doc: doc["standard_blocks"][0].update(sigma=1e308)),
    ("spectral", "hermitian", (3, 3), lambda doc: doc["blocks"][0].update({"lambda": 1e308})),
    ("eig", "general", (3, 3), _set_first_pair_value),
], ids=["svd_sigma", "spectral_lambda", "eig_value"])
def test_verify_of_a_huge_stored_value_is_a_numerical_failure(tmp_path, capsys, command, kind,
                                                              shape, mutate):
    # finite stored values whose residual overflows: one error line and no
    # document (the residual [Infinity, Infinity] is not JSON), and none of
    # numpy's overflow warnings, which the suite turns into errors
    src, out, ver = (tmp_path / f"{name}.json" for name in ("a", command, "verify"))
    src.write_text(json.dumps(jsonio.encode_matrix(gen_random(kind, *shape, 1))))
    assert main([command, "--input", str(src), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    mutate(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--input", str(out), "--output", str(ver)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dctool: AccuracyError: ") and err.count("\n") == 1
    assert not ver.exists()


def test_verify_of_a_residual_that_leaves_double_range_writes_nothing(tmp_path, capsys):
    # every value is in range for n = 2, but U* U - I squares entries of
    # 1e150, and its norm squares them again: the residual overflows
    a = DCMatrix(np.diag([1e150, -1e150]))
    dec = SpectralDecomposition(DCMatrix(np.full((2, 2), 1e150)),
                                (SpectralBlock("Eigen", 1e150), SpectralBlock("Eigen", -1e150)),
                                (0.0, 0.0))
    doc, ver = tmp_path / "spectral.json", tmp_path / "verify.json"
    doc.write_text(json.dumps(jsonio.encode_spectral(a, dec)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--input", str(doc), "--output", str(ver)]) == 3
    assert caught == []
    assert capsys.readouterr().err == (
        "dctool: AccuracyError: the spectral residual leaves double range: the document's "
        "values are too large for this arithmetic\n")
    assert not ver.exists()


def test_a_failure_inside_numpy_linear_algebra_exits_numerical(tmp_path, monkeypatch, capsys):
    # LinAlgError is a ValueError, which would read as malformed input (1)
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    out = tmp_path / "spectral.json"
    assert main(["spectral", "--input", str(FIXTURES / "example2.json"),
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == "dctool: LinAlgError: Eigenvalues did not converge\n"
    assert not out.exists()


def _gc_case(case, tmp_path):
    """argv of one way out of main, and its exit code or SystemExit."""
    bad = tmp_path / "doc.json"
    bad.write_text('{"rows": 2, "cols": 2}')
    return {
        "success": (["svd", "--input", str(FIXTURES / "zero.json"),
                     "--output", str(tmp_path / "svd.json")], 0),
        "dc_error": (["spectral", "--input", str(FIXTURES / "example1.json")], 2),
        "schema_error": (["svd", "--input", str(bad)], 1),
        "argparse_exit": (["svd", "--no-such-flag"], SystemExit),
        "batch": (["svd", "--input-dir", str(FIXTURES), "--output", str(tmp_path / "out")], 0),
    }[case]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("case", ["success", "dc_error", "schema_error", "argparse_exit",
                                  "batch"])
def test_main_restores_the_collector_state(tmp_path, capsys, case, enabled):
    argv, expected = _gc_case(case, tmp_path)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if expected is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == expected
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_back_to_back_main_calls_match_fresh_processes(tmp_path):
    # one parser serves every call: no flag or subcommand of one call leaks
    # into the next
    assert cli.build_parser() is cli.build_parser()
    h, spec, svd, ver, gen = "h.json", "spec.json", "svd.json", "verify.json", "gen.json"
    runs = [
        ["gen", "--kind", "hermitian", "--m", "6", "--seed", "2", "--output", h],
        ["spectral", "--input", h, "--output", spec, "--group-tol", "1e-7"],
        ["svd", "--input", h, "--json-compact", "--output", svd],
        ["verify", "--input", spec, "--resid-tol", "1e-30", "--output", ver],
        ["gen", "--kind", "general", "--m", "2", "--n", "3", "--output", gen],
    ]
    fresh, warm = tmp_path / "fresh", tmp_path / "warm"
    for root in (fresh, warm):
        root.mkdir()
    at = lambda root, argv: [str(root / a) if a.endswith(".json") else a for a in argv]
    for argv in runs:
        assert main(at(warm, argv)) == dctool(*at(fresh, argv)).returncode, argv
    for name in (h, spec, svd, ver, gen):
        assert (warm / name).read_bytes() == (fresh / name).read_bytes(), name

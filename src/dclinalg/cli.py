"""dctool: decompose, verify, and generate dual complex matrices stored as JSON.

    dctool spectral --input a.json --output out.json
    dctool svd      --input a.json
    dctool eig      --input a.json
    dctool verify   --input out.json          # re-checks a result document
    dctool gen --kind hermitian --m 4 --n 4 --seed 7 --output a.json

Result documents embed the input matrix, so `verify` needs no second file.
Batch mode (--input-dir) processes every *.json in a directory concurrently
and writes one output file per input; all writes are atomic
(write-then-rename).  Exit codes: 0 success, 1 malformed input, 2
validation failure, 3 numerical failure.

Default tolerances can be overridden by --group-tol/--resid-tol/--zero-tol
or the DCTOOL_TOL environment variable ("group=1e-7,resid=1e-8,zero=1e-11",
or a single number for resid).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import jsonio
from .eig import complex_right_eigs, dual_right_eigs, verify_eigenpair
from .errors import DCError
from .matrix import gen_random
from .scalar import Tolerances
from .spectral import herm_spectral, verify_spectral
from .svd import dc_svd, verify_svd


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a command plus its inputs, outputs, and tolerances."""

    command: str
    input_path: Optional[Path] = None
    input_dir: Optional[Path] = None
    output_path: Optional[Path] = None
    tolerances: Tolerances = Tolerances()
    seed: int = 0
    kind: Optional[str] = None
    m: Optional[int] = None
    n: Optional[int] = None
    json_compact: bool = False


def _parse_env_tol(text: str) -> dict:
    text = text.strip()
    if not text:
        return {}
    names = {"group": "group_tol", "resid": "resid_tol", "zero": "zero_tol"}
    out = {}
    if "=" not in text:
        out["resid_tol"] = float(text)
        return out
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in names:
            raise ValueError(f"unknown tolerance {key!r} in DCTOOL_TOL")
        out[names[key]] = float(value)
    return out


def _tolerances(args) -> Tolerances:
    fields = {}
    env = os.environ.get("DCTOOL_TOL")
    if env:
        fields.update(_parse_env_tol(env))
    for name in ("group_tol", "resid_tol", "zero_tol"):
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = value
    return Tolerances(**fields)


def _dump(doc, compact: bool) -> str:
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(doc, path: Optional[Path], compact: bool) -> None:
    text = _dump(doc, compact)
    if path is None:
        sys.stdout.write(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load(path: Path):
    with open(path, "r") as handle:
        return json.load(handle)


def _verify_doc(doc, tol: Tolerances) -> dict:
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "spectral":
        a, dec = jsonio.decode_spectral(doc)
        residual = verify_spectral(a, dec)
    elif kind == "svd":
        a, res = jsonio.decode_svd(doc)
        residual = verify_svd(a, res)
    elif kind == "eig":
        a, pairs, complex_pairs = jsonio.decode_eig_result(doc)
        worst = (0.0, 0.0)
        for pair in pairs + complex_pairs:
            rs, ri = verify_eigenpair(a, pair.value, pair.vector, tol)
            worst = (max(worst[0], rs), max(worst[1], ri))
        residual = worst
    else:
        raise jsonio.SchemaError(f"cannot verify a document of type {kind!r}")
    ok = residual[0] <= tol.resid_tol and residual[1] <= tol.resid_tol
    return {"type": "verify", "target": kind, "residual": list(residual), "ok": ok}


def _run_one(spec: JobSpec, input_path: Optional[Path], output_path: Optional[Path]) -> int:
    tol = spec.tolerances
    try:
        if spec.command == "gen":
            if spec.kind is None or spec.m is None:
                raise jsonio.SchemaError("gen requires --kind and --m")
            n = spec.n if spec.n is not None else spec.m
            a = gen_random(spec.kind, spec.m, n, spec.seed)
            _emit(jsonio.encode_matrix(a), output_path, spec.json_compact)
            return 0

        doc = _load(input_path)
        if spec.command == "verify":
            out = _verify_doc(doc, tol)
        elif spec.command == "spectral":
            a = jsonio.decode_matrix(doc)
            out = jsonio.encode_spectral(a, herm_spectral(a, tol))
        elif spec.command == "svd":
            a = jsonio.decode_matrix(doc)
            out = jsonio.encode_svd(a, dc_svd(a, tol))
        elif spec.command == "eig":
            a = jsonio.decode_matrix(doc)
            out = jsonio.encode_eig_result(a, dual_right_eigs(a, tol),
                                           complex_right_eigs(a, tol))
        else:
            raise jsonio.SchemaError(f"unknown command {spec.command!r}")
        _emit(out, output_path, spec.json_compact)
        if spec.command == "verify" and not out["ok"]:
            print(f"dctool: residual {tuple(out['residual'])} exceeds resid_tol "
                  f"{tol.resid_tol}", file=sys.stderr)
            return 3
        return 0
    except json.JSONDecodeError as exc:
        print(f"dctool: {input_path}: malformed JSON at line {exc.lineno} "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:  # a ValueError, but a numerical failure
        print(f"dctool: LinAlgError: {exc}", file=sys.stderr)
        return 3
    except (jsonio.SchemaError, OSError, ValueError) as exc:
        print(f"dctool: {exc}", file=sys.stderr)
        return 1
    except DCError as exc:
        print(f"dctool: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


def run(spec: JobSpec) -> int:
    """Execute one job; returns the process exit code."""
    if spec.command != "gen" and spec.input_dir is not None:
        inputs = sorted(spec.input_dir.glob("*.json"))
        if not inputs:
            print(f"dctool: no *.json files in {spec.input_dir}", file=sys.stderr)
            return 1
        out_dir = spec.output_path if spec.output_path is not None else spec.input_dir
        jobs = [(path, Path(out_dir) / f"{path.stem}.{spec.command}.json")
                for path in inputs]
        with ThreadPoolExecutor(max_workers=min(8, len(jobs))) as pool:
            codes = list(pool.map(lambda job: _run_one(spec, job[0], job[1]), jobs))
        return max(codes)
    if spec.command != "gen" and spec.input_path is None:
        print("dctool: --input (or --input-dir) is required", file=sys.stderr)
        return 1
    return _run_one(spec, spec.input_path, spec.output_path)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", "-i", type=Path, help="input JSON file")
    common.add_argument("--input-dir", type=Path,
                        help="process every *.json file in this directory")
    common.add_argument("--output", "-o", type=Path,
                        help="output file (default stdout); a directory in batch mode")
    common.add_argument("--group-tol", dest="group_tol", type=float,
                        help="eigenvalue clustering tolerance (default 1e-8)")
    common.add_argument("--resid-tol", dest="resid_tol", type=float,
                        help="consistency and residual tolerance (default 1e-9)")
    common.add_argument("--zero-tol", dest="zero_tol", type=float,
                        help="rank / appreciability cutoff (default 1e-12)")
    common.add_argument("--json-compact", action="store_true",
                        help="emit compact single-line JSON")

    parser = argparse.ArgumentParser(
        prog="dctool",
        description="decompose, verify, and generate dual complex matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectral", parents=[common],
                   help="block spectral decomposition of a Hermitian matrix")
    sub.add_parser("svd", parents=[common], help="singular value decomposition")
    sub.add_parser("eig", parents=[common], help="right eigenpairs")
    sub.add_parser("verify", parents=[common], help="re-check a result document")
    gen = sub.add_parser("gen", parents=[common], help="generate a random matrix")
    gen.add_argument("--kind", choices=["general", "hermitian", "unitary", "psd"],
                     required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        print(f"dctool: bad tolerance setting: {exc}", file=sys.stderr)
        return 1
    spec = JobSpec(
        command=args.command,
        input_path=args.input,
        input_dir=args.input_dir,
        output_path=args.output,
        tolerances=tol,
        seed=getattr(args, "seed", 0),
        kind=getattr(args, "kind", None),
        m=getattr(args, "m", None),
        n=getattr(args, "n", None),
        json_compact=args.json_compact,
    )
    return run(spec)


if __name__ == "__main__":
    raise SystemExit(main())

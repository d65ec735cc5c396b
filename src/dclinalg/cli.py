"""dctool: decompose, verify, and generate dual complex matrices stored as JSON.

    dctool spectral --input a.json --output out.json
    dctool svd      --input a.json
    dctool eig      --input a.json
    dctool verify   --input out.json          # re-checks a result document
    dctool gen --kind hermitian --m 4 --n 4 --seed 7 --output a.json

Result documents embed the input matrix, so `verify` needs no second file.
`eig` computes the dual and the complex pairs from one decomposition
(eig.right_eigs): herm_spectral for Hermitian input, one eig of the
standard part otherwise.  `gen` takes only --output and
--json-compact besides its own flags.
Batch mode (--input-dir) runs every *.json in a directory, one after another
in sorted order, and writes one output file per input; its error lines name
the input file.  gen, one --input and each batch input are jobs of one loop
over _run_one, and the exit code is the largest of theirs.  Result
documents are built with array parts (jsonio's private builders), and
their text, in either form, is written from those arrays and streamed,
piece by piece, to stdout or to a temporary file that is then renamed over
the output (write-then-rename); the output gets the mode 0o666 less the
umask, as a plain open() would give it.  The text is byte for byte
json.dumps(doc, sort_keys=True, indent=2), or the compact form under
--json-compact (see jsonio.dumps).  Exit codes:
0 success, 1 malformed input, 2 validation failure, 3 numerical failure.
main(argv) is the one entry point, for the console script and for Python
callers alike; argument errors raise argparse's SystemExit(2).

Default tolerances can be overridden by --group-tol/--resid-tol/--zero-tol
or the DCTOOL_TOL environment variable ("group=1e-7,resid=1e-8,zero=1e-11",
or a single number for resid).  Each is relative (matrix._cluster_tol,
_null_cut, _resid_bound).  `verify` holds a spectral or svd document to
the gate its decomposition passed, matrix.check_residual with the same
scales and the same dropped parts, measured from A alone, but with no
floor for rounding; an eig document's residual pair goes to the same
check with nothing dropped (spectral._judge_spectral, svd._judge_svd,
eig._judge_eig).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import jsonio
from .eig import _judge_eig, right_eigs
from .errors import AccuracyError, DCError, NonFinite
from .matrix import gen_random
from .scalar import Tolerances
from .spectral import _judge_spectral, herm_spectral
from .svd import _judge_svd, dc_svd


def _parse_env_tol(text: str) -> dict:
    text = text.strip()
    if not text:
        return {}
    if "=" not in text:
        return {"resid_tol": float(text)}
    names = {"group": "group_tol", "resid": "resid_tol", "zero": "zero_tol"}
    out = {}
    for item in text.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in names:
            raise ValueError(f"unknown tolerance {key!r} in DCTOOL_TOL")
        out[names[key]] = float(value)
    return out


def _tolerances(args) -> Tolerances:
    fields = _parse_env_tol(os.environ.get("DCTOOL_TOL", ""))
    for name in ("group_tol", "resid_tol", "zero_tol"):
        value = getattr(args, name, None)  # gen takes no tolerance flags
        if value is not None:
            fields[name] = value
    return Tolerances(**fields)


def _emit(doc, path: Optional[Path], compact: bool) -> None:
    if path is None:
        jsonio._write(doc, sys.stdout.write, compact)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    # created with mode 0o666, which the kernel narrows by the umask, as for
    # open(); O_EXCL makes the random name the caller's own, and its fixed
    # length leaves the output's name every byte the file system allows
    tmp = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            jsonio._write(doc, handle.write, compact)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _verify_doc(doc, tol: Tolerances):
    """(verify document, verdict) of a result document; verdict is None when "ok"."""
    kind = doc.get("type") if isinstance(doc, dict) else None
    if kind == "spectral":
        judge, args = _judge_spectral, jsonio.decode_spectral(doc)
    elif kind == "svd":
        judge, args = _judge_svd, jsonio.decode_svd(doc)
    elif kind == "eig":
        judge, args = _judge_eig, jsonio.decode_eig_result(doc)
    else:
        raise jsonio.SchemaError(f"cannot verify a document of type {kind!r}")
    # the decoders take finite numbers only, so a residual that is inf, or
    # has a NaN entry (NonFinite), comes from stored values too large to
    # multiply: an error, not a document, and no numpy warning on the way
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            residual, verdict = judge(*args, tol)
    except NonFinite:
        residual = (np.nan, np.nan)
    if not np.isfinite(residual).all():
        raise AccuracyError(f"the {kind} residual leaves double range: the document's "
                            "values are too large for this arithmetic")
    doc = {"type": "verify", "target": kind, "residual": list(residual), "ok": verdict is None}
    return doc, verdict


def _run_one(args, tol: Tolerances, input_path: Optional[Path],
             output_path: Optional[Path], where: str) -> int:
    """Run one job; error lines start "dctool: " + where (the input in batch mode)."""
    try:
        if args.command == "gen":
            n = args.n if args.n is not None else args.m
            if args.m < 1 or n < 1:
                raise jsonio.SchemaError(f"--m and --n must be at least 1, got {args.m} and {n}")
            a = gen_random(args.kind, args.m, n, args.seed)
            _emit(jsonio._matrix_doc(a), output_path, args.json_compact)
            return 0

        with open(input_path, "r") as handle:
            doc = json.load(handle)
        if args.command == "verify":
            out, verdict = _verify_doc(doc, tol)
        else:
            # the parsed input's lists go before the decomposition runs
            a, doc = jsonio.decode_matrix(doc), None
            if args.command == "spectral":
                out = jsonio._spectral_doc(a, herm_spectral(a, tol))
            elif args.command == "svd":
                out = jsonio._svd_doc(a, dc_svd(a, tol))
            else:
                out = jsonio._eig_doc(a, *right_eigs(a, tol))
        _emit(out, output_path, args.json_compact)
        if args.command == "verify" and not out["ok"]:
            print(f"dctool: {where}{verdict}", file=sys.stderr)
            return 3
        return 0
    except json.JSONDecodeError as exc:
        print(f"dctool: {input_path}: malformed JSON at line {exc.lineno} "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:  # a ValueError, but a numerical failure
        print(f"dctool: {where}LinAlgError: {exc}", file=sys.stderr)
        return 3
    except (jsonio.SchemaError, OSError, ValueError, RecursionError) as exc:
        # RecursionError: the JSON parser's answer to arrays nested too deep
        print(f"dctool: {where}{exc}", file=sys.stderr)
        return 1
    except DCError as exc:
        print(f"dctool: {where}{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The dctool parser, built once: every main call parses with it."""
    # gen reads no input and uses no tolerance, so it takes only the output flags
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", "-o", type=Path,
                        help="output file (default stdout); a directory in batch mode")
    output.add_argument("--json-compact", action="store_true",
                        help="emit compact single-line JSON")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    source = common.add_mutually_exclusive_group()
    source.add_argument("--input", "-i", type=Path, help="input JSON file")
    source.add_argument("--input-dir", type=Path,
                        help="process every *.json file in this directory")
    common.add_argument("--group-tol", dest="group_tol", type=float,
                        help="clustering tolerance, times the largest value (default 1e-8)")
    common.add_argument("--resid-tol", dest="resid_tol", type=float,
                        help="residual and consistency bound, times their norms (default 1e-9)")
    common.add_argument("--zero-tol", dest="zero_tol", type=float,
                        help="rank and null cutoff, times the norm judged (default 1e-12)")

    parser = argparse.ArgumentParser(
        prog="dctool",
        description="decompose, verify, and generate dual complex matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectral", parents=[common],
                   help="block spectral decomposition of a Hermitian matrix")
    sub.add_parser("svd", parents=[common], help="singular value decomposition")
    sub.add_parser("eig", parents=[common], help="right eigenpairs")
    sub.add_parser("verify", parents=[common], help="re-check a result document")
    gen = sub.add_parser("gen", parents=[output], help="generate a random matrix")
    gen.add_argument("--kind", choices=["general", "hermitian", "unitary", "psd"],
                     required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    """Run dctool on argv (default sys.argv[1:]); returns the exit code.

    The cyclic garbage collector is paused for the call, since each of its
    passes would walk every number list of the parsed input document.
    A job leaves only a few dozen objects in cycles (the closures of the
    stdlib's JSON encoder), which the first collection after the call
    frees.  The caller's setting is restored on every exit, argparse's
    SystemExit included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        print(f"dctool: bad tolerance setting: {exc}", file=sys.stderr)
        return 1
    # (input, output, error-line prefix) per job; the prefix names the input
    # in batch mode only
    if args.command == "gen":
        jobs = [(None, args.output, "")]
    elif args.input_dir is not None:
        inputs = sorted(args.input_dir.glob("*.json"))
        if not inputs:
            print(f"dctool: no *.json files in {args.input_dir}", file=sys.stderr)
            return 1
        out_dir = args.output if args.output is not None else args.input_dir
        jobs = [(path, Path(out_dir) / f"{path.stem}.{args.command}.json", f"{path}: ")
                for path in inputs]
    elif args.input is None:
        print("dctool: --input (or --input-dir) is required", file=sys.stderr)
        return 1
    else:
        jobs = [(args.input, args.output, "")]
    return max([_run_one(args, tol, *job) for job in jobs])

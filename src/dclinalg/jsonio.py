"""JSON encoding and decoding of scalars, matrices, and results.

Wire formats (all numbers finite doubles; rows, cols, r and p integers):

    scalar   [[re_st, im_st], [re_inf, im_inf]]
    matrix   {"rows": m, "cols": n,
              "standard": [[[re, im], ...row...], ...],      # row-major
              "infinitesimal": [[[re, im], ...], ...]}
    eigen    {"type": "eig", "matrix": M, "pairs": [...], "complex_pairs": [...]}
             with pairs of {"value": scalar, "vector": matrix, "residual": [r_st, r_inf]}
    spectral {"type": "spectral", "matrix": M, "U": matrix, "residual": [...],
              "blocks": [{"kind": "Eigen"|"Sub", "lambda": x, "mu": [re, im], "mu_abs": x}]}
    svd      {"type": "svd", "matrix": M, "U": matrix, "V": matrix,
              "standard_blocks": [{"sigma": x, "nu": [re, im]}],
              "infinitesimal_values": [...], "r": r, "p": p, "residual": [...]}

Result documents embed the input matrix so that a verification pass needs
no second file.  An eigenpair's residual holds the component norms of
A x - x lam.  A spectral or svd residual is the pair of
matrix.hermitian_residual or matrix.factor_residual, which
verify_spectral and verify_svd, and so `dctool verify`, recompute bit for
bit from the document.

Each encoder has a private builder (_matrix_doc, _eig_doc, whose pairs
_eigenpair_doc builds, _spectral_doc, _svd_doc) that puts leaf(part) in
place of each matrix part.  dctool writes the builder's document with the
default leaf, which keeps each part as its complex array; each public
encode_* function is its builder with the leaf _encode_part, which gives
the nested [re, im] lists above.

`dumps` writes a document, with list or array parts, as the text `dctool`
stores, byte for byte `json.dumps(doc, sort_keys=True, indent=2)` or the
compact form (separators (",", ":")), plus a newline; `_write` hands the
same text to a write callable piece by piece, so no whole-document string
is made, in either form.  The stdlib writes the document with each array
part left out, and so the whole of a list document: its one pass over the
document hands each array part, in the order of the text, to the
default= hook, which leaves a hole for it.  Each array part is
written as the repr of the floats of part.view(float).ravel().tolist()
joined by three fixed separators (re to im, entry to entry, row to row),
which differ between the two forms only in the line breaks and indents they
hold, so it costs about the repr of its floats.
The reader finds list parts with _flat_grid, which flattens a part once;
decode_matrix then reads it with one np.fromiter.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .eig import RightEigenPair
from .matrix import DCMatrix
from .scalar import DualComplex
from .spectral import SpectralBlock, SpectralDecomposition
from .svd import SingularBlock, SvdResult


class SchemaError(ValueError):
    """The document does not match the expected wire format."""


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond double range
        raise SchemaError(f"{where}: numbers must lie within double range") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: numbers must be finite, got {value!r}")
    return value


def _pair(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError(f"{where}: expected [re, im]")
    return complex(_num(value[0], where), _num(value[1], where))


def _field(doc, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing field {key!r}")
    return doc[key]


def _list(doc, key: str, where: str) -> list:
    value = _field(doc, key, where)
    if not isinstance(value, list):
        raise SchemaError(f"{where}: {key} must be a list")
    return value


def encode_scalar(q: DualComplex) -> list:
    return [[q.standard.real, q.standard.imag],
            [q.infinitesimal.real, q.infinitesimal.imag]]


def decode_scalar(obj) -> DualComplex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError("scalar: expected [[re_st, im_st], [re_inf, im_inf]]")
    return DualComplex(_pair(obj[0], "scalar"), _pair(obj[1], "scalar"))


def _encode_part(part: np.ndarray) -> list:
    m, n = part.shape
    return np.ascontiguousarray(part).view(float).reshape(m, n, 2).tolist()


def _same(part: np.ndarray) -> np.ndarray:
    return part


def _flat_grid(obj):
    """(n, flat) when obj is a list of m >= 1 lists of n >= 1 lists of two
    JSON numbers, exact ints or floats (numpy would also read True, None and
    "1"), with flat the 2 m n numbers row by row; None otherwise."""
    if type(obj) is not list or set(map(type, obj)) != {list}:
        return None
    widths = set(map(len, obj))
    entries = list(chain.from_iterable(obj))
    if (len(widths) != 1 or not entries or set(map(type, entries)) != {list}
            or set(map(len, entries)) != {2}):
        return None
    flat = list(chain.from_iterable(entries))
    return (widths.pop(), flat) if set(map(type, flat)) <= {int, float} else None


def _decode_part(obj, m: int, n: int, where: str) -> np.ndarray:
    grid = _flat_grid(obj)
    if grid is not None and grid[0] == n and len(obj) == m:
        try:
            arr = np.fromiter(grid[1], float, 2 * m * n)
        except OverflowError:  # an integer beyond double range
            arr = None
        if arr is not None and np.isfinite(arr).all():
            return arr.view(complex).reshape(m, n)
    # the entry-by-entry walk names the first entry that breaks the format
    if not isinstance(obj, list) or len(obj) != m:
        raise SchemaError(f"{where}: expected {m} rows")
    # the array is allocated once every row has passed, so a cols count the
    # rows do not hold is a schema error, not a failed allocation
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}: row {i} must have {n} entries")
        rows.append([_pair(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(rows, dtype=complex)


def _matrix_doc(a: DCMatrix, leaf=_same) -> dict:
    return {"rows": a.rows, "cols": a.cols,
            "standard": leaf(a.standard), "infinitesimal": leaf(a.infinitesimal)}


def encode_matrix(a: DCMatrix) -> dict:
    return _matrix_doc(a, _encode_part)


def decode_matrix(obj) -> DCMatrix:
    m = _field(obj, "rows", "matrix")
    n = _field(obj, "cols", "matrix")
    # type(...) is int turns away booleans, which isinstance takes for ints
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        raise SchemaError("matrix: rows and cols must be positive integers")
    st = _decode_part(_field(obj, "standard", "matrix"), m, n, "standard")
    inf = _decode_part(_field(obj, "infinitesimal", "matrix"), m, n, "infinitesimal")
    return DCMatrix(st, inf)


def _encode_residual(residual) -> list:
    return [float(residual[0]), float(residual[1])]


def _decode_residual(obj, where: str) -> tuple[float, float]:
    if not isinstance(obj, list) or len(obj) != 2:
        raise SchemaError(f"{where}: residual must be [r_st, r_inf]")
    return (_num(obj[0], where), _num(obj[1], where))


def _eigenpair_doc(pair: RightEigenPair, leaf=_same) -> dict:
    doc = {"value": encode_scalar(pair.value), "vector": _matrix_doc(pair.vector, leaf),
           "residual": _encode_residual(pair.residual)}
    if pair.warning:
        doc["warning"] = pair.warning
    return doc


def decode_eigenpair(obj) -> RightEigenPair:
    value = decode_scalar(_field(obj, "value", "pair"))
    vector = decode_matrix(_field(obj, "vector", "pair"))
    residual = _decode_residual(_field(obj, "residual", "pair"), "pair")
    warning = obj.get("warning")
    if warning is not None and not isinstance(warning, str):
        raise SchemaError("pair: warning must be a string")
    return RightEigenPair(value, vector, residual, warning)


def _eig_doc(a: DCMatrix, pairs, complex_pairs, leaf=_same) -> dict:
    return {
        "type": "eig",
        "matrix": _matrix_doc(a, leaf),
        "pairs": [_eigenpair_doc(p, leaf) for p in pairs],
        "complex_pairs": [_eigenpair_doc(p, leaf) for p in complex_pairs],
    }


def encode_eig_result(a: DCMatrix, pairs, complex_pairs) -> dict:
    return _eig_doc(a, pairs, complex_pairs, _encode_part)


def _spectral_doc(a: DCMatrix, dec: SpectralDecomposition, leaf=_same) -> dict:
    blocks = []
    for b in dec.blocks:
        entry = {"kind": b.kind, "lambda": b.lam}
        if b.kind == "Sub":
            entry["mu"] = [b.mu.real, b.mu.imag]
            entry["mu_abs"] = abs(b.mu)
        blocks.append(entry)
    return {
        "type": "spectral",
        "matrix": _matrix_doc(a, leaf),
        "U": _matrix_doc(dec.U, leaf),
        "blocks": blocks,
        "residual": _encode_residual(dec.residual),
    }


def encode_spectral(a: DCMatrix, dec: SpectralDecomposition) -> dict:
    return _spectral_doc(a, dec, _encode_part)


def decode_spectral(doc) -> tuple[DCMatrix, SpectralDecomposition]:
    a = decode_matrix(_field(doc, "matrix", "spectral"))
    u = decode_matrix(_field(doc, "U", "spectral"))
    blocks = []
    for i, entry in enumerate(_list(doc, "blocks", "spectral")):
        kind = _field(entry, "kind", f"blocks[{i}]")
        lam = _num(_field(entry, "lambda", f"blocks[{i}]"), f"blocks[{i}].lambda")
        if kind == "Eigen":
            blocks.append(SpectralBlock("Eigen", lam))
        elif kind == "Sub":
            mu = _pair(_field(entry, "mu", f"blocks[{i}]"), f"blocks[{i}].mu")
            blocks.append(SpectralBlock("Sub", lam, mu))
        else:
            raise SchemaError(f"blocks[{i}]: unknown kind {kind!r}")
    residual = _decode_residual(_field(doc, "residual", "spectral"), "spectral")
    return a, SpectralDecomposition(u, tuple(blocks), residual)


def _svd_doc(a: DCMatrix, res: SvdResult, leaf=_same) -> dict:
    blocks = []
    for b in res.standard_blocks:
        entry = {"sigma": b.sigma}
        if b.nu is not None:
            entry["nu"] = [b.nu.real, b.nu.imag]
        blocks.append(entry)
    return {
        "type": "svd",
        "matrix": _matrix_doc(a, leaf),
        "U": _matrix_doc(res.U, leaf),
        "V": _matrix_doc(res.V, leaf),
        "standard_blocks": blocks,
        "infinitesimal_values": list(res.infinitesimal_values),
        "r": res.standard_rank,
        "p": res.infinitesimal_rank,
        "residual": _encode_residual(res.residual),
    }


def encode_svd(a: DCMatrix, res: SvdResult) -> dict:
    return _svd_doc(a, res, _encode_part)


def decode_svd(doc) -> tuple[DCMatrix, SvdResult]:
    a = decode_matrix(_field(doc, "matrix", "svd"))
    u = decode_matrix(_field(doc, "U", "svd"))
    v = decode_matrix(_field(doc, "V", "svd"))
    blocks = []
    for i, entry in enumerate(_list(doc, "standard_blocks", "svd")):
        sigma = _num(_field(entry, "sigma", f"standard_blocks[{i}]"),
                     f"standard_blocks[{i}].sigma")
        nu = None
        if "nu" in entry:
            nu = _pair(entry["nu"], f"standard_blocks[{i}].nu")
        blocks.append(SingularBlock(sigma, nu))
    raw_vals = _list(doc, "infinitesimal_values", "svd")
    inf_vals = tuple(_num(x, f"infinitesimal_values[{i}]") for i, x in enumerate(raw_vals))
    r = _field(doc, "r", "svd")
    p = _field(doc, "p", "svd")
    if type(r) is not int or type(p) is not int:
        raise SchemaError("svd: r and p must be integers")
    if r != sum(b.dim for b in blocks) or p != len(inf_vals):
        raise SchemaError("svd: r must be the width of standard_blocks and p the "
                          "length of infinitesimal_values")
    residual = _decode_residual(_field(doc, "residual", "svd"), "svd")
    return a, SvdResult(u, v, tuple(blocks), inf_vals, r, p, residual)


def decode_eig_result(doc) -> tuple[DCMatrix, list, list]:
    a = decode_matrix(_field(doc, "matrix", "eig"))
    raw, raw_c = _list(doc, "pairs", "eig"), _list(doc, "complex_pairs", "eig")
    return a, [decode_eigenpair(p) for p in raw], [decode_eigenpair(p) for p in raw_c]


# An array part in the skeleton; json.dumps writes it as "\u0000".
_HOLE = "\x00"
_HOLE_TEXT = json.dumps(_HOLE)


def _grid_text(n: int, flat: list, nl: str) -> str:
    """The text json.dumps gives a grid of n columns holding the numbers
    flat, where nl opens each line: a newline and the indent of the line the
    grid opens on for indent=2, "" for the compact form.  repr is the text
    json writes for a finite float."""
    nl0, nl2, nl4, nl6 = (nl and nl + " " * k for k in (0, 2, 4, 6))
    numbers = map(repr, flat)
    entries = map(("," + nl6).join, zip(numbers, numbers))
    rows = map(f"{nl4}],{nl4}[{nl6}".join, zip(*[entries] * n))
    body = f"{nl4}]{nl2}],{nl2}[{nl4}[{nl6}".join(rows)
    return f"[{nl2}[{nl4}[{nl6}{body}{nl4}]{nl2}]{nl0}]"


def _write(doc, write, compact: bool = False) -> None:
    """Pass dumps(doc, compact) to write, one piece at a time.

    The text is a json.dumps skeleton of the document, each array part a
    hole in it (an array of size 0, m x 0, stays as its list form, which
    holds no entry), with each part written by _grid_text between the
    skeleton's pieces; a list document is its skeleton alone.  The encoder
    hands each array part to the default hook, hole, in the order of the
    text, so the k-th part fills the k-th hole.  Whether the document goes
    to the stdlib instead (a string of it reads "\x00", or an array part
    holds inf or nan, which json writes as Infinity or NaN) is settled
    before the first write.  Array parts come from DCMatrix, complex and
    C-contiguous.
    """
    form = {"separators": (",", ":")} if compact else {"indent": 2}
    found = []

    def hole(part):
        if not isinstance(part, np.ndarray):
            raise TypeError(f"Object of type {type(part).__name__} is not JSON serializable")
        if not part.size:
            return _encode_part(part)
        found.append(part)
        return _HOLE

    # the indented form's encoder is a cycle of closures that keeps hole
    # until the cyclic collector runs, which dctool pauses, so hole's list
    # is emptied: the arrays must not outlive the document
    try:
        pieces = json.dumps(doc, sort_keys=True, default=hole, **form).split(_HOLE_TEXT)
        parts = found.copy()
    finally:
        found.clear()
    if len(pieces) != len(parts) + 1 or not all(np.isfinite(part).all() for part in parts):
        write(json.dumps(doc, sort_keys=True, default=_encode_part, **form) + "\n")
        return
    write(pieces[0])
    for part, before, piece in zip(parts, pieces, pieces[1:]):
        # an indented part opens on the last line of the piece before it
        line = before[before.rfind("\n") + 1:]
        nl = "" if compact else "\n" + " " * (len(line) - len(line.lstrip(" ")))
        write(_grid_text(part.shape[1], part.view(float).ravel().tolist(), nl))
        write(piece)
    write("\n")


def dumps(doc, compact: bool = False) -> str:
    """The text dctool writes for doc: json.dumps(doc, sort_keys=True) with
    indent=2, or with separators (",", ":") when compact, plus a newline.

    Both forms are byte-identical to the stdlib's, for list documents and for
    the array documents of the private builders alike (see _write).
    """
    out = []
    _write(doc, out.append, compact)
    return "".join(out)

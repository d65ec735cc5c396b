"""Seeded inputs and the round of operations each workload repeats.

A workload is a fixed list of operations (a round).  Every run repeats whole
rounds, so the mix of sizes, and the share of operations that fail, is the
same in every run whatever its length.  Inputs are drawn from the seed; the
rank-deficient SVD inputs that fail today are fixed and do not depend on it.

In the in-process mixes the multiplicities put the median and the 90th
percentile of the operation times in the middle of one kind of operation,
not on the edge between two kinds, where they would jump with noise.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

import checks

# (label, n, clustered, count per round).  Half the inputs (20 of 40) have
# distinct eigenvalues.  Sorted by time, the median falls in the middle of
# herm-distinct-64 and the 90th percentile in the middle of herm-distinct-128.
HERM_MIX = [
    ("herm-distinct-32", 32, False, 7), ("herm-clustered-32", 32, True, 4),
    ("herm-distinct-64", 64, False, 8), ("herm-clustered-64", 64, True, 5),
    ("herm-distinct-128", 128, False, 4), ("herm-clustered-128", 128, True, 10),
    ("herm-distinct-256", 256, False, 1), ("herm-clustered-256", 256, True, 1),
]
# (label, m, n, rank or None for full rank, count per round).  The median
# falls in svd-rank48-64x64, the 90th percentile in svd-wide-96x128.
SVD_MIX = [
    ("svd-square-32", 32, 32, None, 6),
    ("svd-tall-64x48", 64, 48, None, 2), ("svd-wide-48x64", 48, 64, None, 2),
    ("svd-rank48-64x64", 64, 64, 48, 10),
    ("svd-tall-96x64", 96, 64, None, 2), ("svd-wide-64x96", 64, 96, None, 2),
    ("svd-tall-128x96", 128, 96, None, 2), ("svd-wide-96x128", 96, 128, None, 2),
    ("svd-square-128", 128, 128, None, 2),
]
# Rank-32 standard parts at this scale make dc_svd raise AccuracyError
# (youla_skew's unitarity check on the Gram matrix's null cluster).  They are
# kept, fixed, as operations that fail until the fault is mended.
SVD_FAILING = [("svd-rank32-96x64", 96, 64, 32, 4.0, 9101),
               ("svd-rank32-64x96", 64, 96, 32, 4.0, 9102),
               ("svd-rank32-96x64", 96, 64, 32, 4.0, 9103),
               ("svd-rank32-64x96", 64, 96, 32, 4.0, 9104)]
# (label, routine, n, count per round); "planted" runs dual_right_eigs on a
# planted Hermitian matrix, the others run on generic non-Hermitian input.
# The median falls among the n=16 calls, the 90th percentile among n=48.
EIG_MIX = [
    ("planted-32", "planted", 32, 6), ("planted-48", "planted", 48, 6),
    ("complex-16", "complex", 16, 3), ("dual-16", "dual", 16, 3),
    ("complex-32", "complex", 32, 3), ("dual-32", "dual", 32, 3),
    ("complex-48", "complex", 48, 3), ("dual-48", "dual", 48, 3),
]
# (label, dctool command, input kind, shape, count per round): spectral jobs
# take planted Hermitian input, the others general input.  Every job is
# followed by `verify` of its own output.  About one of each keeps the round
# short, so each job is repeated often enough in a run.  The second svd-48x32
# job puts the median in the middle of its calls, not on the edge between two
# kinds of operation; the 90th percentile falls among the svd-64x96 calls.
CLI_MIX = [
    ("spectral-32", "spectral", "distinct", (32, 32), 1),
    ("spectral-64", "spectral", "clustered", (64, 64), 1),
    ("spectral-128", "spectral", "distinct", (128, 128), 1),
    ("svd-48x32", "svd", "general", (48, 32), 2),
    ("svd-64x96", "svd", "general", (64, 96), 1),
    ("eig-32", "eig", "general", (32, 32), 1),
]

WORKLOADS = ("herm-spectral", "svd", "eig-general", "cli-roundtrip")


def cgauss(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


def dual_unitary(rng, n):
    """W + W S eps*j with W unitary and S complex symmetric is dual unitary."""
    w, _ = np.linalg.qr(cgauss(rng, n, n))
    s = cgauss(rng, n, n) / np.sqrt(n)
    return w, w @ ((s + s.T) / 2)


def planted_hermitian(rng, n, clustered):
    """A = U Sigma U* with a known block spectrum.

    Distinct: n Eigen blocks at separated levels.  Clustered: n/8 levels,
    each holding one Sub block (lam, mu) and six Eigen blocks at the same
    lam, so a quarter of the dimension is in Sub blocks.  Returns the matrix
    and the planted levels [(lam, n_eigen, [|mu|])], descending in lam.
    """
    size, n_eigen, n_sub = (8, 6, 1) if clustered else (1, 1, 0)
    n_levels = n // size
    step = 2.0 / n_levels
    lams = np.linspace(1.0, -1.0 + step, n_levels) + rng.uniform(-0.2, 0.2, n_levels) * step
    st = np.zeros((n, n), dtype=complex)
    inf = np.zeros((n, n), dtype=complex)
    levels = []
    for i, lam in enumerate(lams):
        off = i * size
        st[off:off + size, off:off + size] = lam * np.eye(size)
        mus = []
        for k in range(n_sub):
            mu = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            inf[off + 2 * k, off + 2 * k + 1] = mu
            inf[off + 2 * k + 1, off + 2 * k] = -mu
            mus.append(abs(mu))
        levels.append((float(lam), n_eigen, sorted(mus, reverse=True)))
    u = dual_unitary(rng, n)
    a_st, a_inf = checks.dmul(checks.dmul(u, (st, inf)), checks.dct(u))
    a = ((a_st + a_st.conj().T) / 2, (a_inf - a_inf.T) / 2)
    return a, levels


def low_rank(rng, m, n, rank, scale):
    g = cgauss(rng, m, rank) @ cgauss(rng, rank, n)
    return g * (scale / np.sqrt(rank)), cgauss(rng, m, n)


def _rng(seed, *tag):
    return np.random.default_rng([seed, *tag])


class Op:
    """One operation of a round: `call` is timed, the rest is not."""

    def __init__(self, label, call, check, fingerprint, prepare=None, io=None):
        self.label = label
        self.call = call
        self.check = check
        self.fingerprint = fingerprint
        self.prepare = prepare
        # dctool jobs: call returns the exit code, a repeated job must write
        # the same bytes, and io() gives the bytes the job read and wrote
        self.io = io
        self.must_repeat = io is not None


def _fingerprint(view):
    """Digest of a result view: arrays by their bytes, the rest by repr."""
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        else:
            h.update(repr(x).encode())

    feed(view)
    return h.digest()


def _pair(m):
    return (m.standard, m.infinitesimal)


def spectral_view(dec):
    return _pair(dec.U), [(b.kind, b.lam, b.mu) for b in dec.blocks]


def svd_view(res):
    return (_pair(res.U), _pair(res.V), [(b.sigma, b.nu) for b in res.standard_blocks],
            list(res.infinitesimal_values), res.standard_rank, res.infinitesimal_rank)


def eig_view(pairs):
    return [(p.value.standard, p.value.infinitesimal,
             p.vector.standard[:, 0], p.vector.infinitesimal[:, 0]) for p in pairs]


def build(name, seed, lib, workdir):
    """The round of operations of workload `name` for `seed`, bound to `lib`."""
    if name == "herm-spectral":
        return _build_herm(seed, lib)
    if name == "svd":
        return _build_svd(seed, lib)
    if name == "eig-general":
        return _build_eig(seed, lib)
    if name == "cli-roundtrip":
        return _build_cli(seed, lib, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _dc(lib, a):
    return lib.DCMatrix(a[0], a[1])


def _build_herm(seed, lib):
    ops = []
    for t, (label, n, clustered, count) in enumerate(HERM_MIX):
        for i in range(count):
            a, levels = planted_hermitian(_rng(seed, 1, t, i), n, clustered)
            m = _dc(lib, a)
            ops.append(Op(
                label,
                lambda m=m: lib.spectral.herm_spectral(m),
                lambda dec, a=a, levels=levels: checks.check_spectral(a, *spectral_view(dec), levels),
                lambda dec: _fingerprint(spectral_view(dec))))
    return ops


def _svd_op(lib, label, a, rank):
    return Op(label,
              lambda m=_dc(lib, a): lib.svd.dc_svd(m),
              lambda res: checks.check_svd(a, *svd_view(res), rank),
              lambda res: _fingerprint(svd_view(res)))


def _build_svd(seed, lib):
    ops = []
    for t, (label, m, n, rank, count) in enumerate(SVD_MIX):
        for i in range(count):
            rng = _rng(seed, 2, t, i)
            if rank is None:
                a = (cgauss(rng, m, n), cgauss(rng, m, n))
            else:
                a = low_rank(rng, m, n, rank, 1.0)
            ops.append(_svd_op(lib, label, a, min(m, n) if rank is None else rank))
    for label, m, n, rank, scale, fixed_seed in SVD_FAILING:
        ops.append(_svd_op(lib, label, low_rank(np.random.default_rng(fixed_seed), m, n, rank,
                                                scale * np.sqrt(rank)), rank))
    return ops


def _build_eig(seed, lib):
    ops = []
    for t, (label, routine, n, count) in enumerate(EIG_MIX):
        for i in range(count):
            rng = _rng(seed, 3, t, i)
            if routine == "planted":
                a, levels = planted_hermitian(rng, n, True)
                real = [lam for lam, ne, _ in levels for _ in range(ne)]
                expected = len(real)
            else:
                a = (cgauss(rng, n, n), cgauss(rng, n, n))
                real, expected = None, n
            fn = "complex_right_eigs" if routine == "complex" else "dual_right_eigs"
            eigvals = functools.cache(functools.partial(np.linalg.eigvals, a[0]))
            ops.append(Op(
                label,
                lambda fn=fn, m=_dc(lib, a): getattr(lib.eig, fn)(m),
                lambda pairs, a=a, ev=eigvals, e=expected, real=real:
                    checks.check_eigenpairs(a, eig_view(pairs), e, ev(), real),
                lambda pairs: _fingerprint(eig_view(pairs))))
    return ops


# ---------------------------------------------------------------- cli

def _encode_part(x):
    return np.stack([x.real, x.imag], axis=-1).tolist()


def _decode_part(obj):
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _decode_matrix(doc):
    return _decode_part(doc["standard"]), _decode_part(doc["infinitesimal"])


def _write_matrix(path, a):
    doc = {"rows": a[0].shape[0], "cols": a[0].shape[1],
           "standard": _encode_part(a[0]), "infinitesimal": _encode_part(a[1])}
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def check_spectral_doc(doc, a, levels):
    blocks = [(b["kind"], b["lambda"], complex(*b["mu"]) if b["kind"] == "Sub" else None)
              for b in doc["blocks"]]
    return checks.check_spectral(a, _decode_matrix(doc["U"]), blocks, levels)


def _check_svd_doc(doc, a, rank):
    sig = [(b["sigma"], complex(*b["nu"]) if "nu" in b else None) for b in doc["standard_blocks"]]
    return checks.check_svd(a, _decode_matrix(doc["U"]), _decode_matrix(doc["V"]), sig,
                            doc["infinitesimal_values"], doc["r"], doc["p"], rank)


def _doc_pairs(raw):
    out = []
    for p in raw:
        (vr, vi), (wr, wi) = p["value"]
        x = _decode_matrix(p["vector"])
        out.append((complex(vr, vi), complex(wr, wi), x[0][:, 0], x[1][:, 0]))
    return out


def _check_eig_doc(doc, a):
    n = a[0].shape[0]
    eigvals = np.linalg.eigvals(a[0])
    ok1, w1, r1 = checks.check_eigenpairs(a, _doc_pairs(doc["pairs"]), n, eigvals)
    ok2, w2, r2 = checks.check_eigenpairs(a, _doc_pairs(doc["complex_pairs"]), n, eigvals)
    return ok1 and ok2, max(w1, w2), "; ".join(r for r in (r1, r2) if r)


def _check_verify_doc(doc):
    ok = doc.get("type") == "verify" and doc.get("ok") is True
    return ok, 0.0, "" if ok else f"verify reported {doc!r}"


def _file_op(lib, label, argv, in_path, out_path, check_doc, result):
    def prepare():
        if out_path.exists():
            out_path.unlink()

    def fingerprint(code):
        return hashlib.blake2b(out_path.read_bytes(), digest_size=16).digest()

    def io():
        written = out_path.stat().st_size
        return {"read": in_path.stat().st_size, "written": written,
                "result_written": written if result else 0}

    return Op(label, lambda: lib.cli.main(argv), lambda code: check_doc(_read_json(out_path)),
              fingerprint, prepare, io)


def _build_cli(seed, lib, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for t, (label, command, kind, (m, n), count) in enumerate(CLI_MIX):
        for i in range(count):
            rng = _rng(seed, 4, t, i)
            if command == "spectral":
                a, levels = planted_hermitian(rng, m, kind == "clustered")
                check_doc = lambda doc, a=a, levels=levels: check_spectral_doc(doc, a, levels)
            elif command == "svd":
                a = (cgauss(rng, m, n), cgauss(rng, m, n))
                check_doc = lambda doc, a=a, r=min(m, n): _check_svd_doc(doc, a, r)
            else:
                a = (cgauss(rng, m, n), cgauss(rng, m, n))
                check_doc = lambda doc, a=a: _check_eig_doc(doc, a)
            stem = f"{label}-{i}"
            src = workdir / f"{stem}.json"
            out = workdir / f"{stem}.{command}.json"
            ver = workdir / f"{stem}.verify.json"
            _write_matrix(src, a)
            ops.append(_file_op(lib, label, [command, "--input", str(src), "--output", str(out)],
                                src, out, check_doc, True))
            ops.append(_file_op(lib, f"{label}-verify",
                                ["verify", "--input", str(out), "--output", str(ver)],
                                out, ver, _check_verify_doc, False))
    return ops

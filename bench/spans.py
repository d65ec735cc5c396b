"""Spans recorded around dclinalg's public functions, from outside the package.

`Tracer.install` replaces each traced function, in every dclinalg module that
holds a reference to it, by a wrapper that records a span (name, start, end,
parent, op id).  Spans stay in memory and are written once the run is over.
numpy.linalg.svd and numpy.linalg.lstsq are counted, not timed, when the
innermost open span belongs to the eig layer.  A function the package no
longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# (span name, module, function); the span name is "<layer>.<function>".
TRACED = [
    ("spectral.herm_spectral", "dclinalg.spectral", "herm_spectral"),
    ("spectral.youla_skew", "dclinalg.spectral", "youla_skew"),
    ("spectral.verify_spectral", "dclinalg.spectral", "verify_spectral"),
    ("svd.dc_svd", "dclinalg.svd", "dc_svd"),
    ("svd.verify_svd", "dclinalg.svd", "verify_svd"),
    ("eig.complex_right_eigs", "dclinalg.eig", "complex_right_eigs"),
    ("eig.dual_right_eigs", "dclinalg.eig", "dual_right_eigs"),
    ("eig.verify_eigenpair", "dclinalg.eig", "verify_eigenpair"),
    ("matrix.mat_mul", "dclinalg.matrix", "mat_mul"),
    ("matrix.mat_inv", "dclinalg.matrix", "mat_inv"),
    ("matrix.is_hermitian", "dclinalg.matrix", "is_hermitian"),
    ("jsonio.decode_matrix", "dclinalg.jsonio", "decode_matrix"),
    ("jsonio.decode_spectral", "dclinalg.jsonio", "decode_spectral"),
    ("jsonio.decode_svd", "dclinalg.jsonio", "decode_svd"),
    ("jsonio.decode_eig_result", "dclinalg.jsonio", "decode_eig_result"),
    ("jsonio.encode_spectral", "dclinalg.jsonio", "encode_spectral"),
    ("jsonio.encode_svd", "dclinalg.jsonio", "encode_svd"),
    ("jsonio.encode_eig_result", "dclinalg.jsonio", "encode_eig_result"),
    ("cli.main", "dclinalg.cli", "main"),
]
# First arguments kept for the LAPACK floor of each decomposition.
FLOOR_ARGS = ("spectral.herm_spectral", "svd.dc_svd", "eig.complex_right_eigs",
              "eig.dual_right_eigs")
EIG_SPANS = ("eig.complex_right_eigs", "eig.dual_right_eigs")
COMPUTE_SPANS = ("spectral.herm_spectral", "svd.dc_svd", "eig.complex_right_eigs",
                 "eig.dual_right_eigs", "spectral.verify_spectral", "svd.verify_svd",
                 "eig.verify_eigenpair")

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.record_args = False
        self.args = {name: [] for name in FLOOR_ARGS}
        self.clusters = 0
        self.np_counts = {"svd": 0, "lstsq": 0}
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        keep = self.args.get(name)
        count_clusters = name == "spectral.herm_spectral"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if keep is not None and self.record_args and not self._inside(name):
                keep.append(args[0])
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count_clusters:
                lams = [b.lam for b in out.blocks]
                self.clusters += sum(1 for i, lam in enumerate(lams) if i == 0 or lam != lams[i - 1])
            return out

        return traced

    def _inside(self, name):
        return any(self.spans[i][NAME] == name for i in self.stack)

    def _count_np(self, key, fn):
        def counted(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][NAME] in EIG_SPANS:
                self.np_counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "dclinalg" or k.startswith("dclinalg."))]
        for name, module, attr in TRACED:
            orig = getattr(sys.modules.get(module), attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for key in ("svd", "lstsq"):
            orig = getattr(np.linalg, key)
            setattr(np.linalg, key, self._count_np(key, orig))
            self._undo.append((np.linalg, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self, attempted, cli_bytes, floors):
        """Per-layer metrics: per operation attempted, unless a ratio or a rate."""
        spans = self.spans
        names = [s[NAME] for s in spans]
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        above = []  # names of each span's ancestors
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                child[p] += dur[i]
                above.append(above[p] | {names[p]})
            else:
                above.append(frozenset())

        def select(wanted, parent=None, outermost=True, under=None):
            for i, nm in enumerate(names):
                if nm not in wanted or (outermost and not above[i].isdisjoint(wanted)):
                    continue
                p = spans[i][PARENT]
                if parent is not None and (p < 0 or names[p] not in parent):
                    continue
                if under is not None and under not in above[i]:
                    continue
                yield i

        def busy(wanted, **kw):
            return sum(dur[i] for i in select(wanted, **kw))

        def own(wanted):
            return sum(dur[i] - child[i] for i in select(wanted, outermost=False))

        def calls(wanted, **kw):
            return sum(1 for _ in select(wanted, **kw))

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        def mean(wanted):
            return ratio(busy(wanted), calls(wanted))

        herm, svd, eig = {"spectral.herm_spectral"}, {"svd.dc_svd"}, set(EIG_SPANS)
        youla, mat_mul = {"spectral.youla_skew"}, {"matrix.mat_mul"}
        enc = {n for n in set(names) if n.startswith("jsonio.encode")}
        dec = {n for n in set(names) if n.startswith("jsonio.decode")}
        main = {"cli.main"}
        enc_s, dec_s = busy(enc), busy(dec)
        per_op = 1.0 / attempted
        return {
            "spectral.herm_spectral.s": busy(herm) * per_op,
            "spectral.herm_spectral.self_s": own(herm) * per_op,
            "spectral.youla_skew.s": busy(youla) * per_op,
            "spectral.youla_skew.calls": calls(youla) * per_op,
            "spectral.clusters": self.clusters * per_op,
            "spectral.eigh_ratio": ratio(mean(herm), floors["eigh"]),
            "svd.dc_svd.s": busy(svd) * per_op,
            "svd.dc_svd.self_s": own(svd) * per_op,
            "svd.herm_spectral.s": busy(herm, parent=svd) * per_op,
            "svd.mat_inv.s": busy({"matrix.mat_inv"}, parent=svd) * per_op,
            "svd.svd_ratio": ratio(mean(svd), floors["svd"]),
            "eig.complex_right_eigs.s": busy({"eig.complex_right_eigs"}) * per_op,
            "eig.dual_right_eigs.s": busy({"eig.dual_right_eigs"}) * per_op,
            "eig.np_svd_calls": self.np_counts["svd"] * per_op,
            "eig.lstsq_calls": self.np_counts["lstsq"] * per_op,
            "eig.eig_ratio": ratio(mean(eig), floors["eig"]),
            "matrix.mat_mul.s": busy(mat_mul) * per_op,
            "matrix.mat_mul.calls": calls(mat_mul) * per_op,
            "matrix.is_hermitian.s": busy({"matrix.is_hermitian"}) * per_op,
            "jsonio.encode.s": enc_s * per_op,
            "jsonio.decode.s": dec_s * per_op,
            "jsonio.encode_MBps": ratio(cli_bytes["result_written"] / 1e6, enc_s),
            "jsonio.decode_MBps": ratio(cli_bytes["read"] / 1e6, dec_s),
            "cli.main.self_s": own(main) * per_op,
            "cli.bytes_read": cli_bytes["read"] * per_op,
            "cli.bytes_written": cli_bytes["written"] * per_op,
            "cli.compute_share": ratio(busy(set(COMPUTE_SPANS), under="cli.main"), busy(main)),
        }

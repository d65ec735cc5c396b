"""Self-test of checks.py: correct factors pass, damaged ones are flagged.

Each case decomposes a small seeded input with dclinalg, confirms that the
check accepts the result, then damages it (one perturbed entry of a factor,
a dropped Sub block, a lost eigenpair, one changed number in a result
document) and confirms that the check rejects it.  run.py runs this after
every measurement; it also runs alone:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

import checks
import workloads

PERTURB = 1e-6


def _bump(pair, i=1, j=2):
    st = pair[0].copy()
    st[i, j] += PERTURB
    return st, pair[1]


def _cases(lib):
    rng = np.random.default_rng(20211005)

    a, levels = workloads.planted_hermitian(rng, 16, True)
    u, blocks = workloads.spectral_view(lib.herm_spectral(lib.DCMatrix(*a)))
    k = next(i for i, b in enumerate(blocks) if b[0] == "Sub")
    dropped = blocks[:k] + [("Eigen", blocks[k][1], None)] * 2 + blocks[k + 1:]
    yield "spectral", checks.check_spectral(a, u, blocks, levels), [
        ("perturbed U", checks.check_spectral(a, _bump(u), blocks, levels)),
        ("dropped Sub block", checks.check_spectral(a, u, dropped, levels)),
    ]

    a = (workloads.cgauss(rng, 12, 8), workloads.cgauss(rng, 12, 8))
    u, v, sig, d, r, p = workloads.svd_view(lib.dc_svd(lib.DCMatrix(*a)))
    yield "svd", checks.check_svd(a, u, v, sig, d, r, p, 8), [
        ("perturbed U", checks.check_svd(a, _bump(u), v, sig, d, r, p, 8)),
        ("perturbed V", checks.check_svd(a, u, _bump(v), sig, d, r, p, 8)),
        ("wrong rank", checks.check_svd(a, u, v, sig, d, r, p, 7)),
    ]

    a = (workloads.cgauss(rng, 8, 8), workloads.cgauss(rng, 8, 8))
    vals = np.linalg.eigvals(a[0])
    pairs = workloads.eig_view(lib.complex_right_eigs(lib.DCMatrix(*a)))
    lam, lam_i, x, x_i = pairs[0]
    x_i = x_i.copy()
    x_i[3] += PERTURB
    yield "eig", checks.check_eigenpairs(a, pairs, 8, vals), [
        ("perturbed x_I", checks.check_eigenpairs(a, [(lam, lam_i, x, x_i)] + pairs[1:], 8, vals)),
        ("lost pair", checks.check_eigenpairs(a, pairs[1:], 8, vals)),
    ]

    a, levels = workloads.planted_hermitian(rng, 8, True)
    m = lib.DCMatrix(*a)
    doc = lib.jsonio.encode_spectral(m, lib.herm_spectral(m))
    bad = copy.deepcopy(doc)
    bad["U"]["infinitesimal"][2][5][0] += PERTURB
    yield "spectral document", workloads.check_spectral_doc(doc, a, levels), [
        ("perturbed number", workloads.check_spectral_doc(bad, a, levels)),
    ]


def run(lib):
    """(ok, [problems]) for all cases."""
    problems = []
    try:
        for name, clean, damaged in _cases(lib):
            if not clean[0]:
                problems.append(f"self-test {name}: correct result rejected: {clean[2]}")
            for what, verdict in damaged:
                if verdict[0]:
                    problems.append(f"self-test {name}: {what} not flagged")
    except Exception as exc:  # the package failing is a failed self-test
        problems.append(f"self-test raised {type(exc).__name__}: {exc}")
    return not problems, problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import dclinalg
    import dclinalg.jsonio

    ok, problems = run(dclinalg)
    for line in problems:
        print(line)
    print("self-test passed" if ok else "self-test FAILED")
    sys.exit(0 if ok else 1)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own report.
"""

import json
import time

import numpy as np

import oracle
from conftest import FIXTURES, cgauss, rand_dc, rand_dcmatrix
from dclinalg import (
    EPS_J,
    DCMatrix,
    DualComplex,
    SpectralBlock,
    assemble_blocks,
    classify_multiplicity,
    complex_right_eigs,
    conj_transpose,
    dc_abs,
    dc_inv,
    dc_mul,
    dc_svd,
    double_eig_classify,
    dual_right_eigs,
    from_scalars,
    gen_random,
    herm_spectral,
    inner,
    is_pd,
    is_unitary,
    mat_mul,
    simple_eig_lift,
    verify_eigenpair,
    verify_svd,
)
from dclinalg.cli import main as dctool_main

EX1 = DCMatrix(np.eye(2), np.eye(2))
EX2 = from_scalars([[1, EPS_J], [-EPS_J, 1]])


def _report(num, name, budget_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"[acceptance] criterion {num} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_first_worked_example():
    def body():
        assert complex_right_eigs(EX1) == []
        e = np.ones((2, 1))
        x = DCMatrix(e + 1j * e)
        rs, ri = verify_eigenpair(EX1, DualComplex(1, -1j), x)
        assert rs <= 1e-14 and ri <= 1e-14

    _report(1, "no complex right eigenvalue, dual pair verifies", 1.0, body)


def test_criterion_2_second_worked_example():
    def body():
        assert complex_right_eigs(EX2) == []
        dec = herm_spectral(EX2)
        assert len(dec.blocks) == 1
        blk = dec.blocks[0]
        assert blk.kind == "Sub"
        assert abs(blk.lam - 1.0) <= 1e-12
        assert abs(abs(blk.mu) - 1.0) <= 1e-12
        assert is_pd(EX2)

    _report(2, "single subeigenvalue block, positive definite", 1.0, body)


def test_criterion_3_scalar_oracle_suite():
    def body():
        rng = np.random.default_rng(2024)
        n_cases = 10_000
        coords = rng.standard_normal((n_cases, 3, 4))

        def close(p, q):
            cp, cq = oracle.coords(p), oracle.coords(q)
            scale = max(1.0, float(np.max(np.abs(cq))))
            return float(np.max(np.abs(cp - cq))) <= 1e-13 * scale

        for row in coords:
            p = DualComplex.from_reals(*row[0])
            q = DualComplex.from_reals(*row[1])
            r = DualComplex.from_reals(*row[2])
            assert close(dc_mul(p, q), oracle.mul(p, q))
            assert close(p.conjugate(), oracle.conj(p))
            if p.is_appreciable(1e-8):
                assert close(dc_inv(p), oracle.inv(p))
            # algebra laws
            assert close(dc_mul(dc_mul(p, q), r), dc_mul(p, dc_mul(q, r)))
            assert close(dc_mul(p, q + r), dc_mul(p, q) + dc_mul(p, r))
            assert close(dc_mul(q + r, p), dc_mul(q, p) + dc_mul(r, p))
            assert abs(dc_abs(dc_mul(p, q)) - dc_abs(p) * dc_abs(q)) \
                <= 1e-13 * max(1.0, dc_abs(p) * dc_abs(q))
            assert close(dc_mul(p, q).conjugate(), dc_mul(q.conjugate(), p.conjugate()))
            nil = DualComplex(0, p.infinitesimal)
            assert dc_mul(nil, nil) == DualComplex(0)

    _report(3, "10^4 scalars against the regular representation", 5.0, body)


def test_criterion_4_counting_theorem():
    def body():
        for k in range(200):
            n = 2 + k % 11
            a = gen_random("hermitian", n, n, 40_000 + k)
            dec = herm_spectral(a)
            assert sum(b.dim for b in dec.blocks) == n
            lams = sorted(b.lam for b in dec.blocks for _ in range(b.dim))
            np.testing.assert_allclose(lams, np.linalg.eigh(a.standard)[0], atol=1e-8)
            assert dec.residual[0] <= 1e-9 and dec.residual[1] <= 1e-9

    _report(4, "200 Hermitian matrices have exactly n blocks", 30.0, body)


def test_criterion_5_planted_model_recovery():
    def body():
        rng = np.random.default_rng(55)
        for seed in range(100):
            lam_a = float(rng.uniform(2.0, 4.0))
            lam_b = lam_a - float(rng.uniform(1.0, 2.0))
            lam_c = lam_b - float(rng.uniform(1.0, 2.0))
            mu_a = float(rng.uniform(0.3, 2.0)) * np.exp(2j * np.pi * rng.uniform())
            mu_b = float(rng.uniform(0.3, 2.0)) * np.exp(2j * np.pi * rng.uniform())
            blocks = (SpectralBlock("Eigen", lam_a), SpectralBlock("Eigen", lam_a),
                      SpectralBlock("Sub", lam_a, complex(mu_a)),
                      SpectralBlock("Sub", lam_b, complex(mu_b)),
                      SpectralBlock("Eigen", lam_c))
            u = gen_random("unitary", 7, 7, 50_000 + seed)
            a = mat_mul(mat_mul(u, assemble_blocks(blocks)), conj_transpose(u))
            dec = herm_spectral(a)
            got = [(b.kind, b.lam, b.mu) for b in dec.blocks]
            assert [g[0] for g in got] == ["Eigen", "Eigen", "Sub", "Sub", "Eigen"]
            np.testing.assert_allclose([g[1] for g in got],
                                       [lam_a, lam_a, lam_a, lam_b, lam_c], atol=1e-8)
            assert abs(abs(got[2][2]) - abs(mu_a)) <= 1e-8
            assert abs(abs(got[3][2]) - abs(mu_b)) <= 1e-8
            assert classify_multiplicity(dec, lam_a) == (4, 1)
            assert classify_multiplicity(dec, lam_b) == (2, 1)
            assert classify_multiplicity(dec, lam_c) == (1, 0)

    _report(5, "planted (4,1) and (2,1) clusters recovered over 100 seeds", 30.0, body)


def test_criterion_6_double_eigenvalue_basis_invariance():
    def body():
        rng = np.random.default_rng(66)
        for case in range(50):
            n = 5
            w, _ = np.linalg.qr(cgauss(rng, n, n))
            diag = [1.0, 1.0, -0.7, 0.4, 2.3]
            a_st = w @ np.diag(diag) @ w.conj().T
            a_st = (a_st + a_st.conj().T) / 2
            if case % 2 == 0:
                k = cgauss(rng, n, n)
                a_inf = (k - k.T) / 2  # generic: expect a DoubleSub verdict
            else:
                u, v = w[:, 2], w[:, 3]  # coupling avoids the eigenspace: DoubleEigen
                a_inf = np.outer(u, v) - np.outer(v, u)
            a = DCMatrix(a_st, a_inf)
            base = double_eig_classify(a, w[:, 0], w[:, 1])
            mus = [abs(base.mu)]
            for _ in range(20):
                z, _ = np.linalg.qr(cgauss(rng, 2, 2))
                xy = w[:, :2] @ z
                res = double_eig_classify(a, xy[:, 0], xy[:, 1])
                assert res.kind == base.kind
                mus.append(abs(res.mu))
            assert max(mus) - min(mus) <= 1e-10
            if case % 2 == 1:
                assert base.kind == "DoubleEigen"

    _report(6, "verdict and |mu| invariant under 20 re-bases, 50 matrices", 30.0, body)


def test_criterion_7_svd_theorem():
    def body():
        for k in range(200):
            rng = np.random.default_rng(70_000 + k)
            m = 2 + (3 * k) % 11
            n = 2 + (5 * k) % 11
            style = k % 4
            if style == 0:
                a = rand_dcmatrix(rng, m, n)
            elif style == 1:
                inner_dim = max(1, min(m, n) - 2)  # rank deficient
                a = DCMatrix(cgauss(rng, m, inner_dim) @ cgauss(rng, inner_dim, n),
                             cgauss(rng, m, n))
            elif style == 2:
                st = cgauss(rng, m, n)  # with pure-infinitesimal columns
                st[:, : max(1, n // 3)] = 0
                a = DCMatrix(st, cgauss(rng, m, n))
            else:
                a = DCMatrix(cgauss(rng, m, n))
            res = dc_svd(a)
            assert is_unitary(res.U) and is_unitary(res.V)
            vs, vi = verify_svd(a, res)
            assert vs <= 1e-9 and vi <= 1e-9
            sv = np.linalg.svd(a.standard, compute_uv=False)
            sigmas = [b.sigma for b in res.standard_blocks for _ in range(b.dim)]
            np.testing.assert_allclose(sigmas, sv[:res.standard_rank], atol=1e-10)
            assert res.standard_rank + res.infinitesimal_rank <= min(m, n)
            # invariance under dual complex unitary factors
            w1 = gen_random("unitary", m, m, 90_000 + k)
            w2 = gen_random("unitary", n, n, 95_000 + k)
            res2 = dc_svd(mat_mul(mat_mul(w1, a), w2))
            sig2 = [b.sigma for b in res2.standard_blocks for _ in range(b.dim)]
            np.testing.assert_allclose(sorted(sigmas, reverse=True),
                                       sorted(sig2, reverse=True), atol=1e-9)
            np.testing.assert_allclose(sorted(res.infinitesimal_values, reverse=True),
                                       sorted(res2.infinitesimal_values, reverse=True),
                                       atol=1e-9)
            assert (res.standard_rank, res.infinitesimal_rank) == \
                (res2.standard_rank, res2.infinitesimal_rank)

    _report(7, "200 SVDs: layout, unitarity, values, invariance", 60.0, body)


def test_criterion_8_hermitian_eigen_properties():
    def body():
        # reality, orthogonality across distinct values, simple-eigenvalue lifts
        for case in range(100):
            n = 2 + case % 7
            a = gen_random("hermitian", n, n, 80_000 + case)
            pairs = dual_right_eigs(a)
            assert len(pairs) == n  # generic spectra are simple
            for p in pairs:
                assert abs(p.value.standard.imag) <= 1e-10
                assert abs(p.value.infinitesimal) <= 1e-10
            for i in range(n):
                for j in range(i + 1, n):
                    if abs(pairs[i].value.standard - pairs[j].value.standard) < 1e-6:
                        continue
                    ip = inner(pairs[i].vector, pairs[j].vector)
                    assert abs(ip.standard) <= 1e-10
                    assert abs(ip.infinitesimal) <= 1e-10
            w, v = np.linalg.eigh(a.standard)
            for idx in range(n):
                x_inf = simple_eig_lift(a, float(w[idx]), v[:, idx])
                vec = DCMatrix(v[:, idx][:, None], x_inf[:, None])
                rs, ri = verify_eigenpair(a, DualComplex(float(w[idx])), vec)
                assert max(rs, ri) <= 1e-10

        # combination closure at a double right eigenvalue
        rng = np.random.default_rng(88)
        for case in range(100):
            n = 4 + case % 3
            w, _ = np.linalg.qr(cgauss(rng, n, n))
            diag = np.concatenate([[1.0, 1.0], np.linspace(-2.0, -1.0, n - 2)])
            a_st = w @ np.diag(diag) @ w.conj().T
            u, v = w[:, 2], w[:, 3]
            a_inf = np.outer(u, v) - np.outer(v, u)
            a = DCMatrix((a_st + a_st.conj().T) / 2, a_inf)
            pairs = [p for p in dual_right_eigs(a) if abs(p.value.standard - 1.0) < 1e-8]
            assert len(pairs) == 2
            al1, al2 = rand_dc(rng), rand_dc(rng)
            y = pairs[0].vector * al1 + pairs[1].vector * al2
            if np.linalg.norm(y.standard) < 1e-3:
                continue
            rs, ri = verify_eigenpair(a, DualComplex(1.0), y)
            assert max(rs, ri) <= 1e-10

    _report(8, "reality, orthogonality, lifts, combination closure", 60.0, body)


def test_criterion_9_cli_round_trip(tmp_path):
    def body():
        jobs = [("spectral", "example2.json"), ("svd", "example1.json"),
                ("svd", "example2.json"), ("svd", "zero.json"), ("eig", "example1.json")]
        for command, fixture in jobs:
            first = tmp_path / f"{fixture}.{command}.1.json"
            second = tmp_path / f"{fixture}.{command}.2.json"
            for out in (first, second):
                code = dctool_main([command, "--input", str(FIXTURES / fixture),
                                    "--output", str(out)])
                assert code == 0, (command, fixture)
            assert first.read_bytes() == second.read_bytes()
            assert dctool_main(["verify", "--input", str(first),
                                "--output", str(tmp_path / "verify.json")]) == 0
        # generation under a fixed seed is byte-identical as well
        g1, g2 = tmp_path / "g1.json", tmp_path / "g2.json"
        for out in (g1, g2):
            assert dctool_main(["gen", "--kind", "hermitian", "--m", "6",
                                "--seed", "17", "--output", str(out)]) == 0
        assert g1.read_bytes() == g2.read_bytes()
        spec_out = tmp_path / "gen.spectral.json"
        assert dctool_main(["spectral", "--input", str(g1),
                            "--output", str(spec_out)]) == 0
        assert dctool_main(["verify", "--input", str(spec_out),
                            "--output", str(tmp_path / "verify.json")]) == 0
        doc = json.loads(spec_out.read_text())
        assert doc["residual"][0] <= 1e-9 and doc["residual"][1] <= 1e-9

    _report(9, "CLI decompose/verify round trips, byte identical", 30.0, body)

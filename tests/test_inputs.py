"""Inputs at the edges of the domain: the empty matrix and non-finite entries."""

import json
import warnings

import numpy as np
import pytest

from dclinalg import (
    AccuracyError,
    DCMatrix,
    Inconsistent,
    NonFinite,
    complex_right_eigs,
    dc_svd,
    double_eig_classify,
    dual_right_eigs,
    gen_random,
    herm_spectral,
    is_hermitian,
    is_pd,
    is_psd,
    is_unitary,
    jsonio,
    mat_inv,
    simple_eig_lift,
    standard_rank,
)
from dclinalg.cli import main


def test_empty_matrix_decomposes_without_warnings():
    a = DCMatrix(np.zeros((0, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = herm_spectral(a)
        res = dc_svd(a)
        dual = dual_right_eigs(a)
        cplx = complex_right_eigs(a)
    assert dec.blocks == () and dec.U.shape == (0, 0) and dec.residual == (0.0, 0.0)
    assert res.U.shape == (0, 0) and res.V.shape == (0, 0)
    assert res.standard_blocks == () and res.infinitesimal_values == ()
    assert res.standard_rank == 0 and res.infinitesimal_rank == 0
    assert dual == [] and cplx == []


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_svd_of_an_empty_side_without_warnings(shape):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = dc_svd(DCMatrix(np.zeros(shape)))
    m, n = shape
    assert res.U.shape == (m, m) and res.V.shape == (n, n)
    assert res.standard_rank == 0 and res.infinitesimal_rank == 0
    assert res.residual == (0.0, 0.0)


ROUTINES = {"herm_spectral": herm_spectral, "dc_svd": dc_svd, "dual_right_eigs": dual_right_eigs}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("part", ["standard", "infinitesimal"])
@pytest.mark.parametrize("routine", sorted(ROUTINES))
def test_non_finite_entry_is_rejected(routine, part, value):
    rng = np.random.default_rng(800)
    a = gen_random("hermitian", 5, 5, 801)
    parts = {"standard": a.standard.copy(), "infinitesimal": a.infinitesimal.copy()}
    i, j = rng.integers(0, 5, size=2)
    parts[part][i, j] = value
    with pytest.raises(NonFinite, match=part):
        ROUTINES[routine](DCMatrix(parts["standard"], parts["infinitesimal"]))


def test_non_finite_standard_only_matrix_is_rejected():
    with pytest.raises(NonFinite):
        DCMatrix(np.array([[1.0, np.inf]]))


def test_cli_maps_non_finite_to_validation_exit(tmp_path, monkeypatch, capsys):
    src = tmp_path / "a.json"
    assert main(["gen", "--kind", "hermitian", "--m", "3", "--n", "3", "--seed", "5",
                 "--output", str(src)]) == 0

    def poisoned(a, tol):
        return herm_spectral(DCMatrix(a.standard * np.nan), tol)

    monkeypatch.setattr("dclinalg.cli.herm_spectral", poisoned)
    assert main(["spectral", "--input", str(src), "--output", str(tmp_path / "o.json")]) == 2
    assert "NonFinite" in capsys.readouterr().err


NEAR_OVERFLOW = {"herm_spectral": (herm_spectral, AccuracyError),
                 "dc_svd": (dc_svd, AccuracyError),
                 "standard_rank": (standard_rank, AccuracyError),
                 "mat_inv": (mat_inv, AccuracyError),
                 "is_unitary": (is_unitary, AccuracyError),
                 "is_hermitian": (is_hermitian, AccuracyError),
                 "is_psd": (is_psd, AccuracyError),
                 "is_pd": (is_pd, AccuracyError),
                 "dual_right_eigs": (dual_right_eigs, AccuracyError),
                 "complex_right_eigs": (complex_right_eigs, AccuracyError),
                 # once A_st is scaled to nothing, e_1 and e_2 are eigenvectors for 0
                 "simple_eig_lift": (lambda a: simple_eig_lift(a, 0.0, np.eye(4)[0]),
                                     AccuracyError),
                 "double_eig_classify": (lambda a: double_eig_classify(a, *np.eye(4)[:2]),
                                         AccuracyError)}


def near_overflow(part):
    # finite entries up to 1.4e308, whose sums and norms overflow; the
    # suite turns numpy's RuntimeWarnings into errors, so none may be emitted
    h = gen_random("hermitian", 4, 4, 3)
    if part == "standard":
        return DCMatrix(h.standard * 1e308, h.infinitesimal)
    return DCMatrix(h.standard, h.infinitesimal * 1e308)


@pytest.mark.parametrize("part", ["standard", "infinitesimal"])
@pytest.mark.parametrize("routine", sorted(NEAR_OVERFLOW))
def test_near_overflow_input_is_rejected_where_it_enters(routine, part):
    fn, error = NEAR_OVERFLOW[routine]
    with pytest.raises(error, match=f"{part} part has an entry of size"):
        fn(near_overflow(part))


@pytest.mark.parametrize("command, error", [("spectral", "AccuracyError"),
                                            ("svd", "AccuracyError"),
                                            ("eig", "AccuracyError")])
def test_cli_near_overflow_input_exits_numerical_without_warnings(tmp_path, capsys,
                                                                  command, error):
    src = tmp_path / "big.json"
    src.write_text(json.dumps(jsonio.encode_matrix(near_overflow("standard"))))
    assert main([command, "--input", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"dctool: {error}: standard part has an entry of size")
    assert "Warning" not in err and "inf" not in err


# an A_st tiny against A_I: dc_svd's U_I and V_I scale as A_I / sigma and leave
# double range at the first two scalings, and the range where the residual's
# norms stay finite at the third; complex_right_eigs' least-squares solution
# for an infinitesimal vector part overflows at the first
TINY_STANDARD = [(1e-300, 1e10), (1e-200, 1e110), (1e-300, 1.0)]


def tiny_standard(st, inf):
    h = gen_random("hermitian", 4, 4, 3)
    return DCMatrix(h.standard * st, h.infinitesimal * inf)


@pytest.mark.parametrize("scale", TINY_STANDARD, ids=str)
@pytest.mark.parametrize("routine", sorted(NEAR_OVERFLOW))
def test_tiny_standard_part_emits_no_warning(routine, scale):
    a = tiny_standard(*scale)
    if routine == "dc_svd":
        with pytest.raises(AccuracyError, match="too small against A_I"):
            dc_svd(a)
    elif routine == "mat_inv":
        # the infinitesimal part of the inverse, of the size of A_I / A_st^2,
        # leaves double range
        with pytest.raises(AccuracyError, match="overflows: A_st is too small against A_I"):
            mat_inv(a)
    elif routine == "simple_eig_lift" and scale[1] > 1e308 * scale[0]:
        # x_I, of the size of A_I / A_st, leaves double range
        with pytest.raises(Inconsistent, match="no solution .* x_I overflows, A_st is too small"):
            NEAR_OVERFLOW[routine][0](a)
    elif routine == "double_eig_classify" and scale[1] > 1e308 * scale[0]:
        # x_inf and y_inf, of the size of A_I / A_st, leave double range
        with pytest.raises(AccuracyError, match="overflows: A_st is too small against A_I"):
            NEAR_OVERFLOW[routine][0](a)
    else:
        NEAR_OVERFLOW[routine][0](a)


@pytest.mark.parametrize("scale", TINY_STANDARD, ids=str)
@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)], ids=str)
def test_svd_of_tiny_general_standard_part_raises_without_warning(shape, scale):
    # on general input both of stage 2's terms overflow, tall, wide or
    # square, and their difference inf - inf must not warn
    rng = np.random.default_rng(5)
    a = DCMatrix(scale[0] * rng.standard_normal(shape), scale[1] * rng.standard_normal(shape))
    with pytest.raises(AccuracyError, match="too small against A_I"):
        dc_svd(a)


@pytest.mark.parametrize("scale", TINY_STANDARD, ids=str)
def test_cli_svd_of_tiny_standard_part_exits_numerical(tmp_path, capsys, scale):
    src = tmp_path / "tiny.json"
    src.write_text(json.dumps(jsonio.encode_matrix(tiny_standard(*scale))))
    assert main(["svd", "--input", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dctool: AccuracyError: U_I or V_I exceeds")
    assert err.count("\n") == 1

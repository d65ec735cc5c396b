"""Inputs at the edges of the domain: the empty matrix and non-finite entries."""

import warnings

import numpy as np
import pytest

from dclinalg import (
    DCMatrix,
    NonFinite,
    complex_right_eigs,
    dc_svd,
    dual_right_eigs,
    gen_random,
    herm_spectral,
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

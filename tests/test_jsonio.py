import json

import numpy as np
import pytest

from conftest import rand_dcmatrix
from dclinalg import (
    EPS_J,
    DCMatrix,
    DualComplex,
    complex_right_eigs,
    dc_svd,
    dual_right_eigs,
    from_scalars,
    gen_random,
    herm_spectral,
)
from dclinalg import jsonio


def test_scalar_round_trip():
    q = DualComplex(1.5 - 2j, 0.25 + 3j)
    assert jsonio.decode_scalar(jsonio.encode_scalar(q)) == q
    assert jsonio.encode_scalar(q) == [[1.5, -2.0], [0.25, 3.0]]


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    a = rand_dcmatrix(rng, 3, 4)
    doc = jsonio.encode_matrix(a)
    assert doc["rows"] == 3 and doc["cols"] == 4
    b = jsonio.decode_matrix(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(a.standard, b.standard)
    np.testing.assert_array_equal(a.infinitesimal, b.infinitesimal)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("rows"),
    lambda d: d.__setitem__("rows", "3"),
    lambda d: d.__setitem__("standard", [[1, 2]]),
    lambda d: d["standard"][0].__setitem__(0, [float("nan"), 0.0]),
    lambda d: d["infinitesimal"][0].__setitem__(0, [1.0]),
    lambda d: d.__setitem__("rows", True),
    lambda d: d.__setitem__("cols", True),
    lambda d: d["standard"][0].__setitem__(0, [10 ** 400, 0]),
    lambda d: d["infinitesimal"][1].__setitem__(1, [0, -10 ** 400]),
    # a column count the rows do not hold is rejected before any allocation
    lambda d: d.__setitem__("cols", 10 ** 15),
])
def test_matrix_schema_errors(mutate):
    doc = jsonio.encode_matrix(from_scalars([[1, EPS_J], [-EPS_J, 1]]))
    mutate(doc)
    with pytest.raises(jsonio.SchemaError):
        jsonio.decode_matrix(doc)


def test_spectral_document_round_trip():
    a = gen_random("hermitian", 4, 4, 5)
    dec = herm_spectral(a)
    doc = json.loads(json.dumps(jsonio.encode_spectral(a, dec)))
    assert doc["type"] == "spectral"
    a2, dec2 = jsonio.decode_spectral(doc)
    np.testing.assert_allclose(a2.standard, a.standard)
    assert dec2.blocks == dec.blocks
    np.testing.assert_allclose(dec2.U.standard, dec.U.standard)


def test_svd_document_round_trip():
    rng = np.random.default_rng(1)
    a = rand_dcmatrix(rng, 4, 3)
    res = dc_svd(a)
    doc = json.loads(json.dumps(jsonio.encode_svd(a, res)))
    assert doc["r"] == res.standard_rank and doc["p"] == res.infinitesimal_rank
    a2, res2 = jsonio.decode_svd(doc)
    assert res2.standard_blocks == res.standard_blocks
    assert res2.infinitesimal_values == res.infinitesimal_values
    np.testing.assert_allclose(res2.V.infinitesimal, res.V.infinitesimal)


@pytest.mark.parametrize("field", ["r", "p"])
def test_svd_document_rank_must_be_an_integer(field):
    a = gen_random("general", 3, 3, 4)
    doc = json.loads(json.dumps(jsonio.encode_svd(a, dc_svd(a))))
    doc[field] = True
    with pytest.raises(jsonio.SchemaError, match="r and p must be integers"):
        jsonio.decode_svd(doc)


def test_eig_document_round_trip():
    rng = np.random.default_rng(2)
    a = rand_dcmatrix(rng, 3, 3)
    doc = json.loads(json.dumps(
        jsonio.encode_eig_result(a, dual_right_eigs(a), complex_right_eigs(a))))
    a2, pairs, cpairs = jsonio.decode_eig_result(doc)
    assert len(pairs) == len(dual_right_eigs(a))
    assert len(cpairs) == len(complex_right_eigs(a))
    for p, q in zip(pairs, dual_right_eigs(a)):
        assert p.value == q.value


def test_fixture_files_match_worked_examples(fixtures_dir):
    with open(fixtures_dir / "example1.json") as fh:
        a1 = jsonio.decode_matrix(json.load(fh))
    np.testing.assert_array_equal(a1.standard, np.eye(2))
    np.testing.assert_array_equal(a1.infinitesimal, np.eye(2))
    with open(fixtures_dir / "example2.json") as fh:
        a2 = jsonio.decode_matrix(json.load(fh))
    np.testing.assert_array_equal(a2.standard, np.eye(2))
    np.testing.assert_array_equal(a2.infinitesimal, np.array([[0, 1], [-1, 0]]))
    with open(fixtures_dir / "zero.json") as fh:
        z = jsonio.decode_matrix(json.load(fh))
    assert np.all(z.standard == 0) and np.all(z.infinitesimal == 0)

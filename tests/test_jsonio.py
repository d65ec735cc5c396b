import gc
import json
import weakref

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
    right_eigs,
)
from dclinalg import cli, jsonio


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
    # entries numpy would read as numbers, or reshape, without complaint
    lambda d: d["standard"][0].__setitem__(0, [True, 0]),
    lambda d: d["standard"][1].__setitem__(0, ["1", 0]),
    lambda d: d["infinitesimal"][0].__setitem__(1, [None, 0]),
    lambda d: d["infinitesimal"][1].__setitem__(1, None),
    lambda d: d["standard"][0].__setitem__(1, [[1], [2]]),
    lambda d: d["standard"][1].__setitem__(1, [1, 2, 3]),
    lambda d: d.__setitem__("standard", [[[[1], [2]]] * 2] * 2),
    lambda d: d.__setitem__("infinitesimal", [[[1, 2, 3]] * 2] * 2),
    lambda d: d.__setitem__("standard", [[[True, False]] * 2] * 2),
])
def test_matrix_schema_errors(mutate):
    doc = jsonio.encode_matrix(from_scalars([[1, EPS_J], [-EPS_J, 1]]))
    mutate(doc)
    with pytest.raises(jsonio.SchemaError):
        jsonio.decode_matrix(doc)


def test_schema_error_names_the_first_bad_entry():
    doc = jsonio.encode_matrix(from_scalars([[1, EPS_J], [-EPS_J, 1]]))
    doc["standard"][1][0] = ["1", 0]
    doc["infinitesimal"][0][1] = [True, 0]
    with pytest.raises(jsonio.SchemaError, match=r"^standard\[1\]\[0\]: expected a number, got '1'$"):
        jsonio.decode_matrix(doc)


# integers, signed zeros and the ends of the double range
EDGE_VALUES = {"rows": 2, "cols": 2,
               "standard": [[[1, -0.0], [-0.0, 1e-300]], [[5e300, -2], [0, -5e-324]]],
               "infinitesimal": [[[0.0, 0], [-1e300, 3]], [[7, -0.0], [2.5, 1e-300]]]}


def test_matrix_round_trip_keeps_every_bit():
    # the same doubles come back, -0.0 in the imaginary part included
    doc = jsonio.encode_matrix(jsonio.decode_matrix(EDGE_VALUES))
    for key in ("standard", "infinitesimal"):
        assert np.array(doc[key]).tobytes() == np.array(EDGE_VALUES[key], dtype=float).tobytes()
        assert all(type(x) is float for row in doc[key] for entry in row for x in entry)


def _sub_block_matrix(rng) -> DCMatrix:
    # three copies of EX2's pattern: Sub blocks with lambda 1, 2, 3 and mu = d
    ex2 = from_scalars([[1, EPS_J], [-EPS_J, 1]])
    d = np.diag(rng.uniform(0.5, 2.0, 3))
    lam = np.diag([1.0, 2.0, 3.0])
    return DCMatrix(np.kron(ex2.standard, lam), np.kron(ex2.infinitesimal, d))


def _grid(part: np.ndarray) -> list:
    return np.stack([part.real, part.imag], axis=-1).tolist()


def _array_documents() -> dict:
    """(array form, list form) of seeded documents of each kind dctool writes,
    and of array documents at the edges of the writer: the array form from
    jsonio's private builder, the list form from the public encoder."""
    rng = np.random.default_rng(11)
    sub = _sub_block_matrix(rng)
    herm = gen_random("hermitian", 5, 5, 11)
    tall, wide = rand_dcmatrix(rng, 5, 3), rand_dcmatrix(rng, 3, 5)
    ex1 = DCMatrix(np.eye(2), np.eye(2))
    general = rand_dcmatrix(rng, 4, 4)

    def both(builder, encoder, *args):
        return builder(*args), encoder(*args)

    def matrix(a):
        return both(jsonio._matrix_doc, jsonio.encode_matrix, a)

    def eig(a, pairs, complex_pairs):
        return both(jsonio._eig_doc, jsonio.encode_eig_result, a, pairs, complex_pairs)

    hole = eig(ex1, dual_right_eigs(ex1), complex_right_eigs(ex1))
    for doc in hole:
        doc["pairs"][0]["warning"] = "\x00"
    # one array twice at two indent levels, and a copy of it: each is
    # written at the level where it stands
    twice = rand_dcmatrix(rng, 2, 3).standard
    copy = twice.copy()
    copy.setflags(write=False)
    inf = np.array([[complex(np.inf, 0.0), 1j]])
    return {
        "spectral_sub": both(jsonio._spectral_doc, jsonio.encode_spectral, sub, herm_spectral(sub)),
        "spectral_hermitian": both(jsonio._spectral_doc, jsonio.encode_spectral,
                                   herm, herm_spectral(herm)),
        "svd_tall": both(jsonio._svd_doc, jsonio.encode_svd, tall, dc_svd(tall)),
        "svd_wide": both(jsonio._svd_doc, jsonio.encode_svd, wide, dc_svd(wide)),
        "eig_warning": eig(ex1, dual_right_eigs(ex1), complex_right_eigs(ex1)),
        # right_eigs puts each array-pass pair of generic input in both lists
        "eig_general": eig(general, *right_eigs(general)),
        "eig_hermitian": eig(herm, *right_eigs(herm)),
        "gen_1x1": matrix(gen_random("general", 1, 1, 11)),
        "gen_decoded": matrix(jsonio.decode_matrix(EDGE_VALUES)),
        "gen_empty_cols": matrix(DCMatrix(np.zeros((2, 0)))),
        "gen_3x1": matrix(gen_random("general", 3, 1, 11)),
        "extreme_floats": matrix(DCMatrix(
            np.array([[complex(-0.0, 5e-324), complex(1.7976931348623157e308, -0.0)]]),
            np.array([[complex(-5e-324, -1.7976931348623157e308), 0j]]))),
        "warning_reads_like_a_hole": hole,
        "one_array_at_two_levels": (
            {"a": twice, "b": copy, "c": {"d": twice}, "e": [twice, copy]},
            {"a": _grid(twice), "b": _grid(copy), "c": {"d": _grid(twice)},
             "e": [_grid(twice), _grid(copy)]}),
        "array_holds_inf": ({"standard": inf}, {"standard": _grid(inf)}),
    }


def _documents() -> dict:
    """Seeded documents of each kind dctool writes, and edge cases of the writer."""
    docs = {name: lists for name, (_, lists) in _array_documents().items()}
    return docs | {
        "gen_raw": EDGE_VALUES,
        "verify": {"type": "verify", "target": "svd", "residual": [1e-16, 0.0], "ok": True},
        # grids the writer leaves to the stdlib, and grids at the edges of its own form
        "ragged_rows": {"standard": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]]},
        "three_number_entries": {"standard": [[[1.0, 2.0, 3.0]], [[4.0, 5.0, 6.0]]]},
        "grid_holds_true": {"standard": [[[True, 0.0]], [[1.0, 2.0]]]},
        "grid_holds_inf": {"standard": [[[float("inf"), 0.0]], [[1.0, float("nan")]]]},
        "exact_ints": {"standard": [[[1, -2], [0, 10 ** 30]], [[3, 4], [-5, 6]]]},
    }


def test_documents_cover_each_kind():
    docs = _documents()
    assert {b["kind"] for b in docs["spectral_sub"]["blocks"]} == {"Sub"}
    assert docs["svd_tall"]["infinitesimal_values"] == []
    assert docs["svd_wide"]["infinitesimal_values"] == []
    assert docs["eig_warning"]["pairs"][0]["warning"]
    assert docs["eig_general"]["pairs"][0]["vector"]["cols"] == 1
    assert docs["warning_reads_like_a_hole"]["pairs"][0]["warning"] == "\x00"
    arrays = _array_documents()
    for name in ("eig_general", "eig_hermitian"):
        pairs, complex_pairs = (arrays[name][0][key] for key in ("pairs", "complex_pairs"))
        assert pairs and complex_pairs, name
    general = arrays["eig_general"][0]
    assert general["pairs"][0]["vector"]["standard"] is general["complex_pairs"][0]["vector"]["standard"]


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["standard"][0].__setitem__(1, [True, 0]),
     "standard[0][1]: expected a number, got True"),
    (lambda d: d.__setitem__("infinitesimal", [[[True, False]] * 2] * 2),
     "infinitesimal[0][0]: expected a number, got True"),
    (lambda d: d["infinitesimal"][1].__setitem__(1, [0, -10 ** 400]),
     "infinitesimal[1][1]: numbers must lie within double range"),
    (lambda d: d["standard"].__setitem__(1, [[1, 0]]), "standard: row 1 must have 2 entries"),
    (lambda d: d["standard"].__setitem__(0, [[1, 0], [0, 0], [0, 1]]),
     "standard: row 0 must have 2 entries"),
], ids=["bool", "bool_grid", "int_beyond_double", "short_row", "long_row"])
def test_decode_matrix_error_text(mutate, message):
    doc = jsonio.encode_matrix(from_scalars([[1, EPS_J], [-EPS_J, 1]]))
    mutate(doc)
    with pytest.raises(jsonio.SchemaError) as exc:
        jsonio.decode_matrix(doc)
    assert str(exc.value) == message


def test_dumps_matches_the_stdlib_byte_for_byte(tmp_path, capsys):
    for name, doc in _documents().items():
        assert jsonio.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n", name
        assert jsonio.dumps(doc, compact=True) == json.dumps(
            doc, sort_keys=True, separators=(",", ":")) + "\n", name
    # dctool's writes: the array form of each document, and the list forms
    # that the writer leaves to the stdlib, to a file and to stdout
    emitted = [(name, arrays, lists) for name, (arrays, lists) in _array_documents().items()]
    emitted += [(name, doc, doc) for name, doc in _documents().items()
                if name in ("grid_holds_inf", "warning_reads_like_a_hole")]
    out = tmp_path / "out.json"
    for name, doc, lists in emitted:
        for compact in (False, True):
            expected = (json.dumps(lists, sort_keys=True, separators=(",", ":")) if compact
                        else json.dumps(lists, sort_keys=True, indent=2)) + "\n"
            assert jsonio.dumps(doc, compact) == expected, name
            cli._emit(doc, out, compact)
            assert out.read_bytes() == expected.encode(), name
            capsys.readouterr()
            cli._emit(doc, None, compact)
            assert capsys.readouterr().out == expected, name


def test_dumps_matches_the_stdlib_through_the_python_encoder(monkeypatch):
    # without the C encoder the compact form goes through the Python one
    # too, which hands the array parts to the hook in the same text order
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    for name, (arrays, lists) in _array_documents().items():
        for form in ({"indent": 2}, {"separators": (",", ":")}):
            expected = json.dumps(lists, sort_keys=True, **form) + "\n"
            assert jsonio.dumps(arrays, "separators" in form) == expected, name


@pytest.mark.parametrize("value", [object(), {1.0}, np.int64(1)],
                         ids=["object", "set", "numpy_int"])
@pytest.mark.parametrize("compact", [False, True], ids=["indented", "compact"])
def test_dumps_rejects_what_the_stdlib_rejects(value, compact):
    # only array parts become holes; anything else json cannot write raises
    # the stdlib's own TypeError, and nothing is written
    out = []
    with pytest.raises(TypeError, match=f"^Object of type {type(value).__name__} is not JSON "):
        jsonio._write({"a": np.ones((1, 1), complex), "b": [value]}, out.append, compact)
    assert out == []


def _full_disk(text):
    raise OSError("no space left on device")


@pytest.mark.parametrize("write", [[].append, _full_disk], ids=["written", "write_fails"])
@pytest.mark.parametrize("compact", [False, True], ids=["indented", "compact"])
def test_write_keeps_no_array_alive(compact, write):
    # dctool pauses the cyclic collector, and the stdlib's indented encoder
    # is a cycle that holds its default hook: the arrays the hook saw are
    # freed with the document all the same, also when the write fails
    part = np.ones((2, 3), complex)
    ref = weakref.ref(part)
    doc = {"a": part, "b": 1}
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            jsonio._write(doc, write, compact)
        except OSError:
            assert write is _full_disk
        del doc, part
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


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

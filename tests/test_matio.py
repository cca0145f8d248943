import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalex.errors import DimensionMismatch, NonFiniteEntry
from scalex.matio import load_matrix, load_model, save_matrix, save_model
from scalex.operators import TruncatedShiftModel, realize

from conftest import reference_load_matrix, reference_save_matrix


def test_matrix_roundtrip_bit_exact(tmp_path, rng):
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    path = tmp_path / "m.mat"
    save_matrix(path, m)
    back = load_matrix(path)
    assert back.shape == (3, 5)
    assert np.array_equal(back, m)


def test_matrix_roundtrip_extreme_values_bit_exact(tmp_path):
    m = np.array(
        [
            [complex(5e-324, -0.0), complex(-0.0, 1.7976931348623157e308)],
            [complex(2.2250738585072014e-308, -5e-324), complex(1 / 3, -2 / 3)],
        ]
    )
    assert np.signbit(m[0, 0].imag) and np.signbit(m[0, 1].real)
    path = tmp_path / "m.mat"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back.view(np.int64), m.view(np.int64))


def test_matrix_file_grammar(tmp_path):
    path = tmp_path / "m.mat"
    save_matrix(path, np.array([[1.5, -2.0 + 0.25j]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "1 2"
    assert lines[1].split() == ["1.5,0.0", "-2.0,0.25"]


def test_matrix_truncated_row_rejected(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("1 3\n1.0,0.0 2.0,0.0\n")
    with pytest.raises(DimensionMismatch):
        load_matrix(path)


@pytest.mark.parametrize(
    "tail", ["3.0,0.0 4.0,0.0\n", "garbage\n", "\n3.0,0.0 4.0,0.0"], ids=["row", "garbage", "after-a-blank-line"]
)
def test_matrix_longer_than_its_header_rejected(tmp_path, tail):
    path = tmp_path / "bad.mat"
    path.write_text("2 2\n1.0,0.0 0.0,0.0\n0.0,0.0 1.0,0.0\n" + tail)
    with pytest.raises(DimensionMismatch):
        load_matrix(path)
    # whitespace after the declared rows is no row: save_matrix ends with a newline
    path.write_text("2 2\n1.0,0.0 0.0,0.0\n0.0,0.0 1.0,0.0\n\n \t\n")
    assert np.array_equal(load_matrix(path), np.eye(2))


@pytest.mark.parametrize(
    "row", ["1.0,0.0,0.0 2.0,0.0", "1.0 2.0,0.0,0.0", ", 2.0,0.0", "1.0, 2.0,0.0", "x,0 2.0,0.0"]
)
def test_matrix_field_not_one_pair_rejected(tmp_path, row):
    path = tmp_path / "bad.mat"
    path.write_text(f"1 2\n{row}\n")
    with pytest.raises(ValueError):
        load_matrix(path)


BAD_HEADERS = {
    "negative-rows": "-1 2",
    "negative-cols": "2 -1",
    "hex": "-0x1 2",
    "float": "2.0 2",
    "word": "2 x",
    "exponent": "1e1 2",
    "one-number": "2",
    "three-numbers": "2 2 2",
    "empty": "",
    "too-large-to-index": f"{10**30} 1",
    "too-many-digits-for-int": "3" * 5000 + " 1",
}


@pytest.mark.parametrize("header", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
def test_matrix_header_not_two_integers_at_least_0_rejected(tmp_path, header):
    # exit 2 with a named kind and the file in the message, whatever the header lacks
    path = tmp_path / "bad.mat"
    path.write_text(f"{header}\n0.0,0.0 0.0,0.0\n0.0,0.0 0.0,0.0\n")
    with pytest.raises(DimensionMismatch, match="malformed matrix header") as exc:
        load_matrix(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_model_naming_a_matrix_with_a_negative_header_rejected(tmp_path):
    (tmp_path / "neg.mat").write_text("-1 2\n")
    path = tmp_path / "model.json"
    path.write_text('{"d": 1, "N": 4, "A": "neg.mat"}')
    with pytest.raises(DimensionMismatch, match="neg.mat: malformed matrix header"):
        load_model(path)


def test_matrix_header_of_zeros_accepted(tmp_path):
    path = tmp_path / "m.mat"
    for header, shape in (("0 0", (0, 0)), ("0 3", (0, 3)), ("-0 +2", (0, 2))):
        path.write_text(f"{header}\n")
        assert load_matrix(path).shape == shape


def test_matrix_header_too_large_rejected(tmp_path):
    # 100000 x 100000 complex is 149 GiB: refused by the allocator or, if
    # overcommitted, by the missing rows
    path = tmp_path / "bad.mat"
    path.write_text("100000 100000\n0.0,0.0\n")
    with pytest.raises(DimensionMismatch):
        load_matrix(path)


@pytest.mark.parametrize("sep",["\t", "\x0b", "\x0c", "\x1c", " "], ids=repr)
def test_matrix_fields_split_on_any_whitespace(tmp_path, sep):
    # fields are separated by any whitespace that str.split() knows
    path = tmp_path / "m.mat"
    path.write_text(f"1 2\n1.0,0.0{sep}2.0,-0.5\n")
    assert np.array_equal(load_matrix(path), [[1.0, 2.0 - 0.5j]])
    path.write_text(f"1 2\n1.0{sep}2.0,-0.5,0.0\n")
    with pytest.raises(ValueError):
        load_matrix(path)


def test_matrix_empty_rows_accepted(tmp_path):
    path = tmp_path / "m.mat"
    path.write_text("2 0\n\n\n")
    assert load_matrix(path).shape == (2, 0)


@pytest.mark.parametrize("entry", ["nan,0.0", "0.0,-inf", "1e400,0.0"])
def test_matrix_non_finite_rejected(tmp_path, entry):
    path = tmp_path / "bad.mat"
    path.write_text(f"1 2\n1.0,0.0 {entry}\n")
    with pytest.raises(NonFiniteEntry):
        load_matrix(path)


@pytest.mark.parametrize("field", ["one,0.0", "0.0,0x1", "1.0,", ",1.0", "0.0,1..0"])
def test_matrix_field_not_a_number_names_its_file_and_row(tmp_path, field):
    path = tmp_path / "bad.mat"
    path.write_text(f"3 2\n1.0,0.0 0.0,0.0\n0.0,0.0 0.5,0.0\n0.0,0.0 {field}\n")
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    assert (type(info.value), str(info.value)) == (ValueError, f"{path}: row 2 has a field that is not a number")


# a byte that is not UTF-8 in the header, in the last row of a file larger than
# one read of the text layer, and after the declared rows
@pytest.mark.parametrize("where", ["header", "last-row", "after-rows"])
def test_matrix_file_not_utf8_names_its_path(tmp_path, where):
    path = tmp_path / "bad.mat"
    save_matrix(path, np.eye(120))
    data = path.read_bytes()
    assert len(data) > 64 * 1024
    if where == "header":
        data = b"\xff" + data
    elif where == "last-row":
        data = data[:-10] + b"\xb5" + data[-10:]
    else:
        data += b"\xc3\x28\n"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    assert (type(info.value), str(info.value)) == (ValueError, f"{path}: not UTF-8 text")


def test_model_file_not_utf8_names_its_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"d": 1, "N": 3, "A": [[0.5]], "note": "\xff"}')
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"{path}: not a model file: 'utf-8' codec can't decode"), info.value
    # a matrix file it names is refused as the matrix reader refuses it, naming that file
    (tmp_path / "a.mat").write_bytes(b"1 1\n0.5,0.0\xff\n")
    path.write_text('{"d": 1, "N": 3, "A": "a.mat"}')
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value) == f"{tmp_path / 'a.mat'}: not UTF-8 text"


def test_model_non_finite_inline_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"d": 1, "N": 3, "A": [[NaN]]}')
    with pytest.raises(NonFiniteEntry):
        load_model(path)


def test_model_roundtrip_inline(tmp_path):
    model = TruncatedShiftModel(2, 5, np.array([[0.5, 0.1j], [-0.1j, 1.0]], dtype=complex))
    path = tmp_path / "model.json"
    save_model(path, model)
    back = load_model(path)
    assert (back.fiber_dim, back.depth) == (2, 5)
    assert np.array_equal(back.A, model.A)
    assert np.array_equal(realize(back), realize(model))


def test_model_roundtrip_matrix_file(tmp_path):
    # A given as a path, relative to the model file
    model = TruncatedShiftModel(1, 4, np.array([[0.75]], dtype=complex))
    save_matrix(tmp_path / "block.mat", model.A)
    path = tmp_path / "model.json"
    path.write_text('{"d": 1, "N": 4, "A": "block.mat"}')
    back = load_model(path)
    assert np.array_equal(back.A, model.A)


def test_save_model_writes_the_weight_block_inline_only(tmp_path):
    model = TruncatedShiftModel(1, 4, np.array([[0.75]], dtype=complex))
    with pytest.raises(TypeError):
        save_model(tmp_path / "model.json", model, matrix_path=str(tmp_path / "block.mat"))


# Entry parts that the codec must carry bit for bit: both zeros, the extremes
# of the doubles, a repeating binary fraction, and any finite float
PARTS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -2 / 3]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def codec_matrices(draw):
    """Matrices that mix +0.0 and -0.0 in either part with other entries: rows that are all
    +0.0, rows with no +0.0 entry and mixed rows; real or complex; 1 x n, n x 1, n x 0 or r x c."""
    n = draw(st.integers(0, 7))
    rows, cols = draw(st.sampled_from([(1, n), (n, 1), (n, 0), (draw(st.integers(0, 5)), draw(st.integers(0, 5)))]))
    real = draw(st.booleans())
    m = np.zeros((rows, cols), dtype=complex)
    for r in range(rows):
        kind = draw(st.sampled_from(["zero", "full", "mixed"]))
        for c in range(cols):
            if kind == "zero" or (kind == "mixed" and draw(st.booleans())):
                continue
            z = complex(draw(PARTS), 0.0 if real else draw(PARTS))
            m[r, c] = z if kind == "mixed" or z != 0 or np.signbit([z.real, z.imag]).any() else 1 / 3
    return m.real if real else m


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(m=codec_matrices())
def test_codec_matches_the_per_field_reference(tmp_path, m):
    ours, ref = tmp_path / "ours.mat", tmp_path / "ref.mat"
    save_matrix(ours, m)
    reference_save_matrix(ref, m)
    assert ours.read_bytes() == ref.read_bytes()
    back = load_matrix(ours)
    assert back.shape == np.atleast_2d(m).shape
    assert np.array_equal(back.view(np.int64), reference_load_matrix(ours).view(np.int64))
    assert np.array_equal(back.view(np.int64), np.asarray(m, dtype=complex).view(np.int64))


def _outcome(load, path):
    try:
        return load(path).view(np.int64).tolist()
    except Exception as exc:  # the kind and message of a refusal
        return type(exc), str(exc)


# Malformed rows whose neighbours are +0.0 fields, with a header that holds
@pytest.mark.parametrize(
    "text",
    [
        "1 2\n0.0,0.0 1.0,,2\n",
        "1 2\n0.0,0.0,0.0 1.0,0.0\n",
        "1 2\n0.0,0.0 x,0\n",
        "1 2\nx,0 0.0,0.0\n",
        "1 2\n0.0,0.0 1.0\n",
        "1 3\n0.0,0.0 1.0 0.0,0.0,\n",
        "1 3\n0.0,0.0 ,1.0 0.0,0.0\n",
        "1 2\n0.0,0.0 nan,0.0\n",
        "1 2\n0.0,0.0 0.0,1e999\n",
        "1 3\n0.0,0.0 0.0,0.0\n",
        "1 1\n0.0,0.0 0.0,0.0\n",
        "1 2\n0.0,0.0 0.0,0.0\n0.0,0.0 0.0,0.0\n",
        "2 2\n0.0,0.0 0.0,0.0\n",
        "2 2\n0.0,0.0 0.0,0.0\n0.0,0.0 x,0.0\n",
        "1 2\n0.0,0.0\t0,-0\n",
        "1 2\n0.0,0.0 0.00,0.0\n",
    ],
)
def test_malformed_row_among_zero_fields_refused_as_by_the_reference(tmp_path, text):
    path = tmp_path / "m.mat"
    path.write_text(text)
    assert _outcome(load_matrix, path) == _outcome(reference_load_matrix, path)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    m=codec_matrices(),
    edits=st.lists(
        st.tuples(st.integers(0, 10**4), st.sampled_from(["delete", "insert"]),
                  st.sampled_from([",", " ", "\n", "0.0,0.0", "-", "x", "nan", "0"])),
        min_size=1,
        max_size=3,
    ),
)
def test_edited_rows_read_as_by_the_reference(tmp_path, m, edits):
    # after a valid header, the reader accepts, reads and refuses as the per-row reference does
    path = tmp_path / "m.mat"
    save_matrix(path, m)
    header, _, text = path.read_text().partition("\n")
    for pos, op, piece in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + piece + text[i:] if op == "insert" else text[:i] + text[i + 1 :]
    path.write_text(f"{header}\n{text}")
    assert _outcome(load_matrix, path) == _outcome(reference_load_matrix, path)


def _shift(n: int) -> np.ndarray:
    """The weight-3/4 shift e_j -> e_{j+1}: n - 1 entries that are not +0.0 out of n^2."""
    return np.diag(np.full(n - 1, 0.75), k=-1).astype(complex)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_matrix_streams_its_rows(tmp_path):
    # one row of text at a time: the peak is a small part of the file, not the whole text or all fields
    path, m = tmp_path / "m.mat", _shift(400)
    peak = _peak_bytes(lambda: save_matrix(path, m))
    assert peak < path.stat().st_size / 4, (peak, path.stat().st_size)


def test_load_matrix_holds_little_beyond_its_result(tmp_path):
    path, m = tmp_path / "m.mat", _shift(400)
    save_matrix(path, m)
    peak = _peak_bytes(lambda: load_matrix(path))
    assert peak < 2 * m.nbytes, (peak, m.nbytes)

import numpy as np
import pytest

from scalex.errors import DimensionMismatch, NonFiniteEntry
from scalex.matio import load_matrix, load_model, save_matrix, save_model
from scalex.operators import TruncatedShiftModel, realize


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

"""Mangled matrix and model files on the lab subcommands, and wrongly typed JSON
on the exact-engine ones: every run ends with exit code 0, 2 or 3 and prints
exactly one JSON document."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scalex.cli import main
from scalex.matio import save_matrix
from scalex.operators import TruncatedShiftModel, realize

from test_operators import OVERFLOWING

GOOD_MODEL = json.dumps({"d": 2, "N": 4, "A": [[0.5, 0.0], [0.0, [0.75, 0.0]]]})


@pytest.fixture(scope="module")
def good_matrix(tmp_path_factory):
    """The realized 8 x 8 matrix of GOOD_MODEL, as a matrix file's text."""
    path = tmp_path_factory.mktemp("good") / "x.mat"
    save_matrix(str(path), realize(TruncatedShiftModel(2, 4, np.diag([0.5, 0.75]).astype(complex))))
    return path.read_text()


def _lines(text):
    return text.split("\n")


MATRIX_MANGLES = {
    "truncated-rows": lambda t: "\n".join(_lines(t)[:5]) + "\n",
    "truncated-row": lambda t: t[: len(t) // 2],
    "header-more-rows": lambda t: t.replace("8 8", "9 8", 1),
    "header-fewer-rows": lambda t: t.replace("8 8", "7 8", 1),
    "extra-row": lambda t: t + _lines(t)[1] + "\n",
    "header-more-cols": lambda t: t.replace("8 8", "8 9", 1),
    "header-three-numbers": lambda t: t.replace("8 8", "8 8 8", 1),
    "header-not-a-number": lambda t: t.replace("8 8", "8 x", 1),
    "header-negative": lambda t: t.replace("8 8", "-8 8", 1),
    "header-huge": lambda t: t.replace("8 8", "100000 100000", 1),
    "header-only": lambda t: _lines(t)[0] + "\n",
    "missing-comma": lambda t: t.replace(",", " ", 1),
    "comma-moved": lambda t: t.replace("0.0,0.0 0.0,0.0", "0.0 0.0,0.0,0.0", 1),
    "extra-field": lambda t: t.replace("\n", " 1.0,0.0\n", 2),
    "extra-comma": lambda t: t.replace(",", ",,", 1),
    "nan": lambda t: t.replace("0.5,0.0", "nan,0.0", 1),
    "inf": lambda t: t.replace("0.75,0.0", "0.75,-inf", 1),
    "overflow": lambda t: t.replace("0.5,0.0", "1e999,0.0", 1),
    "word": lambda t: t.replace("1.0,0.0", "one,0.0", 1),
    "empty": lambda t: "",
    "blank-lines": lambda t: "\n\n\n",
    "binary-junk": lambda t: b"\x00\xff\xfe\x80junk\xc3\x28".decode("latin-1"),
    "junk-after-header": lambda t: _lines(t)[0] + "\n\x00\x01\x02\n",
}

# Model files whose JSON values have the wrong type: d and N must be integers
# (not floats, strings or booleans), each entry of A a number or an [re, im]
# pair of numbers.  Each is refused as a ValueError.
WRONGLY_TYPED_MODELS = {
    "d-not-a-number": lambda t: t.replace('"d": 2', '"d": "two"'),
    "d-null": lambda t: t.replace('"d": 2', '"d": null'),
    "d-overflow": lambda t: t.replace('"d": 2', '"d": 1e999'),
    "d-float": lambda t: t.replace('"d": 2', '"d": 2.9'),
    "N-float": lambda t: t.replace('"N": 4', '"N": 4.7'),
    "N-string": lambda t: t.replace('"N": 4', '"N": "4"'),
    "d-N-float": lambda t: '{"d": 1.9, "N": 6.7, "A": [[0.5]]}',
    "d-bool": lambda t: '{"d": true, "N": 6, "A": [[0.5]]}',
    "A-null-entry": lambda t: t.replace("[0.5, 0.0]", "[null, 0.0]"),
    "A-string-entry": lambda t: t.replace("[0.5, 0.0]", '["x", 0.0]'),
    "A-bool-entry": lambda t: t.replace("[0.5, 0.0]", "[true, 0.0]"),
    "A-bool-pair": lambda t: t.replace("[0.75, 0.0]", "[true, false]"),
    "A-huge-int": lambda t: t.replace("0.5", "1" + "0" * 400),
}

# Model files whose weight block A is not d x d, inline or in the matrix file
# it names (a 1 x 2 one sits beside every mangled model).  Each is refused as
# a DimensionMismatch, as the same shape in a matrix file is.
MISSHAPEN_A_MODELS = {
    "A-empty": lambda t: '{"d": 1, "N": 6, "A": []}',
    "A-smaller-than-d": lambda t: '{"d": 2, "N": 6, "A": [[0.5]]}',
    "A-one-by-two": lambda t: '{"d": 1, "N": 6, "A": [[0.5, 0.1]]}',
    "A-file-one-by-two": lambda t: '{"d": 1, "N": 6, "A": "row.mat"}',
}

MODEL_MANGLES = {
    "truncated": lambda t: t[: len(t) // 2],
    "not-an-object": lambda t: "[1, 2, 3]",
    "string": lambda t: '"model"',
    "missing-key": lambda t: t.replace('"N": 4, ', ""),
    "extra-key": lambda t: t.replace("{", '{"note": "extra", ', 1),
    "header-lies-d": lambda t: t.replace('"d": 2', '"d": 3'),
    "header-lies-N": lambda t: t.replace('"N": 4', '"N": 1'),
    "A-number": lambda t: t.replace('"A": [[0.5, 0.0], [0.0, [0.75, 0.0]]]', '"A": 5'),
    "A-ragged": lambda t: t.replace("[0.5, 0.0]", "[0.5]"),
    "A-triple-entry": lambda t: t.replace("[0.75, 0.0]", "[0.75, 0.0, 1.0]"),
    "A-missing-file": lambda t: t.replace('[[0.5, 0.0], [0.0, [0.75, 0.0]]]', '"nowhere.mat"'),
    "A-nan": lambda t: t.replace("0.5", "NaN"),
    "A-inf": lambda t: t.replace("0.5", "-Infinity"),
    "A-not-positive": lambda t: t.replace("0.5", "-0.5"),
    "deep-nesting": lambda t: t.replace("[0.5, 0.0]", "[" * 10_000 + "]" * 10_000),
    "empty": lambda t: "",
    "binary-junk": lambda t: b"\x00\xff\xfe\x80junk\xc3\x28".decode("latin-1"),
    **WRONGLY_TYPED_MODELS,
    **MISSHAPEN_A_MODELS,
}

COMMANDS = {
    "verify": [],
    "witness": ["--gap", "0.6"],
    "specestimate": [],
    "wold": [],
}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    doc = json.loads(out)  # exactly one document: trailing data is a JSONDecodeError
    assert isinstance(doc, dict)
    if code:
        assert set(doc) == {"error", "kind"}
    return code, doc


def write(path, text):
    with open(path, "w", encoding="latin-1", newline="") as fh:
        fh.write(text)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("mangle", MATRIX_MANGLES)
def test_mangled_matrix_file(capsys, tmp_path, good_matrix, command, mangle):
    path = tmp_path / "x.mat"
    write(path, MATRIX_MANGLES[mangle](good_matrix))
    code, doc = run_cli(capsys, [command, "--in", str(path), *COMMANDS[command]])
    # a header that is not two integers >= 0, or that the rows belie, is a DimensionMismatch
    if mangle == "extra-row" or mangle.startswith("header-"):
        assert code == 2 and doc["kind"] == "DimensionMismatch", doc


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("mangle", MODEL_MANGLES)
def test_mangled_model_file(capsys, tmp_path, command, mangle):
    path = tmp_path / "model.json"
    write(path, MODEL_MANGLES[mangle](GOOD_MODEL))
    write(tmp_path / "row.mat", "1 2\n0.5,0.0 0.1,0.0\n")
    code, doc = run_cli(capsys, [command, "--in", str(path), *COMMANDS[command]])
    if mangle in WRONGLY_TYPED_MODELS:
        assert code == 2 and doc["kind"] == "ValueError", doc
    if mangle in MISSHAPEN_A_MODELS:
        assert code == 2 and doc["kind"] == "DimensionMismatch", doc


@pytest.mark.parametrize("command", COMMANDS)
def test_unmangled_files_succeed(capsys, tmp_path, good_matrix, command):
    # the mangles above start from files every lab subcommand accepts
    for name, text in (("x.mat", good_matrix), ("model.json", GOOD_MODEL)):
        write(tmp_path / name, text)
        code, _ = run_cli(capsys, [command, "--in", str(tmp_path / name), *COMMANDS[command]])
        assert code == 0


PIECES = [",", " ", "\n", "\t", "-", "e", "9", "nan", "[", "]", "{", '"', ":", "\x00", "\x85"]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["delete", "insert"]), st.sampled_from(PIECES)),
        min_size=1,
        max_size=4,
    ),
    which=st.sampled_from(["matrix", "model"]),
    command=st.sampled_from(sorted(COMMANDS)),
)
def test_random_edits(capsys, tmp_path, good_matrix, edits, which, command):
    text, name = (good_matrix, "x.mat") if which == "matrix" else (GOOD_MODEL, "model.json")
    for pos, op, piece in edits:
        i = pos % (len(text) + 1)
        text = text[:i] + piece + text[i:] if op == "insert" else text[:i] + text[i + 1 :]
    write(tmp_path / name, text)
    run_cli(capsys, [command, "--in", str(tmp_path / name), *COMMANDS[command]])


# Exact-engine inputs whose JSON values have the wrong type: a number or null
# where a list belongs, strings and booleans where numbers belong, a string
# where the properness flag belongs, an integer too large for a float, lists
# nested deeper than the JSON parser recurses.
HUGE = "1" + "0" * 400
INTERVALS_MANGLES = {
    "intervals-number": "5",
    "intervals-null-entry": "[null]",
    "intervals-number-entry": "[5]",
    "intervals-string-entry": '["01"]',
    "endpoint-null": "[[null, 1]]",
    "endpoint-string": '[["0", "1"]]',
    "endpoint-bool": "[[false, true]]",
    "endpoint-huge-int": f"[[0, 0], [0.5, {HUGE}], [1, 1]]",
    "deep-nesting": "[" * 10_000 + "]" * 10_000,
}
GOOD_SPEC = '{"intervals": [[0, 0], [0.5, 0.5], [1, 1]]}'
GOOD_DESCRIPTOR = f'{{"spectrum": {GOOD_SPEC}, "proper": true}}'
DESCRIPTOR_MANGLES = {
    "proper-string": f'{{"spectrum": {GOOD_SPEC}, "proper": "false"}}',
    "proper-null": f'{{"spectrum": {GOOD_SPEC}, "proper": null}}',
    "proper-number": f'{{"spectrum": {GOOD_SPEC}, "proper": 0}}',
    "spectrum-number": '{"spectrum": 5, "proper": true}',
}
PUNCTURED_MANGLES = {
    "removed-number": f'{{"base": {GOOD_SPEC}, "removed": 5}}',
    "removed-null-entry": f'{{"base": {GOOD_SPEC}, "removed": [null]}}',
    "removed-string": f'{{"base": {GOOD_SPEC}, "removed": "12"}}',
    "removed-bool-entry": f'{{"base": {GOOD_SPEC}, "removed": [true]}}',
    "removed-huge-int": f'{{"base": {GOOD_SPEC}, "removed": [{HUGE}]}}',
    "removed-nan": f'{{"base": {GOOD_SPEC}, "removed": [NaN]}}',
    "removed-inf": f'{{"base": {GOOD_SPEC}, "removed": [1e400]}}',
    "base-number": '{"base": 5, "removed": [0.5]}',
}

EXACT_CASES = {
    **{f"classify-{k}": ["classify", "--spec", f'{{"intervals": {v}}}'] for k, v in INTERVALS_MANGLES.items()},
    **{
        f"homcheck-{k}": ["homcheck", "--from", f'{{"spectrum": {{"intervals": {v}}}, "proper": true}}',
                          "--to", GOOD_DESCRIPTOR]
        for k, v in INTERVALS_MANGLES.items()
    },
    **{f"isocheck-{k}": ["isocheck", "--from", GOOD_DESCRIPTOR, "--to", v] for k, v in DESCRIPTOR_MANGLES.items()},
    **{f"kgroups-{k}": ["kgroups", "--spec", v] for k, v in {**DESCRIPTOR_MANGLES, **PUNCTURED_MANGLES}.items()},
}


@pytest.mark.parametrize("argv", EXACT_CASES.values(), ids=EXACT_CASES.keys())
def test_wrongly_typed_exact_engine_json_exits_2(argv):
    # -X importtime logs every module the interpreter loads, to stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "scalex", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr[-2000:]
    doc = json.loads(proc.stdout)  # exactly one document
    assert set(doc) == {"error", "kind"}
    loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "scalex.spectra" in loaded
    assert not {m for m in loaded if m.partition(".")[0] == "numpy"}


@pytest.mark.parametrize("command", ["classify", "kgroups"])
@pytest.mark.parametrize("text", ["5", "null", "[1, 2]", '"spec"'])
def test_spec_file_that_is_not_an_object_exits_2(capsys, tmp_path, command, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    code, doc = run_cli(capsys, [command, "--spec", str(path)])
    assert code == 2 and doc["kind"] == "ValueError"


# Each operand below asks numpy for more than the 2**47-byte user address
# space, so the allocation is refused on any machine, whatever its overcommit
# setting: the (2e7)^2 and (1e7)^2 complex matrices, 8e15 bytes of samples.
HUGE_MODEL = json.dumps({"d": 1, "N": 10**7, "A": [[0.5]]})
OVERSIZED = {
    "synth-depth": ["synth", "--spec", GOOD_SPEC, "--depth", str(10**7), "--out", "out"],
    "synth-samples": ["synth", "--spec", '{"intervals": [[0, 0], [0.3, 0.6], [1, 1]]}', "--samples", str(10**15),
                      "--out", "out"],
    **{f"{command}-model": [command, "--in", "model.json", *COMMANDS[command]] for command in COMMANDS},
}


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_operand_is_a_dimension_mismatch(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "model.json", HUGE_MODEL)
    code, doc = run_cli(capsys, argv)
    assert code == 2 and doc["kind"] == "DimensionMismatch", doc
    # a refused command leaves nothing behind: no output directory, no model file
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    assert (tmp_path / "model.json").read_text() == HUGE_MODEL


@pytest.mark.parametrize("command", ["verify", "witness", "wold"])
@pytest.mark.parametrize("name", OVERFLOWING)
def test_overflowing_operand_prints_one_json_document(tmp_path, name, command):
    # handed inf or nan, LAPACK writes to the process's own stdout, past sys.stdout: only a child process shows it
    save_matrix(str(tmp_path / "huge.mat"), OVERFLOWING[name][0])
    argv = [command, "--in", str(tmp_path / "huge.mat"), *COMMANDS[command]]
    proc = subprocess.run([sys.executable, "-m", "scalex", *argv], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (3, ""), proc.stdout
    assert json.loads(proc.stdout)["kind"] == "NotAdmissible"  # exactly one document

import argparse
import contextlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from scalex import matio
from scalex.cli import main
from scalex.operators import classify_properness, estimate_spectrum, infinite_projection_witness, realize
from scalex.wold import wold_decompose

POINTS_01 = '{"intervals": [[0,0],[1,1]]}'
POINTS_0H1 = '{"intervals": [[0,0],[0.5,0.5],[1,1]]}'
FULL_01 = '{"intervals": [[0,1]]}'
ZERO_TAIL = '{"intervals": [[0,0],[0.5,1]]}'


# the tolerance, seed and --out flags each subcommand declares, and arguments that satisfy its required flags
DECLARED = {
    "classify": set(), "homcheck": set(), "isocheck": set(), "kgroups": set(),
    "synth": {"--seed", "--cluster-tol", "--out"}, "wold": {"--tol"}, "verify": {"--tol", "--gap-tol"},
    "witness": {"--tol", "--cluster-tol", "--out"}, "specestimate": {"--cluster-tol"},
}
REQUIRED = {
    "classify": ["--spec", "x"], "homcheck": ["--from", "x", "--to", "x"], "isocheck": ["--from", "x", "--to", "x"],
    "kgroups": ["--spec", "x"], "synth": ["--spec", "x"], "wold": ["--in", "x"], "verify": ["--in", "x"],
    "witness": ["--in", "x", "--gap", "0.5"], "specestimate": ["--in", "x"],
}

# each lab tolerance flag, and the lab call whose signature holds its default
TOLERANCE_FLAGS = [
    ("wold", "--tol", wold_decompose),
    ("witness", "--tol", infinite_projection_witness),
    ("witness", "--cluster-tol", infinite_projection_witness),
    ("specestimate", "--cluster-tol", estimate_spectrum),
    ("synth", "--cluster-tol", estimate_spectrum),
    ("verify", "--tol", classify_properness),
    ("verify", "--gap-tol", classify_properness),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def descriptor(spec, proper=True):
    return json.dumps({"spectrum": json.loads(spec), "proper": proper})


class TestClassify:
    def test_bare_endpoints(self, capsys):
        code, rep = run(capsys, "classify", "--spec", POINTS_01)
        assert code == 0
        assert rep["infinite_projection"] is True
        assert rep["nonproper_admissible"] is False
        assert rep["k_proper"] == [1, 0]
        assert rep["k_nonproper"] is None
        assert rep["criteria_agree"] is True

    def test_full_interval(self, capsys):
        code, rep = run(capsys, "classify", "--spec", FULL_01)
        assert code == 0
        assert rep["infinite_projection"] is False
        assert rep["k_proper"] == [0, 0]

    def test_zero_tail(self, capsys):
        code, rep = run(capsys, "classify", "--spec", ZERO_TAIL)
        assert code == 0
        assert rep["infinite_projection"] is True
        assert rep["nonproper_admissible"] is False

    def test_admissible_reports_both_k(self, capsys):
        code, rep = run(capsys, "classify", "--spec", POINTS_0H1)
        assert code == 0
        assert rep["k_nonproper"] == [1, 0]

    def test_invalid_json_exits_2(self, capsys):
        code, rep = run(capsys, "classify", "--spec", '{"intervals": [[1,0]]}')
        assert code == 2

    def test_spectrum_without_endpoints_is_inadmissible(self, capsys):
        code, rep = run(capsys, "classify", "--spec", '{"intervals": [[0.5,0.5]]}')
        assert code == 3


class TestHomIso:
    def test_proper_onto_smaller(self, capsys):
        code, rep = run(capsys, "homcheck", "--from", descriptor(POINTS_0H1), "--to", descriptor(POINTS_01))
        assert code == 0 and rep["hom_exists"] is True

    def test_subset_failure_reported(self, capsys):
        code, rep = run(capsys, "homcheck", "--from", descriptor(POINTS_01), "--to", descriptor(POINTS_0H1))
        assert code == 0 and rep["hom_exists"] is False and rep["reason"] == "subset"

    def test_properness_clause_reported(self, capsys):
        code, rep = run(
            capsys,
            "homcheck",
            "--from", descriptor(POINTS_0H1, proper=False),
            "--to", descriptor(POINTS_0H1),
        )
        assert code == 0 and rep["hom_exists"] is False and rep["reason"] == "properness"

    def test_iso_flag_mismatch(self, capsys):
        code, rep = run(
            capsys,
            "isocheck",
            "--from", descriptor(POINTS_0H1),
            "--to", descriptor(POINTS_0H1, proper=False),
        )
        assert code == 0 and rep["iso_exists"] is False and rep["reason"] == "properness"

    def test_parse_failure_exits_2(self, capsys):
        code, _ = run(capsys, "homcheck", "--from", "{broken", "--to", descriptor(POINTS_01))
        assert code == 2

    @pytest.mark.parametrize("proper", [{}, {"proper": "true"}], ids=["missing", "string"])
    def test_descriptor_without_boolean_proper_exits_2(self, capsys, proper):
        source = json.dumps({"spectrum": json.loads(POINTS_01), **proper})
        code, rep = run(capsys, "homcheck", "--from", source, "--to", descriptor(POINTS_01))
        assert code == 2 and rep["kind"] == "InvalidInterval", rep


class TestKgroups:
    def test_descriptor_input(self, capsys):
        code, rep = run(capsys, "kgroups", "--spec", descriptor(POINTS_01))
        assert code == 0 and (rep["k0"], rep["k1"]) == (1, 0)

    def test_punctured_input(self, capsys):
        spec = json.dumps({"base": {"intervals": [[0, 1]]}, "removed": [0, 1]})
        code, rep = run(capsys, "kgroups", "--spec", spec)
        assert code == 0 and (rep["k0"], rep["k1"]) == (0, 1)

    def test_plain_spectral_set(self, capsys):
        code, rep = run(capsys, "kgroups", "--spec", POINTS_01)
        assert code == 0 and (rep["k0"], rep["k1"]) == (2, 0)

    def test_removed_point_must_be_a_number(self, capsys):
        spec = json.dumps({"base": {"intervals": [[0, 1]]}, "removed": [True]})
        code, rep = run(capsys, "kgroups", "--spec", spec)
        assert code == 2 and rep["kind"] == "InvalidInterval", rep


class TestPipeline:
    def test_synth_verify_wold_witness(self, capsys, tmp_path):
        out = str(tmp_path)
        code, rep = run(
            capsys, "synth", "--spec", POINTS_0H1, "--properness", "nonproper",
            "--depth", "6", "--out", out,
        )
        assert code == 0
        assert rep["eigenvalues"] == [0.5]

        code, rep = run(capsys, "verify", "--in", rep["model_path"])
        assert code == 0 and rep["verdict"] == "nonproper"

        code, rep = run(capsys, "wold", "--in", out + "/model.mat")
        assert code == 0
        assert rep["q_ranks"] == [1] * 6 and rep["unitary_rank"] == 0

        code, rep = run(capsys, "witness", "--in", out + "/model.json", "--gap", "0.25", "--out", out)
        assert code == 0
        assert rep["infinite_projection_witnessed"] is True
        assert (tmp_path / "witness.mat").exists()

    def test_wold_on_pure_shift(self, capsys, tmp_path):
        out = str(tmp_path)
        code, rep = run(capsys, "synth", "--spec", POINTS_01, "--depth", "4", "--out", out)
        assert code == 0
        code, rep = run(capsys, "wold", "--in", out + "/model.mat")
        assert code == 0
        assert rep["q_ranks"] == [1, 1, 1, 1]
        assert rep["unitary_rank"] == 0

    def test_specestimate(self, capsys, tmp_path):
        out = str(tmp_path)
        run(capsys, "synth", "--spec", POINTS_0H1, "--properness", "nonproper", "--depth", "5", "--out", out)
        code, rep = run(capsys, "specestimate", "--in", out + "/model.json")
        assert code == 0
        lows = [iv[0] for iv in rep["intervals"]]
        assert lows == pytest.approx([0.0, 0.5, 1.0], abs=1e-9)

    def test_witness_refuses_covering_spectrum(self, capsys, tmp_path):
        out = str(tmp_path)
        run(capsys, "synth", "--spec", FULL_01, "--depth", "5", "--samples", "40", "--out", out)
        code, rep = run(
            capsys, "witness", "--in", out + "/model.json", "--gap", "0.5", "--cluster-tol", "0.2"
        )
        assert code == 3 and rep["kind"] == "NoGap"

    def test_synth_inadmissible_exits_3(self, capsys, tmp_path):
        code, rep = run(
            capsys, "synth", "--spec", ZERO_TAIL, "--properness", "nonproper", "--out", str(tmp_path)
        )
        assert code == 3 and rep["kind"] == "NotAdmissible"

    def test_synth_negative_samples_exits_3_and_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, rep = run(capsys, "synth", "--spec", POINTS_0H1, "--samples", "-1", "--out", str(out))
        assert code == 3 and rep["kind"] == "NotAdmissible"
        assert not out.exists()

    def test_synth_negative_seed_exits_3_and_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, rep = run(capsys, "synth", "--spec", POINTS_0H1, "--seed", "-1", "--out", str(out))
        assert (code, rep["kind"], rep["error"]) == (3, "NotAdmissible", "seed must be an int >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["proper", "nonproper"])
    @pytest.mark.parametrize("cluster_tol", ["1e-8", "0.1"])
    @pytest.mark.parametrize("top", [2, 10, 100, 1000, 1e4, 1e5])
    def test_synth_estimate_is_the_realized_models(self, capsys, monkeypatch, tmp_path, top, cluster_tol, flag):
        # at depth >= 3 the realized model's singular values are exactly 0, the weights and 1, so synth
        # reads its estimate off the weights and factors nothing of the model's size
        spec = json.dumps({"intervals": [[0, 0], [0.25, 0.5], [1, 1], [top, top]]})
        shapes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(np.shape(a)) or svd(a, *args, **kw))
        code, rep = run(capsys, "synth", "--spec", spec, "--properness", flag, "--depth", "5", "--samples", "7",
                        "--seed", "3", "--cluster-tol", cluster_tol, "--out", str(tmp_path))
        monkeypatch.undo()
        assert code == 0, rep
        model = matio.load_model(rep["model_path"])
        assert rep["estimated_spectrum"] == estimate_spectrum(realize(model), float(cluster_tol)).to_json()
        assert shapes == [(model.fiber_dim + 2,) * 2]

    # spectrum, synth flags, witness flags: a gap at every cut but 0.5, and a spectrum covering (0, 1)
    SWEEPS = [
        (POINTS_0H1, ["--depth", "6", "--samples", "4"], []),
        (FULL_01, ["--depth", "5", "--samples", "40"], ["--cluster-tol", "0.2"]),
    ]

    def test_decision_engine_agrees_with_matrix_pipeline(self, capsys, tmp_path):
        # the exact decision and the synthesized-witness run must tell one story
        code, decision = run(capsys, "classify", "--spec", POINTS_01)
        assert code == 0 and decision["infinite_projection"] is True
        out = str(tmp_path)
        run(capsys, "synth", "--spec", POINTS_01, "--depth", "6", "--out", out)
        code, rep = run(capsys, "witness", "--in", out + "/model.json", "--gap", "0.5")
        assert code == 0 and rep["infinite_projection_witnessed"] is True
        # across 9 cuts in (0, 1), some cut is witnessed iff the spectrum has an infinite projection
        for spec, synth_flags, witness_flags in self.SWEEPS:
            _, decision = run(capsys, "classify", "--spec", spec)
            run(capsys, "synth", "--spec", spec, *synth_flags, "--out", out)
            witnessed = []
            for cut in range(1, 10):
                code, rep = run(capsys, "witness", "--in", out + "/model.json", "--gap", f"0.{cut}", *witness_flags)
                assert code == 0 or (code == 3 and rep["kind"] == "NoGap"), rep
                witnessed.append(code == 0 and rep["infinite_projection_witnessed"])
            assert any(witnessed) == decision["infinite_projection"], (spec, witnessed)


class TestMatrixFile:
    """A bare matrix gets its model file's answers; only ``boundary_localized`` needs the model."""

    SPEC = '{"intervals": [[0,0],[0.25,0.4],[0.6,0.75],[1,1]]}'

    @pytest.mark.parametrize("flag", ["nonproper", "proper"])
    def test_verify_and_witness_agree_with_the_model_file(self, capsys, tmp_path, flag):
        out = str(tmp_path)
        run(capsys, "synth", "--spec", self.SPEC, "--properness", flag, "--depth", "5",
            "--samples", "10", "--out", out)
        reports = {}
        for ext in ("json", "mat"):
            _, verify = run(capsys, "verify", "--in", f"{out}/model.{ext}")
            _, witness = run(capsys, "witness", "--in", f"{out}/model.{ext}", "--gap", "0.5")
            reports[ext] = verify, witness
        (verify, witness), (model_verify, model_witness) = reports["mat"], reports["json"]
        assert verify["verdict"] == model_verify["verdict"] == flag
        assert abs(verify["projection_distance"] - model_verify["projection_distance"]) <= 1e-10
        assert verify["boundary_localized"] is None and model_verify["boundary_localized"] is True
        assert witness["infinite_projection_witnessed"] is model_witness["infinite_projection_witnessed"] is True

    VERIFY_KEYS = {
        "boundary_localized", "command", "gap_at_0", "gap_at_1", "projection_distance", "scaling_residual",
        "timestamp", "verdict",
    }

    @pytest.mark.parametrize("ext", ["json", "mat"])
    def test_verify_schema(self, capsys, tmp_path, ext):
        # the verdict's fields decide the report's keys, for a model and a bare matrix alike
        run(capsys, "synth", "--spec", self.SPEC, "--properness", "nonproper", "--depth", "5", "--out", str(tmp_path))
        code, verify = run(capsys, "verify", "--in", str(tmp_path / f"model.{ext}"))
        assert code == 0 and set(verify) == self.VERIFY_KEYS


class TestBadOperands:
    """Malformed matrix files end in exit 2 with a named error, never a traceback."""

    @pytest.mark.parametrize(
        "text, kind",
        [
            ("0 0\n", "DimensionMismatch"),
            ("2 3\n1,0 0,0 0,0\n0,0 1,0 0,0\n", "DimensionMismatch"),
            ("2 2\nnan,0 0,0\n0,0 1,0\n", "NonFiniteEntry"),
            ("2 2\n1,0 0,inf\n0,0 1,0\n", "NonFiniteEntry"),
        ],
    )
    def test_specestimate_rejects(self, capsys, tmp_path, text, kind):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        code = main(["specestimate", "--in", str(path)])
        out = capsys.readouterr().out
        doc, end = json.JSONDecoder().raw_decode(out)
        assert out[end:].strip() == ""
        assert code == 2 and doc["kind"] == kind


    @pytest.mark.parametrize("value", ["0", "nan", "inf", "-inf", "1e400", "-1e-3"])
    @pytest.mark.parametrize("flag", ["--tol", "--cluster-tol", "--gap-tol"])
    def test_non_positive_tolerance_exits_2(self, capsys, flag, value):
        # every subcommand that declares the flag refuses the value before it reads its input,
        # whether it is given as --flag=value or as a separate token
        commands = [command for command, flags in DECLARED.items() if flag in flags]
        for command, spelling in itertools.product(commands, ([f"{flag}={value}"], [flag, value])):
            code = main([command, *REQUIRED[command], *spelling])
            out = capsys.readouterr().out
            doc, end = json.JSONDecoder().raw_decode(out)
            assert out[end:].strip() == ""
            assert code == 2 and doc["kind"] == "ValueError", (command, doc)
            assert "must be > 0" in doc["error"]

    @pytest.mark.parametrize("command", ["verify", "wold"])
    @pytest.mark.parametrize("text", ["0 0\n", "2 3\n1,0 0,0 0,0\n0,0 1,0 0,0\n"], ids=["empty", "2x3"])
    def test_verify_and_wold_reject_bad_shapes(self, capsys, tmp_path, command, text):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        code, rep = run(capsys, command, "--in", str(path))
        assert code == 2 and rep["kind"] == "DimensionMismatch"

    NORMAL = {
        "identity": "3 3\n1,0 0,0 0,0\n0,0 1,0 0,0\n0,0 0,0 1,0\n",
        "zero": "3 3\n" + "0,0 0,0 0,0\n" * 3,
        "diag-1-0": "2 2\n1,0 0,0\n0,0 0,0\n",
    }

    @pytest.mark.parametrize("text", list(NORMAL.values()), ids=list(NORMAL))
    def test_verify_gives_no_verdict_for_a_normal_operator(self, capsys, tmp_path, text):
        path = tmp_path / "normal.mat"
        path.write_text(text)
        code, rep = run(capsys, "verify", "--in", str(path))
        assert code == 3 and rep["kind"] == "NotAdmissible"

    @pytest.mark.parametrize("name", ["identity", "diag-1-0"])
    def test_witness_finds_no_witness_on_a_normal_operator(self, capsys, tmp_path, name):
        # no shift summand, so no infinite projection: "not witnessed" claims nothing the mathematics rules out
        path = tmp_path / "normal.mat"
        path.write_text(self.NORMAL[name])
        code, rep = run(capsys, "witness", "--in", str(path), "--gap", "0.5")
        assert code == 0 and rep["infinite_projection_witnessed"] is False, rep

    ONE_SLOT = '{"d": 1, "N": 6, "A": [[0.5]]}'  # singular values 1, 1, 1, 1, 0.5, 0

    @pytest.mark.parametrize("command", ["verify", "wold", "witness"])
    @pytest.mark.parametrize("tol", ["1", "5"])
    def test_tol_at_or_above_the_norm_is_refused(self, capsys, tmp_path, command, tol):
        # no singular value above tol: there is no support to decide on
        path = tmp_path / "model.json"
        path.write_text(self.ONE_SLOT)
        gap = ["--gap", "0.7"] if command == "witness" else []
        code, rep = run(capsys, command, "--in", str(path), "--tol", tol, *gap)
        assert code == 3 and rep["kind"] == "NotAdmissible", rep

    @pytest.mark.parametrize("command", ["wold", "witness"])
    def test_tol_below_the_norm_is_read(self, capsys, tmp_path, command):
        path = tmp_path / "model.json"
        path.write_text(self.ONE_SLOT)
        gap = ["--gap", "0.7"] if command == "witness" else []
        code, rep = run(capsys, command, "--in", str(path), "--tol", "0.99", *gap)
        assert code == 0, rep

    def test_zero_operand_keeps_its_report_at_any_tol(self, capsys, tmp_path):
        path = tmp_path / "zero.mat"
        path.write_text("3 3\n" + "0,0 0,0 0,0\n" * 3)
        for tol in ("1e-9", "5"):
            code, rep = run(capsys, "wold", "--in", str(path), "--tol", tol)
            assert code == 0 and rep["kernel_rank"] == 3 and rep["q_ranks"] == [], rep
            code, rep = run(capsys, "witness", "--in", str(path), "--tol", tol, "--gap", "0.5")
            assert code == 0 and rep["infinite_projection_witnessed"] is False, rep


class TestOptionSurface:
    """Each subcommand accepts exactly the tolerance, seed and output flags its call reads."""

    UNDECLARED = [
        (command, flag)
        for command, flags in DECLARED.items()
        for flag in ("--tol", "--cluster-tol", "--gap-tol", "--seed", "--out")
        if flag not in flags
    ]

    def usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # exactly one document
        assert captured.err == ""
        assert code == 2 and set(doc) == {"error", "kind"} and doc["kind"] == "ValueError", doc
        return doc

    @pytest.mark.parametrize("command, flag", UNDECLARED)
    def test_undeclared_flag_exits_2(self, capsys, command, flag):
        # the flag is refused before the subcommand reads its (here missing) input
        doc = self.usage_error(capsys, [command, *REQUIRED[command], flag, "3"])
        assert doc["error"] == f"unrecognized arguments: {flag} 3"

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--spec", POINTS_01, "--tol", "1e-9"],
            ["specestimate", "--in", "x.mat", "--seed", "3"],
            ["verify", "--in", "x.mat", "--cluster-tol", "1e-8"],
            ["verify", "--in", "x.mat", "--gap", "0.5"],
            ["classify"],
            ["witness", "--in", "x.mat"],
            ["nosuch", "--in", "x.mat"],
            [],
            ["wold", "--in", "x.mat", "--tol", "abc"],
            ["witness", "--in", "x.mat", "--gap", "half"],
            ["witness", "--in", "x.mat", "--gap", "nan"],
            ["witness", "--in", "x.mat", "--gap", "inf"],
            ["witness", "--in", "x.mat", "--gap=-inf"],
            ["synth", "--spec", POINTS_01, "--seed", "1.5"],
            ["synth", "--spec", POINTS_01, "--properness", "bogus"],
        ],
        ids=[
            "classify-tol", "specestimate-seed", "verify-cluster-tol", "verify-abbreviated-gap-tol",
            "missing-spec", "missing-gap", "unknown-subcommand", "no-subcommand", "tol-not-a-number",
            "gap-not-a-number", "gap-nan", "gap-inf", "gap-minus-inf", "seed-not-an-int", "unknown-properness",
        ],
    )
    def test_malformed_command_line_is_one_json_error(self, capsys, argv):
        self.usage_error(capsys, argv)

    @pytest.mark.parametrize("gap", ["0", "1", "1.5", "-2", "-1e-3"])
    def test_finite_gap_outside_the_unit_interval_is_inadmissible(self, capsys, tmp_path, gap):
        run(capsys, "synth", "--spec", POINTS_0H1, "--properness", "nonproper", "--out", str(tmp_path))
        for spelling in ([f"--gap={gap}"], ["--gap", gap]):
            code, rep = run(capsys, "witness", "--in", str(tmp_path / "model.json"), *spelling)
            assert code == 3 and rep["kind"] == "NotAdmissible", rep
            assert rep["error"].startswith("gap point must lie in (0, 1)")

    @pytest.mark.parametrize("command, flag, call", TOLERANCE_FLAGS, ids=[f"{c}{f}" for c, f, _ in TOLERANCE_FLAGS])
    def test_tolerance_flag_defaults_to_the_lab_call(self, capsys, tmp_path, command, flag, call):
        # the report without the flag is the report with the flag at the default of the lab call's signature
        run(capsys, "synth", "--spec", POINTS_0H1, "--properness", "nonproper", "--out", str(tmp_path))
        default = inspect.signature(call).parameters[flag[2:].replace("-", "_")].default
        if command == "synth":
            argv = ["synth", "--spec", POINTS_0H1, "--out", str(tmp_path / "again")]
        else:
            argv = [command, "--in", str(tmp_path / "model.json"), *(["--gap", "0.75"] if command == "witness" else [])]
        reports = []
        for extra in ([], [flag, repr(default)]):
            code, rep = run(capsys, *argv, *extra)
            rep.pop("timestamp")
            reports.append((code, rep))
        assert reports[0] == reports[1] and reports[0][0] == 0

    @pytest.mark.parametrize(
        "argv, error",
        [
            ([], "the following arguments are required: command"),
            (["nosuch"], "argument command: invalid choice: 'nosuch' (choose from 'classify', 'homcheck', "
                         "'isocheck', 'kgroups', 'synth', 'wold', 'verify', 'witness', 'specestimate')"),
        ],
        ids=["no-subcommand", "unknown-subcommand"],
    )
    def test_top_level_usage_error_text(self, capsys, argv, error):
        assert self.usage_error(capsys, argv)["error"] == error

    @pytest.mark.parametrize(
        "argv, built",
        [*(([c, *REQUIRED[c]], 1) for c in REQUIRED), ([], 9), (["nosuch"], 9), (["--help"], 9)],
        ids=[*REQUIRED, "no-subcommand", "unknown-subcommand", "help"],
    )
    def test_main_builds_only_the_parser_that_runs(self, capsys, monkeypatch, argv, built):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        with contextlib.suppress(SystemExit):  # --help prints the help and exits
            main(argv)
        capsys.readouterr()
        assert len(names) == built, names

    def test_verify_tol_bounds_the_scaling_residual(self, capsys, tmp_path):
        # an entry moved by 1e-5 breaks the scaling identity at 1e-8 but not at 1e-4
        run(capsys, "synth", "--spec", POINTS_0H1, "--properness", "nonproper", "--out", str(tmp_path))
        lines = (tmp_path / "model.mat").read_text().split("\n")
        lines[1] = lines[1].replace("0.0,0.0", "1e-05,0.0", 1)
        (tmp_path / "noisy.mat").write_text("\n".join(lines))
        code, rep = run(capsys, "verify", "--in", str(tmp_path / "noisy.mat"))
        assert code == 3 and rep["kind"] == "NotScalinglike"
        code, rep = run(capsys, "verify", "--in", str(tmp_path / "noisy.mat"), "--tol", "1e-4")
        assert code == 0 and rep["verdict"] == "nonproper"


class TestDeterminism:
    def strip_timestamp(self, rep):
        rep = dict(rep)
        rep.pop("timestamp")
        return json.dumps(rep, sort_keys=True)

    def test_fixed_seed_reports_identical(self, capsys, tmp_path):
        spec = '{"intervals": [[0,0],[0.25,0.75],[1,1]]}'
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["synth", "--spec", spec, "--depth", "6", "--samples", "5", "--seed", "31"]
        _, rep_a = run(capsys, *args, "--out", out_a)
        _, rep_b = run(capsys, *args, "--out", out_b)
        rep_a["model_path"] = rep_b["model_path"] = ""
        rep_a["matrix_path"] = rep_b["matrix_path"] = ""
        assert self.strip_timestamp(rep_a) == self.strip_timestamp(rep_b)
        mat_a = (tmp_path / "a" / "model.mat").read_text()
        mat_b = (tmp_path / "b" / "model.mat").read_text()
        assert mat_a == mat_b

    def test_seed_comes_from_the_flag_alone(self, capsys, tmp_path, monkeypatch):
        args = ["synth", "--spec", '{"intervals": [[0,0],[0.25,0.75],[1,1]]}', "--depth", "4", "--samples", "6"]
        _, zero = run(capsys, *args, "--seed", "0", "--out", str(tmp_path / "zero"))
        monkeypatch.setenv("SCALEX_SEED", "77")
        _, unflagged = run(capsys, *args, "--out", str(tmp_path / "env"))
        assert (unflagged["seed"], unflagged["eigenvalues"]) == (0, zero["eigenvalues"])
        _, other = run(capsys, *args, "--seed", "77", "--out", str(tmp_path / "other"))
        assert other["eigenvalues"] != zero["eigenvalues"]


def test_timestamp_is_utc_now(capsys):
    _, rep = run(capsys, "classify", "--spec", POINTS_01)
    stamp = rep["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", stamp), stamp
    when = datetime.fromisoformat(stamp)
    assert when.tzinfo is not None and when.utcoffset() == timedelta(0)
    assert abs(datetime.now(timezone.utc) - when) < timedelta(seconds=5)


@pytest.mark.parametrize(
    "ns",
    [0, 1_792_394_364_000_000_000, 1_792_394_364_000_000_999, 1_792_394_364_384_370_999, 951_782_400_000_001_000],
    ids=["epoch", "whole-second", "under-a-microsecond", "floored", "leap-day"],
)
def test_timestamp_spells_datetime_isoformat(capsys, monkeypatch, ns):
    # datetime.now floors the clock to microseconds and drops a zero fraction
    monkeypatch.setattr(time, "time_ns", lambda: ns)
    _, rep = run(capsys, "classify", "--spec", POINTS_01)
    want = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=ns // 1000)
    assert rep["timestamp"] == want.isoformat()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "scalex", "classify", "--spec", POINTS_01],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["infinite_projection"] is True


BLOCKED = json.dumps({"spectrum": json.loads(ZERO_TAIL), "proper": False})


@pytest.mark.parametrize(
    "argv, want",
    [
        (["classify", "--spec", POINTS_0H1], 0),
        (["classify", "--spec", '{"intervals": [[1,0]]}'], 2),
        (["classify", "--spec", '{"intervals": [[0.5,0.5]]}'], 3),
        (["homcheck", "--from", descriptor(POINTS_0H1), "--to", descriptor(POINTS_01)], 0),
        (["homcheck", "--from", "{broken", "--to", descriptor(POINTS_01)], 2),
        (["homcheck", "--from", BLOCKED, "--to", descriptor(POINTS_01)], 3),
        (["isocheck", "--from", descriptor(POINTS_0H1), "--to", descriptor(POINTS_01)], 0),
        (["isocheck", "--from", descriptor(POINTS_0H1), "--to", '{"spectrum": {}}'], 2),
        (["isocheck", "--from", descriptor(POINTS_0H1), "--to", BLOCKED], 3),
        (["kgroups", "--spec", descriptor(POINTS_01)], 0),
        (["kgroups", "--spec", '{"base": {"intervals": [[0,1]]}, "removed": "x"}'], 2),
        (["kgroups", "--spec", '{"base": {"intervals": [[0,1]]}, "removed": [2]}'], 3),
    ],
)
def test_exact_engine_runs_without_numpy(argv, want):
    # -X importtime logs every module the interpreter loads, to stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "scalex", *argv], capture_output=True, text=True
    )
    assert proc.returncode == want, proc.stdout
    json.loads(proc.stdout)
    loaded = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "scalex.spectra" in loaded
    assert not {m for m in loaded if m.partition(".")[0] == "numpy"}


@pytest.mark.parametrize(
    "argv, want",
    [
        (["classify", "--spec", POINTS_0H1], 0),
        (["synth", "--spec", POINTS_0H1, "--properness", "nonproper", "--depth", "40", "--out"], 0),
        (["specestimate", "--in", "no-such-file.mat"], 2),
    ],
    ids=["classify", "synth", "error"],
)
def test_closed_stdout_is_no_traceback(tmp_path, argv, want):
    # as in `scalex synth ... | head -0`: the reader has gone before the report is written
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "scalex", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr, proc.stderr
    assert proc.returncode == want

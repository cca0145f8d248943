import json
import subprocess
import sys

import pytest

import scalex

README_NAMES = [
    "ScalingSpectrum",
    "Properness",
    "has_infinite_projection",
    "synthesize",
    "realize",
    "classify_properness",
    "wold_decompose",
]


def test_readme_import_line():
    from scalex import (  # noqa: F401
        Properness,
        ScalingSpectrum,
        classify_properness,
        has_infinite_projection,
        realize,
        synthesize,
        wold_decompose,
    )
    from scalex.operators import synthesize as direct

    assert synthesize is direct


def test_dir_lists_eager_and_lab_names():
    names = dir(scalex)
    for name in README_NAMES + ["operators", "wold", "WoldReport", "__version__"]:
        assert name in names, name


def test_lab_modules_resolve_as_attributes():
    assert scalex.wold.wold_decompose is scalex.wold_decompose


def test_star_import_still_exports_the_lab():
    ns = {}
    exec("from scalex import *", ns)
    assert {"wold_decompose", "classify_properness", "hom_exists", "k_of_generator"} <= ns.keys()


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scalex.no_such_name


def test_import_loads_no_numpy():
    code = "import sys, scalex; scalex.hom_exists; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


# what the exact-engine subcommands never use: the lab's numpy, and what dataclasses and datetime pull in
LAB_ONLY = ("numpy", "dataclasses", "inspect", "datetime")
SPEC = '{"intervals": [[0,0],[0.5,0.5],[1,1]]}'
DESCRIPTOR = '{"spectrum": %s, "proper": true}' % SPEC
EXACT_ENGINE_CALLS = [
    (["classify", "--spec", SPEC], 0),
    (["classify", "--spec", '{"intervals": [[1,0]]}'], 2),
    (["homcheck", "--from", DESCRIPTOR, "--to", DESCRIPTOR], 0),
    (["homcheck", "--from", "{broken", "--to", DESCRIPTOR], 2),
    (["isocheck", "--from", DESCRIPTOR, "--to", DESCRIPTOR], 0),
    (["isocheck", "--from", DESCRIPTOR, "--to", '{"spectrum": {}}'], 2),
    (["kgroups", "--spec", DESCRIPTOR], 0),
    (["kgroups", "--spec", '{"base": {"intervals": [[0,1]]}, "removed": "x"}'], 2),
]


def child_modules(code: str) -> list[str]:
    """Which of LAB_ONLY a fresh interpreter has loaded once it has run code."""
    tail = f"import sys; print(json.dumps([m for m in {LAB_ONLY!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", f"import json\n{code}\n{tail}"],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_exact_engine_subcommands_load_no_lab_modules():
    code = f"""
import contextlib, io
from scalex.cli import main
for argv, want in {EXACT_ENGINE_CALLS!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == want, (argv, out.getvalue())
    json.loads(out.getvalue())
"""
    preloaded = child_modules("pass")
    assert not set(child_modules(code)) - set(preloaded)


RETIRED = [
    "PiecewiseFunction", "functional_calculus", "UndefinedAt", "q_projections",
    "pairs", "SampledFunction", "SampledPairRep", "defect_projection", "function_action",
    "matrix_units", "pair_relation_check", "shift_action", "NotIsolated", "IndexOutOfDepth",
    "require_square", "is_empty", "proper_default", "ev_component_class", "dimension", "boundary_q_index",
    "k_of_toeplitz_algebra", "k_of_quotient_algebra", "without",
    "Component", "components", "isolated_at", "interval_index_of",
    "scaling_defect", "ScalingDefect", "polar", "conjugate_random", "random_unitary", "projection_defect",
    "has_compact_open_at_one", "boundary_localized",
]


@pytest.fixture(scope="module")
def wold_report():
    return scalex.wold_decompose(scalex.realize(scalex.TruncatedShiftModel(1, 3, [[0.5]])))


@pytest.fixture(scope="module")
def witness_report():
    return scalex.infinite_projection_witness(scalex.realize(scalex.TruncatedShiftModel(1, 3, [[0.5]])), 0.25)[1]


@pytest.fixture(scope="module")
def verdict():
    return scalex.classify_properness(scalex.realize(scalex.TruncatedShiftModel(1, 3, [[0.5]])))


@pytest.mark.parametrize("name", RETIRED)
def test_retired_names_are_gone(name, wold_report, witness_report, verdict):
    assert name not in scalex.__all__
    assert name not in dir(scalex)
    assert name not in scalex.operators.__all__
    with pytest.raises(AttributeError):
        getattr(scalex, name)
    owners = (scalex.operators, scalex.errors, scalex.spectra, scalex.ktheory, scalex.wold, scalex.wold.WoldReport,
              wold_report, scalex.operators.WitnessReport, witness_report, scalex.operators.PropernessVerdict,
              verdict, scalex.spectra.SpectralSet, scalex.ktheory.PuncturedSet)
    for owner in owners:
        assert not hasattr(owner, name), owner


def test_component_has_no_membership_test():
    # `contains` stays on the sets: the K-rank oracle probes a punctured set through it
    assert hasattr(scalex.spectra.SpectralSet, "contains") and hasattr(scalex.ktheory.PuncturedSet, "contains")

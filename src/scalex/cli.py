"""Command-line front end for the decision engine and the operator lab.

Every subcommand prints a single JSON report (sorted keys, deterministic for
a fixed seed apart from the ``timestamp`` field).  Exit codes: 0 success,
2 malformed input or command line, 3 mathematically inadmissible request.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .errors import AdmissibilityError, DimensionMismatch, ScalexError
from .ktheory import PuncturedSet, k_of_functions, k_of_generator
from .spectra import (
    GeneratorDescriptor,
    Properness,
    ScalingSpectrum,
    SpectralSet,
    has_infinite_projection,
    hom_exists,
    iso_exists,
    nonproper_admissible,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INADMISSIBLE = 3


def _bind_lab() -> None:
    """Bind the numpy-backed lab as module globals, once, so wrappers put on them stay."""
    global asdict, np, matio, estimate_spectrum, infinite_projection_witness
    global realize, synthesize, wold_decompose, classify_properness
    if "wold_decompose" in globals():
        return
    from dataclasses import asdict

    import numpy as np

    from . import matio
    from .operators import classify_properness, estimate_spectrum, infinite_projection_witness
    from .operators import realize, synthesize
    from .wold import wold_decompose


def _timestamp() -> str:
    """UTC now as ``datetime.now(timezone.utc).isoformat()`` spells it: microseconds floored, omitted at 0."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(seconds)[:6]
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def _load_json_arg(value: str) -> dict:
    """Accept inline JSON (starts with '{') or a path to a JSON file holding an object."""
    try:
        if value.lstrip().startswith("{"):
            obj = json.loads(value)
        else:
            with open(value) as fh:
                obj = json.load(fh)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    except UnicodeDecodeError:  # only a file is decoded: inline JSON is text already
        raise ValueError(f"{value}: not UTF-8 text") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{value}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_operand(path: str) -> numpy.ndarray:
    """The matrix of a matrix file, or the realized model of a model file (``.json``)."""
    _bind_lab()
    return realize(matio.load_model(path)) if path.endswith(".json") else matio.load_matrix(path)


def cmd_classify(args: argparse.Namespace) -> dict:
    spectrum = ScalingSpectrum.from_json(_load_json_arg(args.spec))
    admissible = nonproper_admissible(spectrum)
    infinite = has_infinite_projection(spectrum)
    k_proper = k_of_generator(GeneratorDescriptor(spectrum, Properness.PROPER))
    report = {
        "valid": True,
        "spectrum": spectrum.to_json(),
        "nonproper_admissible": admissible,
        "infinite_projection": infinite,
        "compact_open_at_one": infinite,
        "criteria_agree": True,  # both keys restate the one criterion; benchmark/workloads.py still reads them
        "k_proper": [k_proper.k0_rank, k_proper.k1_rank],
        "k_nonproper": None,
    }
    if admissible:
        k_np = k_of_generator(GeneratorDescriptor(spectrum, Properness.NON_PROPER))
        report["k_nonproper"] = [k_np.k0_rank, k_np.k1_rank]
    return report


def cmd_check(args: argparse.Namespace) -> dict:
    """homcheck and isocheck: whether the generator-sending map exists, and else which clause fails."""
    src = GeneratorDescriptor.from_json(_load_json_arg(getattr(args, "from")))
    dst = GeneratorDescriptor.from_json(_load_json_arg(args.to))
    a, b = src.spectrum.set, dst.spectrum.set
    if args.command == "homcheck":
        exists, reason = hom_exists(src, dst), "properness" if b.is_subset(a) else "subset"
    else:
        exists, reason = iso_exists(src, dst), "spectrum" if a != b else "properness"
    return {
        f"{args.command[:3]}_exists": exists,
        "reason": None if exists else reason,
        "from": src.to_json(),
        "to": dst.to_json(),
    }


def cmd_kgroups(args: argparse.Namespace) -> dict:
    obj = _load_json_arg(args.spec)
    if "proper" in obj:
        desc = GeneratorDescriptor.from_json(obj)
        result = k_of_generator(desc)
        kind = "descriptor"
    elif "base" in obj:
        result = k_of_functions(PuncturedSet.from_json(obj))
        kind = "punctured-set"
    else:
        result = k_of_functions(PuncturedSet(SpectralSet.from_json(obj)))
        kind = "spectral-set"
    return {**result.to_json(), "input_kind": kind}


def cmd_synth(args: argparse.Namespace) -> dict:
    _bind_lab()
    spectrum = ScalingSpectrum.from_json(_load_json_arg(args.spec))
    flag = Properness(args.properness)
    model = synthesize(spectrum, flag, args.depth, args.samples, args.seed)
    x = realize(model)  # before any write: a matrix too large to allocate leaves no files behind
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    model_path = os.path.join(outdir, "model.json")
    matrix_path = os.path.join(outdir, "model.mat")
    matio.save_model(model_path, model)
    matio.save_matrix(matrix_path, x)
    # at depth >= 3 the realized model's singular values are exactly 0, diag(A) and 1: no n x n SVD
    eigenvalues = model.A.diagonal().real.tolist()
    estimated = estimate_spectrum(np.diag([0.0, 1.0, *eigenvalues]), **_tolerances_given(args))
    return {
        "model_path": model_path,
        "matrix_path": matrix_path,
        "fiber_dim": model.fiber_dim,
        "depth": model.depth,
        "properness": flag.value,
        "seed": args.seed,
        "eigenvalues": eigenvalues,
        "estimated_spectrum": estimated.to_json(),
    }


def cmd_wold(args: argparse.Namespace) -> dict:
    x = _load_operand(getattr(args, "in"))
    return wold_decompose(x, **_tolerances_given(args)).to_json()


def cmd_verify(args: argparse.Namespace) -> dict:
    path = getattr(args, "in")
    x = _load_operand(path)  # its own line: classify_properness is bound by the load's _bind_lab
    verdict = classify_properness(x, **_tolerances_given(args))
    # R lies on a model's last slot by construction; benchmark/workloads.py still reads the key
    return {**asdict(verdict), "verdict": verdict.verdict.value,
            "boundary_localized": path.endswith(".json") or None}


def cmd_witness(args: argparse.Namespace) -> dict:
    x = _load_operand(getattr(args, "in"))
    u, report = infinite_projection_witness(x, args.gap, **_tolerances_given(args))
    out = asdict(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        upath = os.path.join(args.out, "witness.mat")
        matio.save_matrix(upath, u)
        out["witness_path"] = upath
    return out


def cmd_specestimate(args: argparse.Namespace) -> dict:
    x = _load_operand(getattr(args, "in"))
    return estimate_spectrum(x, **_tolerances_given(args)).to_json()


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they end in the same JSON error report as bad input."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number, "-1e-3" and "-inf" among them, is a flag's value, not an unknown flag
        self._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|nan)$", re.I)

    def error(self, message):
        raise ValueError(message)


def _tolerance(text: str) -> float:
    """The type of every tolerance flag: a finite float > 0 (NaN is not)."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerances must be > 0 and finite, got {text}")
    return value


def _finite(text: str) -> float:
    """The type of --gap: a finite float; whether it lies in (0, 1) is the lab's question."""
    value = float(text)
    if not abs(value) < float("inf"):  # NaN is not
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_IN = {"--in": {"required": True}}
_PAIR = {"--from": {"required": True, "help": "source descriptor JSON"},
         "--to": {"required": True, "help": "target descriptor JSON"}}

# Each subcommand, declared once: its handler, its help, the tolerances its lab call reads and its
# other flags.  A tolerance flag has no default here: one left out takes the lab call's default.
SUBCOMMANDS = {
    "classify": (cmd_classify, "classify a spectrum: admissibility, infinite projections, K-ranks", (),
                 {"--spec": {"required": True, "help": "spectral-set JSON (inline or path)"}}),
    "homcheck": (cmd_check, "decide existence of a generator-sending homomorphism", (), _PAIR),
    "isocheck": (cmd_check, "decide existence of a generator-sending isomorphism", (), _PAIR),
    "kgroups": (cmd_kgroups, "K-group ranks of a descriptor, punctured set or spectral set", (),
                {"--spec": {"required": True}}),
    "synth": (cmd_synth, "synthesize a truncated shift model for a spectrum", ("cluster_tol",), {
        "--spec": {"required": True},
        "--properness": {"type": str.lower, "choices": [f.value for f in Properness], "default": "proper"},
        "--depth": {"type": int, "default": 6},
        "--samples": {"type": int, "default": 3},
        "--seed": {"type": int, "default": 0},
        "--out": {"help": "output directory (default: cwd)"},
    }),
    "wold": (cmd_wold, "run the Wold decomposition on a matrix or model file", ("tol",), _IN),
    "verify": (cmd_verify, "check the scaling identity and classify properness", ("tol", "gap_tol"), _IN),
    "witness": (cmd_witness, "construct an infinite-projection witness at a gap point", ("tol", "cluster_tol"), {
        **_IN,
        "--gap": {"type": _finite, "required": True, "help": "gap point c in (0,1)"},
        "--out": {"help": "directory for the witness matrix"},
    }),
    "specestimate": (cmd_specestimate, "estimate the spectrum of a matrix or model", ("cluster_tol",), _IN),
}


def _tolerances_given(args: argparse.Namespace) -> dict:
    """The tolerance flags given on the command line, as keywords for the lab call."""
    return {name: getattr(args, name) for name in SUBCOMMANDS[args.command][2] if name in args}


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of subcommand ``name`` alone, or of every subcommand when ``name`` names none."""
    parser = _Parser(prog="scalex", description="scaling-element decision engine and operator lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in (name,) if name in SUBCOMMANDS else SUBCOMMANDS:
        _, help_, tolerances, flags = SUBCOMMANDS[command]
        p = sub.add_parser(command, help=help_, allow_abbrev=False)
        for tol in tolerances:
            p.add_argument("--" + tol.replace("_", "-"), type=_tolerance, default=argparse.SUPPRESS)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    code, indent = EXIT_OK, 2
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        report = SUBCOMMANDS[args.command][0](args)
    except MemoryError as exc:  # an operand too large to allocate: malformed input, as a lying header is
        code, indent, report = EXIT_PARSE, None, {"error": str(exc), "kind": DimensionMismatch.__name__}
    except (ScalexError, ValueError, OSError, KeyError) as exc:
        code = EXIT_INADMISSIBLE if isinstance(exc, AdmissibilityError) else EXIT_PARSE
        indent, report = None, {"error": str(exc), "kind": type(exc).__name__}
    else:
        report["command"] = args.command
        report["timestamp"] = _timestamp()
    try:
        json.dump(report, sys.stdout, indent=indent, sort_keys=True)
        print(flush=True)
    except BrokenPipeError:
        # the reader is gone; aim stdout at devnull so the exit-time flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def entrypoint() -> None:
    sys.exit(main())

"""Command-line front end for the decision engine and the operator lab.

Every subcommand prints a single JSON report (sorted keys, deterministic for
a fixed seed apart from the ``timestamp`` field).  Exit codes: 0 success,
2 malformed input or command line, 3 mathematically inadmissible request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import AdmissibilityError, DimensionMismatch, ScalexError
from .ktheory import PuncturedSet, k_of_functions, k_of_generator
from .spectra import (
    GeneratorDescriptor,
    Properness,
    ScalingSpectrum,
    SpectralSet,
    has_compact_open_at_one,
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
    if not isinstance(obj, dict):
        raise ValueError(f"{value}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _load_operand(path: str) -> tuple[np.ndarray, int | None]:
    """A matrix plus its fiber dimension when the input is a model file."""
    _bind_lab()
    if path.endswith(".json"):
        model = matio.load_model(path)
        return realize(model), model.fiber_dim
    return matio.load_matrix(path), None


def cmd_classify(args: argparse.Namespace) -> dict:
    spectrum = ScalingSpectrum.from_json(_load_json_arg(args.spec))
    admissible = nonproper_admissible(spectrum)
    infinite = has_infinite_projection(spectrum)
    compact_open = has_compact_open_at_one(spectrum)
    k_proper = k_of_generator(GeneratorDescriptor(spectrum, Properness.PROPER))
    report = {
        "valid": True,
        "spectrum": spectrum.to_json(),
        "nonproper_admissible": admissible,
        "infinite_projection": infinite,
        "compact_open_at_one": compact_open,
        "criteria_agree": infinite == compact_open,
        "k_proper": [k_proper.k0_rank, k_proper.k1_rank],
        "k_nonproper": None,
    }
    if admissible:
        k_np = k_of_generator(GeneratorDescriptor(spectrum, Properness.NON_PROPER))
        report["k_nonproper"] = [k_np.k0_rank, k_np.k1_rank]
    return report


def cmd_homcheck(args: argparse.Namespace) -> dict:
    src = GeneratorDescriptor.from_json(_load_json_arg(getattr(args, "from")))
    dst = GeneratorDescriptor.from_json(_load_json_arg(args.to))
    exists = hom_exists(src, dst)
    reason = None
    if not exists:
        reason = "properness" if dst.spectrum.set.is_subset(src.spectrum.set) else "subset"
    return {
        "hom_exists": exists,
        "reason": reason,
        "from": src.to_json(),
        "to": dst.to_json(),
    }


def cmd_isocheck(args: argparse.Namespace) -> dict:
    src = GeneratorDescriptor.from_json(_load_json_arg(getattr(args, "from")))
    dst = GeneratorDescriptor.from_json(_load_json_arg(args.to))
    exists = iso_exists(src, dst)
    reason = None
    if not exists:
        reason = "spectrum" if src.spectrum.set != dst.spectrum.set else "properness"
    return {
        "iso_exists": exists,
        "reason": reason,
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
    return {"k0": result.k0_rank, "k1": result.k1_rank, "input_kind": kind}


def cmd_synth(args: argparse.Namespace) -> dict:
    _bind_lab()
    seed = args.seed if args.seed is not None else int(os.environ.get("SCALEX_SEED", "0"))
    spectrum = ScalingSpectrum.from_json(_load_json_arg(args.spec))
    flag = Properness(args.properness)
    model = synthesize(spectrum, flag, args.depth, args.samples, seed)
    x = realize(model)  # before any write: a matrix too large to allocate leaves no files behind
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    model_path = os.path.join(outdir, "model.json")
    matrix_path = os.path.join(outdir, "model.mat")
    matio.save_model(model_path, model)
    matio.save_matrix(matrix_path, x)
    estimated = estimate_spectrum(x, args.cluster_tol)
    return {
        "model_path": model_path,
        "matrix_path": matrix_path,
        "fiber_dim": model.fiber_dim,
        "depth": model.depth,
        "properness": flag.value,
        "seed": seed,
        "eigenvalues": [float(v.real) for v in np.diag(model.A)],
        "estimated_spectrum": estimated.to_json(),
    }


def cmd_wold(args: argparse.Namespace) -> dict:
    x, _ = _load_operand(getattr(args, "in"))
    report = wold_decompose(x, args.tol).to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report["report_path"] = args.out
    return report


def cmd_verify(args: argparse.Namespace) -> dict:
    x, fiber_dim = _load_operand(getattr(args, "in"))
    verdict = classify_properness(x, args.tol, args.gap_tol, fiber_dim)
    return {**asdict(verdict), "verdict": verdict.verdict.value}


def cmd_witness(args: argparse.Namespace) -> dict:
    x, _ = _load_operand(getattr(args, "in"))
    u, report = infinite_projection_witness(x, args.gap, args.tol, args.cluster_tol)
    out = {
        **asdict(report),
        "infinite_projection_witnessed": bool(report.dominated and report.norm_difference >= 0.5),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        upath = os.path.join(args.out, "witness.mat")
        matio.save_matrix(upath, u)
        out["witness_path"] = upath
    return out


def cmd_specestimate(args: argparse.Namespace) -> dict:
    x, _ = _load_operand(getattr(args, "in"))
    return estimate_spectrum(x, args.cluster_tol).to_json()


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they end in the same JSON error report as bad input."""

    def error(self, message):
        raise ValueError(message)


def _tolerance(text: str) -> float:
    """The type of every tolerance flag: a float > 0 (NaN is not)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"tolerances must be > 0, got {text}")
    return value


def _finite(text: str) -> float:
    """The type of --gap: a finite float; whether it lies in (0, 1) is the lab's question."""
    value = float(text)
    if not abs(value) < float("inf"):  # NaN is not
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares exactly the tolerances its lab call reads, with their defaults."""
    parser = _Parser(prog="scalex", description="scaling-element decision engine and operator lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, **tolerances):
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(func=func)
        for dest, default in tolerances.items():
            p.add_argument("--" + dest.replace("_", "-"), type=_tolerance, default=default)
        return p

    p = add("classify", cmd_classify, "classify a spectrum: admissibility, infinite projections, K-ranks")
    p.add_argument("--spec", required=True, help="spectral-set JSON (inline or path)")

    for name, func, help_ in (
        ("homcheck", cmd_homcheck, "decide existence of a generator-sending homomorphism"),
        ("isocheck", cmd_isocheck, "decide existence of a generator-sending isomorphism"),
    ):
        p = add(name, func, help_)
        p.add_argument("--from", required=True, help="source descriptor JSON")
        p.add_argument("--to", required=True, help="target descriptor JSON")

    p = add("kgroups", cmd_kgroups, "K-group ranks of a descriptor, punctured set or spectral set")
    p.add_argument("--spec", required=True)

    p = add("synth", cmd_synth, "synthesize a truncated shift model for a spectrum", cluster_tol=1e-8)
    p.add_argument("--spec", required=True)
    p.add_argument("--properness", type=str.lower, choices=[f.value for f in Properness], default="proper")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--seed", type=int, default=None, help="falls back to env SCALEX_SEED, then 0")
    p.add_argument("--out", default=None, help="output directory (default: cwd)")

    p = add("wold", cmd_wold, "run the Wold decomposition on a matrix or model file", tol=1e-9)
    p.add_argument("--in", required=True)
    p.add_argument("--out", default=None, help="also write the report JSON here")

    p = add("verify", cmd_verify, "check the scaling identity and classify properness", tol=1e-8, gap_tol=0.1)
    p.add_argument("--in", required=True)

    p = add("witness", cmd_witness, "construct an infinite-projection witness at a gap point",
            tol=1e-9, cluster_tol=1e-8)
    p.add_argument("--in", required=True)
    p.add_argument("--gap", type=_finite, required=True, help="gap point c in (0,1)")
    p.add_argument("--out", default=None, help="directory for the witness matrix")

    p = add("specestimate", cmd_specestimate, "estimate the spectrum of a matrix or model", cluster_tol=1e-8)
    p.add_argument("--in", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    code, indent = EXIT_OK, 2
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
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

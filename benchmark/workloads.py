"""Seeded inputs, planted truth and output checkers for the workloads.

``decide`` and ``lab`` are the benchmark's workloads; ``lab`` interleaves
``lab_wide`` and ``wold_deep``, which can also run alone.  Every input the
program sees is a file written here: spectrum and descriptor JSON for
``decide``, conjugated model matrices for ``wold_deep``, spectrum JSON for
``lab_wide`` (whose model files the program writes itself).  Each
operation carries a checker that compares the program's exit code and JSON
report with the truth planted at generation time.  The truth comes from the
construction of the input and from small reference decisions written here,
never from the program's own code.

Shapes are fixed lists so that the cost of a workload does not depend on the
seed; the seed draws the spectra, flags, unitaries and gap points.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

GRID = 64  # endpoints are multiples of 1/64: exact in binary floats and in JSON

# (depth, fiber dimension) of the wold_deep models.  Deep and thin pairs keep
# every model at a similar cost, so per-call latency has one mode.
WOLD_SHAPES = [(16, 5), (18, 5), (20, 4), (22, 4), (24, 3), (30, 2), (32, 2)]
# (depth, target fiber dimension) of the lab_wide chains: shallow, wide, n ~ 400.
LAB_SHAPES = [(4, 90), (5, 80), (6, 70), (8, 50)]
LAB_CLUSTER_TOL = 0.1  # below every planted gap, above the sample spacing
EIG_TOL = 1e-8
RESIDUAL_TOL = 1e-8

Check = Callable[[int, dict], "str | None"]


@dataclass
class Op:
    """One CLI invocation: ``scalex <argv>``, judged by ``check``.

    ``starts_group`` is False for the later calls of a lab chain, which only
    make sense after the chain's first call; a timed loop stops at a group
    boundary.
    """

    argv: list[str]
    check: Check
    starts_group: bool = True


def judge(op: Op, code: int, stdout: str) -> str | None:
    """Failure reason for one finished invocation, or None when it is correct."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"exit {code}, stdout is not one JSON document: {stdout[:120]!r}"
    if not isinstance(doc, dict):
        return "report is not a JSON object"
    return op.check(code, doc)


def _expect_error(code: int, kind: str) -> Check:
    def check(got: int, doc: dict) -> str | None:
        if got != code:
            return f"exit {got}, expected {code} ({kind})"
        if doc.get("kind") != kind:
            return f"error kind {doc.get('kind')!r}, expected {kind!r}"
        return None

    return check


def _expect_fields(command: str, expected: dict) -> Check:
    def check(code: int, doc: dict) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0: {doc.get('error')!r}"
        if doc.get("command") != command:
            return f"command {doc.get('command')!r}, expected {command!r}"
        for key, value in expected.items():
            if doc.get(key) != value:
                return f"{command}: {key} = {doc.get(key)!r}, expected {value!r}"
        return None

    return check


# ---------------------------------------------------------------- reference


def _normalize(raw) -> list[list[float]]:
    out: list[list[float]] = []
    for lo, hi in sorted((float(lo), float(hi)) for lo, hi in raw):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _contains(ivs, x: float) -> bool:
    return any(lo <= x <= hi for lo, hi in ivs)


def _is_subset(small, big) -> bool:
    return all(any(blo <= lo and hi <= bhi for blo, bhi in big) for lo, hi in small)


def _admissible(ivs) -> bool:
    """Non-proper flag allowed: 0 and 1 isolated, at least one more component."""
    return [0.0, 0.0] in ivs and [1.0, 1.0] in ivs and len(ivs) >= 3


def _infinite_projection(ivs) -> bool:
    return ivs[0][1] < 1.0  # the component at 0 stops short of 1


def _k_ranks(ivs, removed) -> list[int]:
    """K0/K1 ranks of functions on the set with ``removed`` punctured."""
    k0 = k1 = 0
    for lo, hi in ivs:
        cuts = [x for x in removed if lo <= x <= hi]
        if lo == hi:
            k0 += not cuts
            continue
        bounds = [lo] + sorted(x for x in cuts if lo < x < hi) + [hi]
        for a, b in zip(bounds, bounds[1:]):
            left = a == lo and lo not in cuts
            right = b == hi and hi not in cuts
            k0 += left and right
            k1 += not left and not right
    return [k0, k1]


def _k_generator(ivs, proper: bool) -> list[int]:
    return _k_ranks(ivs, [0.0] if proper else [0.0, 1.0])


# ---------------------------------------------------------------- decide


def _grid(rng, lo: int, hi: int, size: int) -> list[int]:
    return sorted(rng.choice(np.arange(lo, hi), size=size, replace=False).tolist())


def _random_set(rng, max_components: int = 6) -> list[list[float]]:
    """Raw (unsorted, possibly overlapping) intervals and points on the grid."""
    m = int(rng.integers(1, max_components + 1))
    cuts = _grid(rng, 1, 2 * GRID, 2 * m)
    raw = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        raw.append([a / GRID, a / GRID] if rng.random() < 0.4 else [a / GRID, b / GRID])
    return raw


def _random_spectrum(rng) -> list[list[float]]:
    """A normalized scaling spectrum (contains 0 and 1) of 1 to 8 components."""
    if rng.random() < 0.4:  # the shape the non-proper flag needs
        inner = [iv for iv in _random_set(rng, 5) if iv[0] > 0 and not iv[0] <= 1.0 <= iv[1]]
        inner = inner or [[0.5, 0.5]]
        return _normalize([[0.0, 0.0], [1.0, 1.0]] + inner)
    raw = _random_set(rng, 6)
    raw.append([0.0, 0.0] if rng.random() < 0.5 else [0.0, raw[0][1]])
    if not _contains(_normalize(raw), 1.0):
        below = max(iv[0] for iv in raw if iv[0] < 1.0)
        raw.append([1.0, 1.0] if rng.random() < 0.5 else [below, 1.0])
    return _normalize(raw)


def _scrambled(rng, ivs) -> list[list[float]]:
    """Same set, written unsorted with intervals split into overlapping pieces."""
    raw = []
    for lo, hi in ivs:
        if hi - lo >= 2 / GRID and rng.random() < 0.5:
            mid = (lo + hi) / 2
            raw += [[lo, mid + 1 / GRID / 2], [mid, hi]]
        else:
            raw.append([lo, hi])
    order = rng.permutation(len(raw))
    return [raw[i] for i in order]


def _descriptor(rng, ivs) -> tuple[dict, bool]:
    proper = not (_admissible(ivs) and rng.random() < 0.6)
    return {"spectrum": {"intervals": _scrambled(rng, ivs)}, "proper": proper}, proper


def _echo(ivs, proper: bool) -> dict:
    return {"spectrum": {"intervals": ivs}, "proper": proper}


def _subset_of(rng, ivs) -> list[list[float]]:
    """A scaling spectrum inside ``ivs``: drop components, shrink intervals."""
    out = []
    for lo, hi in ivs:
        keep = _contains([[lo, hi]], 0.0) or _contains([[lo, hi]], 1.0)
        if not keep and rng.random() < 0.4:
            continue
        if lo < hi and not keep and rng.random() < 0.5:
            a, b = sorted(rng.integers(round(lo * GRID), round(hi * GRID) + 1, size=2).tolist())
            lo, hi = a / GRID, b / GRID
        out.append([lo, hi])
    return _normalize(out)


def _classify_case(rng) -> tuple[dict, Check]:
    ivs = _random_spectrum(rng)
    admissible = _admissible(ivs)
    infinite = _infinite_projection(ivs)
    expected = {
        "valid": True,
        "spectrum": {"intervals": ivs},
        "nonproper_admissible": admissible,
        "infinite_projection": infinite,
        "compact_open_at_one": infinite,
        "criteria_agree": True,
        "k_proper": _k_generator(ivs, True),
        "k_nonproper": _k_generator(ivs, False) if admissible else None,
    }
    return {"intervals": _scrambled(rng, ivs)}, _expect_fields("classify", expected)


def _pair_case(rng, command: str) -> tuple[dict, dict, Check]:
    x = _random_spectrum(rng)
    if command == "isocheck":
        y = x if rng.random() < 0.6 else _random_spectrum(rng)
    else:
        y = _subset_of(rng, x) if rng.random() < 0.7 else _random_spectrum(rng)
    xd, xp = _descriptor(rng, x)
    yd, yp = _descriptor(rng, y)
    if command == "isocheck":
        exists = x == y and xp == yp
        reason = None if exists else ("spectrum" if x != y else "properness")
        key = "iso_exists"
    else:
        subset = _is_subset(y, x)
        exists = subset and (xp or not yp)
        reason = None if exists else ("subset" if not subset else "properness")
        key = "hom_exists"
    expected = {key: exists, "reason": reason, "from": _echo(x, xp), "to": _echo(y, yp)}
    return xd, yd, _expect_fields(command, expected)


def _kgroups_case(rng, kind: str) -> tuple[dict, Check]:
    if kind == "descriptor":
        ivs = _random_spectrum(rng)
        doc, proper = _descriptor(rng, ivs)
        k = _k_generator(ivs, proper)
    else:
        ivs = _normalize(_random_set(rng, 6))
        if kind == "spectral-set":
            doc, k = {"intervals": _scrambled(rng, ivs)}, _k_ranks(ivs, [])
        else:
            ends = sorted({x for iv in ivs for x in iv})
            removed = rng.choice(ends, size=int(rng.integers(1, len(ends) + 1)), replace=False)
            removed = sorted(float(x) for x in removed)
            doc = {"base": {"intervals": _scrambled(rng, ivs)}, "removed": removed}
            k = _k_ranks(ivs, removed)
    return doc, _expect_fields("kgroups", {"k0": k[0], "k1": k[1], "input_kind": kind})


def _bad_inputs(rng) -> list[tuple[str, str, int, str]]:
    """(command, file text, exit code, error kind): 6 malformed, 6 inadmissible."""
    ivs = _random_spectrum(rng)
    good = json.dumps({"intervals": ivs})
    inner = [iv for iv in ivs if iv[0] > 0 and iv[1] < 1] or [[0.5, 0.5]]
    no_one = json.dumps({"intervals": [[0.0, 0.0]] + inner})
    no_zero = json.dumps({"intervals": inner + [[1.0, 1.0]]})
    blocked = json.dumps({"intervals": [[0.0, 1.0]]})
    hi = float(rng.integers(1, GRID)) / GRID
    return [
        ("classify", f'{{"intervals": [[0, 0], [{hi + 0.5}, {hi}], [1, 1]]}}', 2, "InvalidInterval"),
        ("classify", f'{{"intervals": [[-{hi}, 0], [1, 1]]}}', 2, "NegativeEndpoint"),
        ("classify", '{"intervals": [[0, 0], [0.5, 1e999], [1, 1]]}', 2, "InvalidInterval"),
        ("homcheck", f'{{"spectrum": {good}}}', 2, "InvalidInterval"),
        ("isocheck", '{"spectrum": {"points": [0, 1]}, "proper": true}', 2, "InvalidInterval"),
        ("kgroups", good[: int(rng.integers(1, len(good) - 1))], 2, "JSONDecodeError"),
        ("classify", no_one, 3, "NotAdmissible"),
        ("classify", no_zero, 3, "NotAdmissible"),
        ("homcheck", f'{{"spectrum": {blocked}, "proper": false}}', 3, "NotAdmissible"),
        ("isocheck", f'{{"spectrum": {blocked}, "proper": false}}', 3, "NotAdmissible"),
        ("kgroups", f'{{"spectrum": {blocked}, "proper": false}}', 3, "NotAdmissible"),
        ("kgroups", f'{{"base": {good}, "removed": [{2 + hi}]}}', 3, "NotMember"),
    ]


def make_decide(rng, workdir: str) -> list[Op]:
    """48 invocations: 36 valid decisions, 6 malformed inputs, 6 inadmissible requests."""
    ops: list[Op] = []

    def put(role: str, doc) -> str:
        path = os.path.join(workdir, f"op{len(ops):02d}-{role}.json")
        with open(path, "w") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        return path

    for i in range(9):
        doc, check = _classify_case(rng)
        ops.append(Op(["classify", "--spec", put("spec", doc)], check))
        for command in ("homcheck", "isocheck"):
            xd, yd, check = _pair_case(rng, command)
            ops.append(Op([command, "--from", put("from", xd), "--to", put("to", yd)], check))
        doc, check = _kgroups_case(rng, ("descriptor", "punctured-set", "spectral-set")[i % 3])
        ops.append(Op(["kgroups", "--spec", put("spec", doc)], check))
    for command, text, code, kind in _bad_inputs(rng):
        path = put("bad", text)
        argv = [command, "--from", path, "--to", path] if "check" in command else [command, "--spec", path]
        ops.append(Op(argv, _expect_error(code, kind)))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------- numeric helpers


def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def write_matrix(path: str, m: np.ndarray) -> None:
    """The documented text format: ``rows cols`` then ``re,im`` fields per row."""
    rows, cols = m.shape
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in m.tolist():
            fh.write(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n")


def _clusters(values, tol: float) -> list[list[float]]:
    s = sorted(values)
    out = [[s[0], s[0]]]
    for v in s[1:]:
        if v - out[-1][1] > tol:
            out.append([v, v])
        else:
            out[-1][1] = v
    return out


def _intervals_close(got, want, tol: float = 1e-9) -> bool:
    return len(got) == len(want) and all(
        abs(a - c) <= tol and abs(b - d) <= tol for (a, b), (c, d) in zip(got, want)
    )


# ---------------------------------------------------------------- wold_deep


def _planted_eigenvalues(rng, d: int, proper: bool) -> list[float]:
    """d weights: proper models carry 1, non-proper ones stay inside [0.15, 0.85]."""
    lo, hi = (0.1, 1.5) if proper else (0.15, 0.85)
    comps = [sorted(rng.uniform(lo, hi, size=2)) for _ in range(int(rng.integers(1, 4)))]
    vals = [1.0] if proper else []
    while len(vals) < d:
        a, b = comps[int(rng.integers(len(comps)))]
        vals.append(float(rng.uniform(a, b)))
    return sorted(vals)


def _wold_check(depth: int, d: int, eigs: list[float]) -> Check:
    exact = {"q_ranks": [d] * depth, "unitary_rank": 0, "kernel_rank": 0}

    def check(code: int, doc: dict) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0: {doc.get('error')!r}"
        for key, value in exact.items():
            if doc.get(key) != value:
                return f"wold: {key} = {doc.get(key)!r}, expected {value!r}"
        got = doc.get("a_eigenvalues")
        if not isinstance(got, list) or len(got) != d:
            return f"wold: a_eigenvalues {got!r}, expected {d} values"
        err = max(abs(a - b) for a, b in zip(sorted(got), eigs))
        if err > EIG_TOL:
            return f"wold: a_eigenvalues off the planted weights by {err:.3e}"
        res = doc.get("residuals") or {}
        for key in (
            "projection_defect",
            "orthogonality_defect",
            "completeness_defect",
            "unitarity_defect",
            "commutation_defect",
            "reconstruction_defect",
        ):
            if not res.get(key, 1.0) <= RESIDUAL_TOL:
                return f"wold: residual {key} = {res.get(key)!r}"
        # the truncation breaks the identity on exactly one slot, by exactly 1
        if abs(res.get("scaling_defect", 0.0) - 1.0) > RESIDUAL_TOL:
            return f"wold: scaling_defect = {res.get('scaling_defect')!r}, expected 1"
        if res.get("boundary_overlap_rank") != d or not res.get("rejected_tail_norm", 1.0) < 0.5:
            return f"wold: boundary residuals {res!r}"
        return None

    return check


def make_wold_deep(rng, workdir: str) -> list[Op]:
    """One raw matrix per shape: a planted model hidden by a random unitary."""
    ops = []
    for i, (depth, d) in enumerate(WOLD_SHAPES):
        proper = bool(rng.random() < 0.5)
        eigs = _planted_eigenvalues(rng, d, proper)
        q = random_unitary(rng, d)
        n = depth * d
        x = np.zeros((n, n), dtype=complex)
        x[d : 2 * d, :d] = (q * np.array(eigs)) @ q.conj().T
        for k in range(1, depth - 1):
            x[(k + 1) * d : (k + 2) * d, k * d : (k + 1) * d] = np.eye(d)
        w = random_unitary(rng, n)
        path = os.path.join(workdir, f"x{i}.mat")
        write_matrix(path, w @ x @ w.conj().T)
        ops.append(Op(["wold", "--in", path], _wold_check(depth, d, eigs)))
    return ops


# ---------------------------------------------------------------- lab_wide


def _lab_spectrum(rng, proper: bool) -> list[list[float]]:
    """{0}, two intervals inside [0.15, 0.85] at least 0.2 apart, and 1.

    The gaps keep the non-proper verdict clear of the default gap tolerance
    (0.1) and keep clusters at LAB_CLUSTER_TOL from bridging components.
    """
    while True:
        a1, b1, a2, b2 = _grid(rng, round(0.15 * GRID), round(0.85 * GRID) + 1, 4)
        if b1 - a1 >= 10 and a2 - b1 >= 13 and b2 - a2 >= 10:
            break
    ivs = [[0.0, 0.0], [a1 / GRID, b1 / GRID], [a2 / GRID, b2 / GRID], [1.0, 1.0]]
    if proper and rng.random() < 0.5:
        ivs[2:] = [[a2 / GRID, 1.0]]  # 1 inside an interval: no gap at 1
    return ivs


def _lab_chain(rng, workdir: str, depth: int, d_target: int, chain: int) -> list[Op]:
    proper = chain % 2 == 1
    ivs = _lab_spectrum(rng, proper)
    intervals = [iv for iv in ivs if iv[0] < iv[1]]
    samples = max(3, round(d_target / len(intervals)))
    # each interval gives `samples` values, each point one; 0 never, 1 only if proper
    d = sum(samples if lo < hi else 1 for lo, hi in ivs) - 1 - (not proper)
    # chains 0 and 1 cut in the gap between the intervals, the others inside the first
    c = (ivs[1][1] + ivs[2][0]) / 2 if chain % 4 < 2 else (ivs[1][0] + ivs[1][1]) / 2
    out = os.path.join(workdir, f"chain{chain}")
    os.makedirs(out, exist_ok=True)
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"intervals": ivs}, fh)
    flag = "proper" if proper else "nonproper"
    seed = str(int(rng.integers(1 << 31)))
    model_json = os.path.join(out, "model.json")
    model_mat = os.path.join(out, "model.mat")
    state: dict = {}
    ends = {x for iv in ivs for x in iv} - {0.0} - (set() if proper else {1.0})

    def check_synth(code: int, doc: dict) -> str | None:
        state.clear()
        if code != 0:
            return f"synth: exit {code}: {doc.get('error')!r}"
        eigs = doc.get("eigenvalues") or []
        echo = (doc.get("fiber_dim"), doc.get("depth"), doc.get("properness"), len(eigs))
        if echo != (d, depth, flag, d):
            return f"synth: (fiber_dim, depth, properness, #eigenvalues) = {echo}, expected {(d, depth, flag, d)}"
        if not all(_contains(ivs, v) for v in eigs) or not ends <= set(eigs):
            return "synth: eigenvalues outside the planted spectrum or missing an endpoint"
        points = _clusters([0.0, 1.0] + eigs, 1e-8)
        if not _intervals_close(doc.get("estimated_spectrum", {}).get("intervals", []), points):
            return "synth: estimated spectrum differs from the synthesized weights"
        if not (os.path.isfile(model_json) and os.path.isfile(model_mat)):
            return "synth: model files missing"
        state["clusters"] = _clusters([0.0, 1.0] + eigs, LAB_CLUSTER_TOL)
        return None

    def check_verify(code: int, doc: dict) -> str | None:
        if code != 0:
            return f"verify: exit {code}: {doc.get('error')!r}"
        if doc.get("verdict") != flag:
            return f"verify: verdict {doc.get('verdict')!r}, planted {flag!r}"
        if doc.get("boundary_localized") is not True:
            return "verify: scaling defect not localized on the boundary slot"
        if not proper and not (doc.get("gap_at_0") and doc.get("gap_at_1")):
            return "verify: planted gaps at 0 and 1 not seen"
        return None

    def check_witness(code: int, doc: dict) -> str | None:
        if "clusters" not in state:
            return "witness: no synthesized model to check against"
        in_spectrum = _contains(state["clusters"], c)
        if in_spectrum:
            return _expect_error(3, "NoGap")(code, doc)
        if code != 0:
            return f"witness: exit {code} at gap point {c}: {doc.get('error')!r}"
        if doc.get("gap_point") != c or doc.get("infinite_projection_witnessed") is not True:
            return f"witness: no witness at gap point {c}"
        try:
            with open(doc.get("witness_path", "")) as fh:
                header = fh.readline().split()
        except OSError:
            return "witness: witness matrix not written"
        if header != [str(depth * d)] * 2:
            return f"witness: witness matrix header {header!r}"
        return None

    def check_estimate(code: int, doc: dict) -> str | None:
        if "clusters" not in state:
            return "specestimate: no synthesized model to check against"
        if code != 0:
            return f"specestimate: exit {code}: {doc.get('error')!r}"
        got = doc.get("intervals", [])
        if not _intervals_close(got, state["clusters"]):
            return "specestimate: clusters differ from the synthesized weights"
        if not all(_contains(ivs, a) and _contains(ivs, b) for a, b in got):
            return "specestimate: estimate leaves the planted spectrum"
        return None

    tol = ["--cluster-tol", str(LAB_CLUSTER_TOL)]
    return [
        Op(
            ["synth", "--spec", spec_path, "--properness", flag, "--depth", str(depth),
             "--samples", str(samples), "--seed", seed, "--out", out],
            check_synth,
        ),
        Op(["verify", "--in", model_json], check_verify, False),
        Op(["witness", "--in", model_json, "--gap", repr(c), "--out", out, *tol], check_witness, False),
        Op(["specestimate", "--in", model_mat, *tol], check_estimate, False),
    ]


def make_lab_wide(rng, workdir: str) -> list[Op]:
    """One synth -> verify -> witness -> specestimate chain per shape."""
    ops: list[Op] = []
    for chain, (depth, d_target) in enumerate(LAB_SHAPES):
        ops += _lab_chain(rng, workdir, depth, d_target, chain)
    return ops


def make_lab(rng, workdir: str) -> list[Op]:
    """The lab_wide chains with the wold_deep models spread between them.

    Up to two ``wold`` calls follow each chain, so any stretch of a timed run
    holds all three lab layers in about the same proportion.
    """
    chains = make_lab_wide(rng, workdir)
    wold = make_wold_deep(rng, workdir)
    per_chain = -(-len(wold) // len(LAB_SHAPES))
    ops: list[Op] = []
    for i in range(len(LAB_SHAPES)):
        ops += chains[4 * i : 4 * i + 4]  # four calls per chain
        ops += wold[per_chain * i : per_chain * (i + 1)]
    return ops


MAKERS = {"decide": make_decide, "wold_deep": make_wold_deep, "lab_wide": make_lab_wide, "lab": make_lab}


def make(name: str, seed: int, workdir: str) -> list[Op]:
    """Write the inputs of one workload and return one cycle of its operations.

    The same seed gives the same inputs.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed % 2**64, list(MAKERS).index(name)])
    return MAKERS[name](rng, workdir)

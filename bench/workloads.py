"""The four benchmark workloads: seeded inputs, one op each, and the laws
every output must satisfy for any seed.

Each workload builds the ops of one pass from its seed and the pass
number.  Every pass has the same mix of sizes with fresh instances, and
the benchmark runs whole passes, so the median latency always falls in
the size class that has the most instances per pass instead of jumping
between classes from one seed to the next.

Checkers take the parsed output and return a list of problems, empty
when the output obeys every law.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

EXACT = 1e-9        # laws that hold exactly, checked to this tolerance


@dataclass(frozen=True)
class Op:
    label: str                          # size class, e.g. "g=4"
    run: Callable[[], str]              # the op; returns its output text
    check: Callable[[str], list]        # problems with that output
    cli: bool                           # output is CLI stdout


class OpFailed(Exception):
    """The CLI returned a nonzero exit code."""


def _cli(lib, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = lib.cli.dispatch(argv)
    if rc != 0:
        raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _result(check, text: str, **kw) -> list:
    return check(json.loads(text)["result"], **kw)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT * max(1.0, abs(b))


# -- free-census ---------------------------------------------------------

FREE_GENERA = range(2, 9)
FREE_STRATA = (0, 1, 3)        # central, common-axis, Haar tuples
FREE_PER_CLASS = 12


def _free_images(lib, rng, g: int, stratum: int) -> np.ndarray:
    if stratum == 0:
        images = np.zeros((g, 4))
        images[:, 0] = rng.choice([1.0, -1.0], size=g)
        return images
    if stratum == 1:
        seed = int(rng.integers(2**31))
        return lib.strata.sample_stratum(g, 1, seed).images
    q = rng.normal(size=(g, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _free_op(lib, pres, images) -> str:
    rep = lib.presentations.Representation(pres, images)
    label = lib.strata.classify_stratum(rep)
    dim = lib.strata.stratum_tangent_dim(rep)
    volume = lib.torsion.stratum_volume(rep)
    if isinstance(volume, tuple):       # (torsion, half density)
        volume = volume[0]
    return json.dumps({"result": {"stratum": label.i, "tangent_dim": dim,
                                  "torsion": volume.value}})


def check_free(result: dict, g: int, stratum: int) -> list:
    problems = []
    if result["stratum"] != stratum:
        problems.append(f"stratum {result['stratum']}, built in {stratum}")
    want = {0: 0, 1: g, 3: 3 * g - 3}[stratum]
    if result["tangent_dim"] != want:
        problems.append(f"tangent dim {result['tangent_dim']} != {want}")
    t = result["torsion"]
    if not (isinstance(t, float) and math.isfinite(t) and t > 0):
        problems.append(f"volume torsion {t!r} is not finite and > 0")
    return problems


def free_census(lib, rng, workdir) -> list:
    ops = []
    for g in FREE_GENERA:
        pres = lib.presentations.free_group(g)
        for stratum in FREE_STRATA:
            for _ in range(FREE_PER_CLASS):
                images = _free_images(lib, rng, g, stratum)
                ops.append(Op(f"g={g},i={stratum}",
                              partial(_free_op, lib, pres, images),
                              partial(_result, check_free, g=g,
                                      stratum=stratum),
                              cli=False))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- surface-pairing -----------------------------------------------------

SURFACE_GENERA = (2, 3, 4, 4, 4, 5, 5)


def check_surface(result: dict, g: int) -> list:
    problems = []
    if result["gram_ranks"] != [6 * g - 6]:
        problems.append(f"gram ranks {result['gram_ranks']} != [{6*g-6}]")
    for key in ("antisymmetry_max", "coboundary_pairing_max",
                "handlebody_isotropy_max"):
        if not result[key] < EXACT:
            problems.append(f"{key} {result[key]!r} >= {EXACT}")
    return problems


def surface_pairing(lib, rng, workdir) -> list:
    ops = []
    for g in SURFACE_GENERA:
        argv = ["symplectic-check", "--genus", str(g), "--samples", "1",
                "--seed", str(int(rng.integers(10**6)))]
        ops.append(Op(f"g={g}", partial(_cli, lib, argv),
                      partial(_result, check_surface, g=g), cli=True))
    return ops


# -- lens-moduli ---------------------------------------------------------

# p = base + 0..2; the median class gets five instances a pass, so
# op_p50 is a median over many (p, q) draws
LENS_BASES = (21, 51, 51, 51, 51, 51, 81)


def check_lens(result: dict, p: int) -> list:
    """n = 0 (and n = p/2 for even p) are central points with torsion 1;
    every other point has Mayer-Vietoris torsion 1/p."""
    problems = []
    points = result["points"]
    if result["point_count"] != p // 2 + 1 or len(points) != p // 2 + 1:
        problems.append(f"point count {result['point_count']} "
                        f"({len(points)} rows) != {p // 2 + 1}")
    central = 1 + (p % 2 == 0)
    if sum(pt["stratum"] == 0 for pt in points) != central:
        problems.append(f"expected {central} central points")
    for pt in points:
        want = 1.0 if pt["stratum"] == 0 else 1.0 / p
        if pt["torsion"] is None or not _close(pt["torsion"], want):
            problems.append(f"{pt['id']}: torsion {pt['torsion']!r} "
                            f"!= {want!r}")
        if not pt["clean"]["passes"]:
            problems.append(f"{pt['id']}: clean check failed")
    total = central + (p // 2 + 1 - central) / p
    if not (_close(result["total"]["re"], total)
            and abs(result["total"]["im"]) <= EXACT):
        problems.append(f"total {result['total']} != {total!r}")
    return problems


def lens_moduli(lib, rng, workdir) -> list:
    ops = []
    for base in LENS_BASES:
        p = base + int(rng.integers(3))
        q = int(rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1]))
        k = int(rng.integers(1, 6))
        argv = ["invariant", "--example", "lens", "--p", str(p),
                "--q", str(q), "--k", str(k)]
        ops.append(Op(f"p~{base}", partial(_cli, lib, argv),
                      partial(_result, check_lens, p=p), cli=True))
    return ops


# -- torus-table ---------------------------------------------------------

# M = 7 and 8 take 4-7 s an op on a 2-core VM: too long for the reference
# kernel, timed between ops, to follow the machine's drift
TORUS_SAMPLES = (4, 5, 6)


def torus_points(M: int) -> dict:
    """point_id -> (angles, weight) of the t3 chart: 8 central corners
    of weight 1, and the interior grid of weight (pi/M) (2pi/M)^2."""
    out = {}
    for c in range(8):
        bits = [(c >> s) & 1 for s in (2, 1, 0)]
        out["t3:central({},{},{})".format(*bits)] = (
            tuple(math.pi * b for b in bits), 1.0)
    w = (math.pi / M) * (2.0 * math.pi / M) ** 2
    for i in range(1, M):
        for j in range(M):
            for k in range(M):
                out[f"t3:grid({i},{j},{k})/{M}"] = (
                    (i * math.pi / M, j * 2 * math.pi / M,
                     k * 2 * math.pi / M), w)
    return out


def torus_fingerprint(angles) -> list:
    """Traces of the images, their pairwise products and the full
    product, for commuting images exp(t * i)."""
    t1, t2, t3 = angles
    sums = (t1, t2, t3, t1 + t2, t1 + t3, t2 + t3, t1 + t2 + t3)
    return [2.0 * math.cos(s) for s in sums]


def check_torus(result: dict, M: int, values: dict) -> list:
    """Every point carries its own table value, every clean check passes,
    and the total is the sum of weight * torsion over the chart."""
    problems = []
    chart = torus_points(M)
    rows = {pt["id"]: pt for pt in result["points"]}
    if result["point_count"] != 8 + (M - 1) * M * M or set(rows) != set(chart):
        problems.append(f"points {result['point_count']} do not match the "
                        f"{8 + (M - 1) * M * M}-point chart")
    total = 0.0
    for pid, (_, weight) in chart.items():
        total += weight * values[pid]
        pt = rows.get(pid)
        if pt is None:
            continue
        if pt["torsion"] != values[pid]:
            problems.append(f"{pid}: torsion {pt['torsion']!r}, table "
                            f"value {values[pid]!r}")
        if not pt["clean"]["passes"]:
            problems.append(f"{pid}: clean check failed")
    if not (_close(result["total"]["re"], total)
            and abs(result["total"]["im"]) <= EXACT):
        problems.append(f"total {result['total']} != {total!r}")
    return problems


def _torus_table(rng, M: int, path: str) -> dict:
    """Write a torsion table keying a seeded half of the points by id and
    the rest by fingerprint; return the value given to each point."""
    chart = torus_points(M)
    ids = list(chart)
    values = {pid: float(rng.uniform(0.5, 2.0)) for pid in ids}
    by_fp = set(rng.permutation(len(ids))[: len(ids) // 2].tolist())
    entries = []
    for n, pid in enumerate(ids):
        key = ({"fingerprint": torus_fingerprint(chart[pid][0])}
               if n in by_fp else {"point_id": pid})
        entries.append({**key, "torsion": values[pid]})
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema": 1, "entries": entries}, f)
    return values


def torus_table(lib, rng, workdir) -> list:
    ops = []
    for M in TORUS_SAMPLES:
        path = os.path.join(workdir, f"t3-table-M{M}.json")
        values = _torus_table(rng, M, path)
        argv = ["invariant", "--example", "t3", "--samples", str(M),
                "--k", str(int(rng.integers(1, 6))),
                "--torsion-table", os.path.relpath(path)]
        ops.append(Op(f"M={M}", partial(_cli, lib, argv),
                      partial(_result, check_torus, M=M, values=values),
                      cli=True))
    return ops


WORKLOADS = {
    "free-census": free_census,
    "surface-pairing": surface_pairing,
    "lens-moduli": lens_moduli,
    "torus-table": torus_table,
}


def build(name: str, lib, seed: int, k: int, workdir: str) -> list:
    """The ops of pass k of a workload; the same seed and k give the
    same ops."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, list(WORKLOADS).index(name), k]))
    return WORKLOADS[name](lib, rng, workdir)

"""Command line for the stratified SU(2) toolkit.

Every subcommand prints a single JSON report (or a flat table with
--format table) embedding the schema version, the effective config, and
the convention tags, so runs are self-describing and byte-reproducible.
Exit codes: 0 success, 1 domain failures (residuals, ambiguous ranks,
exactness), 2 malformed input or usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, su2
from .cohomology import (DEFAULT_TOL, build_d0, cohomology,
                         restrict_coefficients)
from .conventions import CONVENTION_TAGS, SCHEMA_VERSION
from .errors import DomainError, InputError, PresentationError
from .invariants import (apply_value_table, assemble_invariant,
                         enumerate_moduli, heegaard_mv_torsion,
                         lens_heegaard, s1xs2_heegaard, stationary_phase_sum)
from .presentations import (Presentation, Representation, free_group,
                            polish_images, presentation_from_json,
                            representation_from_json)
from .strata import (classify_stratum, handlebody_representation,
                     sample_surface_representation, stratum_tangent_dim)
from .symplectic import pairing_matrix
from .torsion import MetricSequence, sequence_torsion, stratum_volume


def _jsonify(obj):
    if isinstance(obj, complex):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _table_lines(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            lines.extend(_table_lines(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        for i, v in enumerate(obj):
            lines.extend(_table_lines(v, f"{prefix}{i}."))
    else:
        if isinstance(obj, list):
            text = ", ".join(str(v) for v in obj)
        else:
            text = str(obj)
        lines.append(f"{prefix[:-1]} = {text}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    report = _jsonify(report)
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_table_lines(report)) + "\n")


def _report(command: str, config: dict, result: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command, "config": config,
            "conventions": dict(CONVENTION_TAGS), "result": result}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from None


def _load_rep_file(path: str, polish: bool):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    allowed = {"schema", "presentation", "images"}
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"unknown input fields {sorted(unknown)}")
    if data.get("schema", 1) != 1:
        raise InputError("unsupported schema version")
    if "presentation" not in data or "images" not in data:
        raise InputError("input needs 'presentation' and 'images'")
    try:
        pres = presentation_from_json(data["presentation"])
        if not polish:
            return representation_from_json(data["images"], pres)
        # parse without the residual gate, project, then gate
        rough = representation_from_json(data["images"], pres, tol=np.inf)
        return Representation(pres, polish_images(pres, rough.images))
    except PresentationError as e:
        raise InputError(str(e)) from None


# -- handlers ----------------------------------------------------------

def _cmd_classify(args) -> dict:
    rep = _load_rep_file(args.input, args.polish)
    label = classify_stratum(rep, args.tol)
    summary = cohomology(rep, args.tol)
    result = {
        "stratum": label.i,
        "stabilizer_dim": label.stabilizer_dim,
        "central": label.central_flag,
        "h0": summary.h0,
        "h1": summary.h1,
        "relator_residual": float(rep.relator_residual),
    }
    if rep.presentation.kind == "free":
        result["tangent_dim"] = stratum_tangent_dim(rep, args.tol)
    config = {"tol": args.tol, "input": args.input, "polish": args.polish}
    return _report("classify", config, result)


def _cmd_cohomology(args) -> dict:
    rep = _load_rep_file(args.input, args.polish)
    if args.coefficients == "full":
        summary = cohomology(rep, args.tol)
    else:
        summary = restrict_coefficients(rep, args.coefficients, args.tol)
    result = {
        "coefficients": args.coefficients,
        "coefficient_dim": summary.coefficient_dim,
        "h0": summary.h0,
        "h1": summary.h1,
        "z1": summary.z1,
        "singular_values": {k: list(v)
                            for k, v in summary.singular_values.items()},
        "warnings": list(summary.warnings),
    }
    config = {"tol": args.tol, "input": args.input, "polish": args.polish,
              "coefficients": args.coefficients}
    return _report("cohomology", config, result)


def _cmd_strata_scan(args) -> dict:
    g = args.genus
    if g < 2:
        raise DomainError("strata-scan needs genus >= 2")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, g]))
    pres = free_group(g)
    counts = {0: 0, 1: 0, 3: 0}
    tangent = {0: set(), 1: set(), 3: set()}
    h1m5 = {0: set(), 1: set(), 3: set()}
    for _ in range(args.samples):
        images = np.array([su2.random_element(rng) for _ in range(g)])
        rep = Representation(pres, images)
        label = classify_stratum(rep, args.tol)
        counts[label.i] += 1
        tangent[label.i].add(stratum_tangent_dim(rep, args.tol))
        h1m5[label.i].add(cohomology(rep, args.tol).h1)
    result = {
        "genus": g,
        "samples": args.samples,
        "counts": {str(k): v for k, v in counts.items()},
        "tangent_dims": {str(k): sorted(v) for k, v in tangent.items()},
        "h1_values": {str(k): sorted(v) for k, v in h1m5.items()},
    }
    config = {"tol": args.tol, "seed": args.seed, "genus": g,
              "samples": args.samples}
    return _report("strata-scan", config, result)


def _cmd_symplectic_check(args) -> dict:
    g = args.genus
    if g < 2:
        raise DomainError("symplectic-check needs genus >= 2")
    anti = 0.0
    cob = 0.0
    iso = 0.0
    ranks = []
    free_pres = free_group(g)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, g, 7]))
    for s in range(args.samples):
        rep = sample_surface_representation(g, args.seed + s, args.tol)
        basis_h1 = cohomology(rep, args.tol).basis_h1
        W = pairing_matrix(rep)
        G = basis_h1.T @ W @ basis_h1
        anti = max(anti, float(np.abs(G + G.T).max()))
        sv = np.linalg.svd(G, compute_uv=False)
        ranks.append(int(np.sum(sv > args.tol * max(1.0, sv[0]))))
        # coboundary directions must pair to zero against everything
        xi = rng.normal(size=3)
        cobc = build_d0(rep) @ xi
        cob = max(cob, float(np.abs(cobc @ W @ basis_h1).max()))
        # handlebody-locus tangents pass through the b -> 1 embedding: the
        # a-generator coordinates, the first 3g of the surface's 6g
        free_imgs = np.array([su2.random_element(rng) for _ in range(g)])
        hrep = handlebody_representation(Representation(free_pres, free_imgs))
        GH = pairing_matrix(hrep)[:3 * g, :3 * g]
        iso = max(iso, float(np.abs(GH).max()))
    result = {
        "genus": g,
        "samples": args.samples,
        "antisymmetry_max": anti,
        "coboundary_pairing_max": cob,
        "gram_ranks": sorted(set(ranks)),
        "handlebody_isotropy_max": iso,
    }
    config = {"tol": args.tol, "seed": args.seed, "genus": g,
              "samples": args.samples}
    return _report("symplectic-check", config, result)


def _torsion_from_sequence(spec: dict, tol: float) -> dict:
    if not isinstance(spec, dict) or set(spec) - {"dims", "maps"}:
        raise InputError("sequence needs exactly 'dims' and 'maps'")
    try:
        seq = MetricSequence(tuple(spec["dims"]),
                            tuple(np.array(m, dtype=float).reshape(
                                (spec["dims"][j + 1], spec["dims"][j]))
                                for j, m in enumerate(spec["maps"])))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad sequence data: {e}") from None
    t = sequence_torsion(seq, tol)
    return {"mode": "sequence", "torsion": t.value, "log_torsion": t.log_value}


def _torsion_from_volume(spec: dict, tol: float) -> dict:
    if not isinstance(spec, dict) or \
            set(spec) - {"presentation", "images"}:
        raise InputError("volume needs exactly 'presentation' and 'images'")
    try:
        pres = presentation_from_json(spec["presentation"])
        rep = representation_from_json(spec["images"], pres)
    except PresentationError as e:
        raise InputError(str(e)) from None
    t, h = stratum_volume(rep, tol)
    label = classify_stratum(rep, tol)
    return {"mode": "volume", "stratum": label.i, "torsion": t.value,
            "log_torsion": t.log_value, "half_density": h.value}


def _torsion_from_example(data: dict, tol: float) -> dict:
    allowed = {"schema", "example", "p", "q", "point", "samples"}
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"unknown torsion fields {sorted(unknown)}")
    name = data["example"]
    if name == "lens":
        p = int(data.get("p", 0))
        q = int(data.get("q", 1))
        n = int(data.get("point", 1))
        if not 0 < n <= p // 2:
            raise InputError("lens point index must be in 1..p//2")
        heegaard = lens_heegaard(p, q)
        theta = 2.0 * math.pi * n / p
    elif name == "s1xs2":
        M = int(data.get("samples", 16))
        j = int(data.get("point", 1))
        if not 0 < j < M:
            raise InputError("s1xs2 point index must be in 1..samples-1")
        heegaard = s1xs2_heegaard()
        theta = math.pi * j / M
    else:
        raise InputError(f"no built-in torsion example {name!r}")
    rep = Representation(heegaard.presentation_n,
                         [su2.exp(theta * np.array([1.0, 0.0, 0.0]))])
    t = heegaard_mv_torsion(heegaard, rep, tol)
    return {"mode": "example", "example": name, "torsion": t.value,
            "log_torsion": t.log_value}


def _cmd_torsion(args) -> dict:
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    if data.get("schema", 1) != 1:
        raise InputError("unsupported schema version")
    modes = [k for k in ("sequence", "volume", "example") if k in data]
    if len(modes) != 1:
        raise InputError(
            "input needs exactly one of 'sequence', 'volume', 'example'")
    if modes[0] == "sequence":
        if set(data) - {"schema", "sequence"}:
            raise InputError("unexpected fields next to 'sequence'")
        result = _torsion_from_sequence(data["sequence"], args.tol)
    elif modes[0] == "volume":
        if set(data) - {"schema", "volume"}:
            raise InputError("unexpected fields next to 'volume'")
        result = _torsion_from_volume(data["volume"], args.tol)
    else:
        result = _torsion_from_example(data, args.tol)
    config = {"tol": args.tol, "input": args.input}
    return _report("torsion", config, result)


def _load_table(path: str, field: str):
    data = _load_json(path)
    if not isinstance(data, dict) or set(data) - {"schema", "entries"}:
        raise InputError(f"{field} table needs 'schema' and 'entries'")
    if data.get("schema", 1) != 1:
        raise InputError("unsupported schema version")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise InputError("'entries' must be a list")
    return entries


def _cmd_invariant(args) -> dict:
    points = enumerate_moduli(
        args.example, p=args.p, q=args.q, samples=args.samples,
        seed=args.seed, tol=args.tol)
    if args.cs_table:
        points = apply_value_table(points, _load_table(args.cs_table, "cs"),
                                   "cs")
    if args.torsion_table:
        points = apply_value_table(
            points, _load_table(args.torsion_table, "torsion"), "torsion")
    inv = assemble_invariant(points, args.k)
    point_rows = []
    for pt in points:
        point_rows.append({
            "id": pt.point_id,
            "stratum": pt.stratum.i,
            "central": pt.stratum.central_flag,
            "component_dim": pt.component_dim,
            "weight": pt.weight,
            "cs": pt.cs_value,
            "torsion": pt.torsion.value if pt.torsion else None,
            "clean": {
                "passes": pt.clean.passes,
                "declared_dim": pt.clean.declared_dim,
                "cohomology_dim": pt.clean.cohomology_dim,
            } if pt.clean else None,
            "fingerprint": list(pt.fingerprint),
        })
    result = {
        "example": args.example,
        "k": inv.k,
        "total": inv.total,
        "per_stratum": {str(k): v for k, v in inv.per_stratum.items()},
        "magnitude_bound": inv.magnitude_bound,
        "point_count": inv.point_count,
        "points": point_rows,
    }
    config = {"tol": args.tol, "seed": args.seed, "samples": args.samples,
              "example": args.example, "p": args.p, "q": args.q, "k": args.k,
              "cs_table": args.cs_table, "torsion_table": args.torsion_table}
    return _report("invariant", config, result)


def _cmd_fg_sum(args) -> dict:
    data = _load_json(args.entries)
    if not isinstance(data, dict) or set(data) - {"schema", "entries"}:
        raise InputError("entries file needs 'schema' and 'entries'")
    if data.get("schema", 1) != 1:
        raise InputError("unsupported schema version")
    rows = data.get("entries", [])
    triples = []
    for row in rows:
        if not isinstance(row, dict) or \
                set(row) - {"torsion", "flow", "cs"}:
            raise InputError(
                "each entry needs exactly 'torsion', 'flow', 'cs'")
        try:
            t, flow, cs = (float(row[f]) for f in ("torsion", "flow", "cs"))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"bad entry {row}: {e}") from None
        if not (math.isfinite(t) and math.isfinite(cs)
                and flow.is_integer()):
            raise InputError(
                f"bad entry {row}: torsion and cs must be finite, "
                f"flow an integer")
        triples.append((t, int(flow), cs))
    value = stationary_phase_sum(triples, args.k)
    result = {"k": args.k, "entry_count": len(triples), "value": value}
    config = {"k": args.k, "entries": args.entries}
    return _report("fg-sum", config, result)


# -- wiring ------------------------------------------------------------

def _add_common(sp, tol=True, fmt=True):
    if tol:
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="rank/exactness tolerance (default 1e-8)")
    if fmt:
        sp.add_argument("--format", choices=("json", "table"),
                        default="json", help="output format")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="su2strata",
        description="stratified SU(2) representation varieties")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify",
                        help="stratum of a representation file")
    sp.add_argument("input", help="JSON file with presentation and images")
    sp.add_argument("--polish", action="store_true",
                    help="project the images onto the relator set first")
    _add_common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("cohomology", help="twisted cohomology dimensions")
    sp.add_argument("input")
    sp.add_argument("--polish", action="store_true")
    sp.add_argument("--coefficients",
                    choices=("full", "stabilizer", "complement"),
                    default="full")
    _add_common(sp)
    sp.set_defaults(func=_cmd_cohomology)

    sp = sub.add_parser("strata-scan",
                        help="sample free-group tuples and count strata")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_strata_scan)

    sp = sub.add_parser("symplectic-check",
                        help="measure the surface pairing's laws on samples")
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--samples", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_symplectic_check)

    sp = sub.add_parser("torsion",
                        help="sequence torsion, stratum volume, or a "
                             "built-in splitting example")
    sp.add_argument("input")
    _add_common(sp)
    sp.set_defaults(func=_cmd_torsion)

    sp = sub.add_parser("invariant",
                        help="stratified invariant sum of a built-in example")
    sp.add_argument("--example", required=True,
                    choices=("s3", "s1xs2", "lens", "t3"))
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--samples", type=int, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cs-table", default=None,
                    help="JSON table of Chern-Simons values per point")
    sp.add_argument("--torsion-table", default=None,
                    help="JSON table of torsion values per point")
    _add_common(sp)
    sp.set_defaults(func=_cmd_invariant)

    sp = sub.add_parser("fg-sum",
                        help="stationary-phase sum over supplied "
                             "(torsion, flow, cs) entries")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--entries", required=True)
    _add_common(sp, tol=False)
    sp.set_defaults(func=_cmd_fg_sum)
    return ap


def dispatch(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        report = args.func(args)
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except DomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    if args.command == "fg-sum" and args.format == "table":
        z = report["result"]["value"]
        sys.stdout.write(_fmt_complex(z) + "\n")
        return 0
    _emit(report, args.format)
    return 0


def main() -> None:
    sys.exit(dispatch())

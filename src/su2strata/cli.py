"""Command line for the stratified SU(2) toolkit.

Every subcommand prints a single JSON report (or a flat table with
--format table) embedding the schema version, the effective config, and
the convention tags, so runs are self-describing and byte-reproducible.
Exit codes: 0 success, 1 domain failures (residuals, ambiguous ranks,
exactness), 2 malformed input or usage.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, su2
from .cohomology import (DEFAULT_TOL, _system_cohomologies, build_d0,
                         cohomology, full_system, restrict_coefficients)
from .conventions import CONVENTION_TAGS, MAX_GENUS, MAX_P, SCHEMA_VERSION
from .errors import DomainError, InputError, PresentationError
from .invariants import (apply_value_table, assemble_invariant,
                         enumerate_moduli, heegaard_mv_torsion,
                         lens_heegaard, s1xs2_heegaard, stationary_phase_sum)
from .presentations import (Representation, _fields, _json_float,
                            _representations, free_group, polish,
                            presentation_from_json,
                            representation_from_json)
from .strata import (_labels, _tangent_dim, classify_stratum,
                     handlebody_representation,
                     sample_surface_representation, stratum_tangent_dim)
from .symplectic import gram_matrix, pairing_matrix
from .torsion import MetricSequence, sequence_torsion, stratum_volume

# strata-scan analyses max(1, _SCAN_BUDGET // g**2) samples together, so
# a chunk holds about as many (3g x 3g) matrices at every genus
_SCAN_BUDGET = 1024 * 8**2


def _json_value(obj):
    """JSON for complex numbers ({"im", "re"}) and numpy values."""
    if isinstance(obj, complex):
        return {"im": float(obj.imag), "re": float(obj.real)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _table_lines(obj, prefix=""):
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        obj = dict(enumerate(obj))      # rows in order, by index
    if isinstance(obj, dict):
        return [line for k in sorted(obj)
                for line in _table_lines(obj[k], f"{prefix}{k}.")]
    text = ", ".join(map(str, obj)) if isinstance(obj, list) else str(obj)
    return [f"{prefix[:-1]} = {text}"]


def _texts(values, pad: str) -> list:
    """json.dumps(v, sort_keys=True, indent=2, default=_json_value) of
    each of `values` at the line break and indent `pad`, a column at a
    time: finite floats, ints, bools or strs in one map, dicts that
    share a non-empty key set by one column per key and one row template,
    non-empty lists by one column of their items, any other column
    value by value.  A key that is not a str raises TypeError."""
    inner, kinds = pad + "  ", set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int or kind is float and math.isfinite(sum(values)):
        return list(map(kind.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is bool:
        return list(map(("false", "true").__getitem__, values))
    if kind is dict and (keys := values[0].keys()) and \
            all(map(keys.__eq__, map(dict.keys, values))):
        keys = sorted(keys)
        row = "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %s"
            for k in keys) + pad + "}"
        return list(map(row.__mod__, zip(*(
            _texts([v[k] for v in values], inner) for k in keys))))
    if (kind is list or kind is tuple) and all(values):
        items = iter(_texts([v for row in values for v in row], inner))
        return ["[" + inner + ("," + inner).join(
            itertools.islice(items, len(row))) + pad + "]" for row in values]
    return [_text(v, pad) for v in values]


def _text(value, pad: str) -> str:
    """`_texts` of one value, a dict key by key and a list as a column;
    NaN, infinities, bools, None and subclasses as json.dumps has them."""
    kind = type(value)
    if kind is int or kind is float and -math.inf < value < math.inf:
        return kind.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = pad + "  "
    if isinstance(value, dict):
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _text(value[k], inner)
            for k in sorted(value)]) + pad + "}" if value else "{}"
    if isinstance(value, (list, tuple)):
        return "[" + inner + ("," + inner).join(_texts(value, inner)) \
            + pad + "]" if value else "[]"
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return (float.__repr__(value) if -math.inf < value < math.inf
                else "NaN" if value != value
                else "Infinity" if value > 0 else "-Infinity")
    return _text(_json_value(value), pad)


def _emit(report: dict, fmt: str) -> None:
    # `_text` in place of json.dumps's pure-Python indented encoder
    text = _text(report, "\n")
    if fmt == "table":
        text = "\n".join(_table_lines(json.loads(text)))
    sys.stdout.write(text + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON in {path}: {e}") from None


def _number(value, what: str, integer: bool = False):
    """A finite float, or an int if asked, from a JSON number
    (`_json_float`: a str or a bool is refused)."""
    x = _json_float(value)
    if not math.isfinite(x) or (integer and not x.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise InputError(f"{what} must be {kind}, got {value!r}")
    return int(x) if integer else x


def _lens_parameters(p, q) -> None:
    """Refuse a lens p (None if not given) and q unless each is in
    1..MAX_P and gcd(p, q) = 1, before any chart or point is built."""
    if p is None:
        raise InputError("lens needs p")
    for value, what in ((p, "p"), (q, "q")):
        if not 1 <= value <= MAX_P:
            raise InputError(
                f"lens {what} must be in 1..{MAX_P}, got {value}")
    if math.gcd(p, q) != 1:
        raise InputError(f"lens needs gcd(p, q) = 1, got p = {p}, q = {q}")


def _genus(args) -> int:
    """--genus, before any sample: below 2 exits 1, above MAX_GENUS 2."""
    if args.genus < 2:
        raise DomainError(f"{args.command} needs genus >= 2")
    if args.genus > MAX_GENUS:
        raise InputError(f"{args.command} genus must be at most "
                         f"{MAX_GENUS}, got {args.genus}")
    return args.genus


def _load_rep_file(path: str, polished: bool):
    data = _fields(_load_json(path), "input", {"schema"},
                   ("presentation", "images"))
    pres = presentation_from_json(data["presentation"])
    if not polished:
        return representation_from_json(data["images"], pres)
    # parse without the residual gate; what polish returns passes it
    rough = representation_from_json(data["images"], pres, tol=np.inf)
    return polish(pres, rough.images)


# -- handlers ----------------------------------------------------------
# each returns its report's result; `dispatch` wraps it in the report

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
    return result


def _cmd_cohomology(args) -> dict:
    rep = _load_rep_file(args.input, args.polish)
    if args.coefficients == "full":
        summary = cohomology(rep, args.tol)
    else:
        summary = restrict_coefficients(rep, args.coefficients, args.tol)
    return {
        "coefficients": args.coefficients,
        "coefficient_dim": summary.coefficient_dim,
        "h0": summary.h0,
        "h1": summary.h1,
        "z1": summary.z1,
        "singular_values": dict(summary.singular_values),
        "warnings": list(summary.warnings),
    }


def _cmd_strata_scan(args) -> dict:
    g = _genus(args)
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, g]))
    pres = free_group(g)
    counts = {0: 0, 1: 0, 3: 0}
    h1m5 = {0: set(), 1: set(), 3: set()}
    # samples are drawn in order and analysed a chunk at a time, so
    # memory stays bounded however many are asked for; the samples of a
    # stratum share `stratum_tangent_dim`, read from their label
    chunk = max(1, _SCAN_BUDGET // g**2)
    for start in range(0, args.samples, chunk):
        images = su2.random_element(
            rng, (min(chunk, args.samples - start), g))
        summaries = _system_cohomologies(
            [full_system(rep) for rep in _representations(pres, images)],
            args.tol)
        for summary, label in zip(summaries,
                                  _labels(images, summaries, args.tol)):
            counts[label.i] += 1
            h1m5[label.i].add(summary.h1)
    return {
        "genus": g,
        "samples": args.samples,
        "counts": {str(k): v for k, v in counts.items()},
        "tangent_dims": {str(k): [_tangent_dim(k, g)] if n else []
                         for k, n in counts.items()},
        "h1_values": {str(k): sorted(v) for k, v in h1m5.items()},
    }


def _cmd_symplectic_check(args) -> dict:
    g = _genus(args)
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
        G = gram_matrix(rep, basis_h1.T)
        anti = max(anti, float(np.abs(G + G.T).max()))
        sv = np.linalg.svd(G, compute_uv=False)
        ranks.append(int(np.sum(sv > args.tol * max(1.0, sv[0]))))
        # coboundary directions must pair to zero against everything
        xi = rng.normal(size=3)
        cobc = build_d0(rep) @ xi
        cob = max(cob, float(np.abs(cobc @ W @ basis_h1).max()))
        # handlebody-locus tangents pass through the b -> 1 embedding: the
        # a-generator coordinates, the first 3g of the surface's 6g
        free_imgs = su2.random_element(rng, (g,))
        hrep = handlebody_representation(Representation(free_pres, free_imgs))
        GH = pairing_matrix(hrep)[:3 * g, :3 * g]
        iso = max(iso, float(np.abs(GH).max()))
    return {
        "genus": g,
        "samples": args.samples,
        "antisymmetry_max": anti,
        "coboundary_pairing_max": cob,
        "gram_ranks": sorted(set(ranks)),
        "handlebody_isotropy_max": iso,
    }


def _torsion_from_sequence(spec: dict, tol: float) -> dict:
    _fields(spec, "sequence", required=("dims", "maps"))
    dims, maps = spec["dims"], spec["maps"]
    try:
        if not all(type(d) is int and d >= 0 for d in dims):
            raise InputError(f"dims must be non-negative integers, got {dims}")
        if len(maps) != len(dims) - 1:
            raise InputError(f"{len(dims)} spaces need {len(dims) - 1} "
                             f"maps, got {len(maps)}")
        # a ragged map's rows are objects of its array, read as NaN
        maps = tuple(np.reshape([_json_float(v) for v in
                                 np.array(m, dtype=object).flat],
                                (dims[j + 1], dims[j]))
                     for j, m in enumerate(maps))
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad sequence data: {e}") from None
    if not all(np.isfinite(f).all() for f in maps):
        raise InputError("sequence maps must hold finite numbers")
    t = sequence_torsion(MetricSequence(tuple(dims), maps), tol)
    return {"mode": "sequence", "torsion": t.value, "log_torsion": t.log_value}


def _torsion_from_volume(spec: dict, tol: float) -> dict:
    _fields(spec, "volume", required=("presentation", "images"))
    pres = presentation_from_json(spec["presentation"])
    rep = representation_from_json(spec["images"], pres)
    t = stratum_volume(rep, tol)
    label = classify_stratum(rep, tol)
    return {"mode": "volume", "stratum": label.i, "torsion": t.value,
            "log_torsion": t.log_value,
            "half_density": float(np.exp(0.5 * t.log_value))}


def _torsion_from_example(data: dict, tol: float) -> dict:
    def integer(field, default):
        return _number(data.get(field, default), field, integer=True)

    name = data["example"]
    if name == "lens":
        p = integer("p", None) if "p" in data else None
        q = integer("q", 1)
        _lens_parameters(p, q)
        n = integer("point", 1)
        # point p/2 of an even p is central, like point 0
        if not 0 < n <= (p - 1) // 2:
            raise InputError("lens point index must be in 1..(p-1)//2")
        heegaard = lens_heegaard(p, q)
        theta = 2.0 * math.pi * n / p
    elif name == "s1xs2":
        M, j = integer("samples", 16), integer("point", 1)
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
    modes = [k for k in ("sequence", "volume", "example")
             if isinstance(data, dict) and k in data]
    if len(modes) != 1:
        raise InputError(
            "input needs exactly one of 'sequence', 'volume', 'example'")
    extra = ("p", "q", "point", "samples") if modes[0] == "example" else ()
    _fields(data, "torsion input", {"schema", modes[0], *extra})
    if modes[0] == "sequence":
        return _torsion_from_sequence(data["sequence"], args.tol)
    if modes[0] == "volume":
        return _torsion_from_volume(data["volume"], args.tol)
    return _torsion_from_example(data, args.tol)


def _load_table(path: str, field: str) -> list:
    data = _fields(_load_json(path), f"{field} table", {"schema", "entries"})
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise InputError("'entries' must be a list")
    return entries


def _cmd_invariant(args) -> dict:
    if args.example == "lens":
        _lens_parameters(args.p, args.q)
    chart = enumerate_moduli(args.example, p=args.p, q=args.q,
                             samples=args.samples, tol=args.tol)
    for field, path in (("cs", args.cs_table),
                        ("torsion", args.torsion_table)):
        if path:
            chart = apply_value_table(chart, _load_table(path, field), field)
    inv = assemble_invariant(chart, args.k)
    point_rows = [{
        "id": pid, "stratum": label.i, "central": label.central_flag,
        "component_dim": dim, "weight": weight, "cs": cs,
        "torsion": t.value if t else None,
        # the chart refused any point whose clean intersection fails
        "clean": {"passes": True, "declared_dim": dim, "cohomology_dim": dim},
        "fingerprint": fp,
    } for pid, label, dim, weight, cs, t, fp in zip(
        chart.ids, chart.labels, chart.dims, chart.weights, chart.cs,
        chart.torsions, chart.fingerprints.tolist())]
    return {
        "example": args.example,
        "k": inv.k,
        "total": inv.total,
        "per_stratum": {str(k): v for k, v in inv.per_stratum.items()},
        "magnitude_bound": inv.magnitude_bound,
        "point_count": inv.point_count,
        "points": point_rows,
    }


def _cmd_fg_sum(args) -> dict:
    triples = []
    for row in _load_table(args.entries, "entries"):
        _fields(row, "entry", required=("torsion", "flow", "cs"))
        triples.append((_number(row["torsion"], "entry torsion"),
                        _number(row["flow"], "entry flow", integer=True),
                        _number(row["cs"], "entry cs")))
    value = stationary_phase_sum(triples, args.k)
    return {"k": args.k, "entry_count": len(triples), "value": value}


# -- wiring ------------------------------------------------------------

def _tolerance(text: str) -> float:
    """--tol: a finite number > 0; argparse exits 2 on anything else."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return tol


def _sample_count(text: str) -> int:
    """--samples: an integer >= 1; argparse exits 2 on anything else."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return count


def _add_common(sp, tol=True):
    if tol:
        sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="rank/exactness tolerance (default 1e-8)")
    sp.add_argument("--format", choices=("json", "table"), default="json",
                    help="output format")


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
    sp.add_argument("--samples", type=_sample_count, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_strata_scan)

    sp = sub.add_parser("symplectic-check",
                        help="measure the surface pairing's laws on samples")
    sp.add_argument("--genus", type=int, default=2)
    sp.add_argument("--samples", type=_sample_count, default=5)
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
    sp.add_argument("--samples", type=_sample_count, default=16)
    sp.add_argument("--seed", type=int, default=0,
                    help="echoed in config; no built-in example is random")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs some twenty
    times what a parse does, and parsing leaves it as it was."""
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        result = args.func(args)
    except (InputError, PresentationError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except DomainError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    if args.command == "fg-sum" and args.format == "table":
        z = result["value"]
        sys.stdout.write(f"{z.real:.6f}{z.imag:+.6f}i\n")
        return 0
    # a report's config is its parsed arguments
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "format", "func")}
    _emit({"schema": SCHEMA_VERSION, "command": args.command,
           "config": config, "conventions": dict(CONVENTION_TAGS),
           "result": result}, args.format)
    return 0


def main() -> None:
    sys.exit(dispatch())

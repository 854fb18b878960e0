import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2strata import __version__, su2
from su2strata.cli import _json_value, _text, _texts, dispatch
from su2strata.errors import DomainError
from su2strata.invariants import enumerate_moduli, stationary_phase_sum
from su2strata.presentations import _json_float


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


# presentations as an input file spells them
FREE1 = {"generators": ["x1"], "relators": [], "kind": "free", "genus": 1}
FREE2 = {"generators": ["x1", "x2"], "relators": [], "kind": "free",
         "genus": 2}
CYCLIC3 = {"generators": ["a"], "relators": ["a a a"], "kind": "cyclic",
           "p": 3}
CYCLIC4 = {"generators": ["a"], "relators": ["a a a a"], "kind": "cyclic",
           "p": 4}


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def rep_file(tmp_path, name="rep.json"):
    q1 = su2.exp(0.7 * np.array([1.0, 0.0, 0.0]))
    q2 = su2.exp(0.4 * np.array([0.0, 1.0, 0.0]))
    payload = {
        "schema": 1,
        "presentation": FREE2,
        "images": {"x1": list(q1), "x2": list(q2)},
    }
    return write_json(tmp_path / name, payload)


# -- happy paths ---------------------------------------------------------

def test_classify_reports_stratum_fields(tmp_path, capsys):
    code, out, err = run(capsys, "classify", rep_file(tmp_path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["schema"] == 1 and report["command"] == "classify"
    r = report["result"]
    assert (r["stratum"], r["stabilizer_dim"], r["central"]) == (3, 0, False)
    assert (r["h0"], r["h1"], r["tangent_dim"]) == (0, 3, 3)
    assert r["relator_residual"] == 0.0
    assert "conventions" in report


def test_classify_table_format(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", rep_file(tmp_path),
                       "--format", "table")
    assert code == 0
    lines = dict(l.split(" = ", 1) for l in out.strip().splitlines())
    assert lines["result.stratum"] == "3"
    assert lines["command"] == "classify"


def test_cohomology_coefficient_choices(tmp_path, capsys):
    theta = np.array([1.0, 0.0, 0.0])
    payload = {
        "presentation": FREE2,
        "images": {"x1": list(su2.exp(0.5 * theta)),
                   "x2": list(su2.exp(1.1 * theta))},
    }
    path = write_json(tmp_path / "red.json", payload)
    code, out, _ = run(capsys, "cohomology", path)
    full = json.loads(out)["result"]
    assert (full["h0"], full["h1"], full["z1"]) == (1, 4, 6)
    code, out, _ = run(capsys, "cohomology", path,
                       "--coefficients", "stabilizer")
    stab = json.loads(out)["result"]
    assert (stab["coefficient_dim"], stab["h0"], stab["h1"]) == (1, 1, 2)
    code, out, _ = run(capsys, "cohomology", path,
                       "--coefficients", "complement")
    comp = json.loads(out)["result"]
    assert comp["coefficient_dim"] == 2
    assert stab["h1"] + comp["h1"] == full["h1"]


def test_polish_recovers_noisy_input(tmp_path, capsys):
    # unit norm but off the relator variety by ~2e-3
    noisy = list(su2.exp((math.pi / 2 + 5e-4) * np.array([0.0, 0.0, 1.0])))
    payload = {"presentation": CYCLIC4,
               "images": {"a": noisy}}
    path = write_json(tmp_path / "noisy.json", payload)
    code, _, err = run(capsys, "classify", path)
    assert code == 1  # relator residual gate trips without projection
    code, out, _ = run(capsys, "classify", path, "--polish")
    assert code == 0
    assert json.loads(out)["result"]["relator_residual"] < 1e-10


def test_polish_folds_the_polished_relator_once(tmp_path, capsys,
                                                monkeypatch):
    from su2strata import cli, presentations
    noisy = list(su2.exp((math.pi / 2 + 5e-4) * np.array([0.0, 0.0, 1.0])))
    path = write_json(tmp_path / "noisy.json", {
        "presentation": CYCLIC4,
        "images": {"a": noisy}})
    folded, at_return = [], []
    fold, polish = presentations._fold, cli.polish

    def counting(images, word, cup):
        folded.append(word)
        return fold(images, word, cup)

    def recording(*args, **kwargs):
        rep = polish(*args, **kwargs)
        at_return.append(len(folded))
        return rep

    monkeypatch.setattr(presentations, "_fold", counting)
    monkeypatch.setattr(cli, "polish", recording)
    code, _, _ = run(capsys, "classify", path, "--polish")
    assert code == 0
    assert at_return and len(folded) == at_return[-1]


def test_strata_scan_counts_and_dims(capsys):
    code, out, _ = run(capsys, "strata-scan", "--genus", "2",
                       "--samples", "40", "--seed", "1")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["counts"]["3"] == 40
    assert r["tangent_dims"]["3"] == [3]
    assert r["h1_values"]["3"] == [3]


def test_strata_scan_is_byte_deterministic(capsys):
    argv = ("strata-scan", "--genus", "2", "--samples", "25", "--seed", "9")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_symplectic_check_bounds(capsys):
    code, out, _ = run(capsys, "symplectic-check", "--genus", "2",
                       "--samples", "2", "--seed", "4")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["antisymmetry_max"] < 1e-9
    assert r["coboundary_pairing_max"] < 1e-8
    assert r["gram_ranks"] == [6]
    assert r["handlebody_isotropy_max"] < 1e-7


# -- torsion modes -------------------------------------------------------

def test_torsion_sequence_mode(tmp_path, capsys):
    payload = {"sequence": {"dims": [1, 2, 1],
                            "maps": [[[1.0], [1.0]], [[1.0, -1.0]]]}}
    path = write_json(tmp_path / "seq.json", payload)
    code, out, _ = run(capsys, "torsion", path)
    assert code == 0
    r = json.loads(out)["result"]
    assert r["mode"] == "sequence"
    assert abs(r["torsion"] - 1.0) < 1e-12


def test_torsion_volume_mode(tmp_path, capsys):
    payload = {"volume": {
        "presentation": FREE2,
        "images": {"x1": list(su2.exp(0.6 * np.array([1.0, 0, 0]))),
                   "x2": list(su2.exp(0.9 * np.array([0, 1.0, 0])))}}}
    path = write_json(tmp_path / "vol.json", payload)
    code, out, _ = run(capsys, "torsion", path)
    assert code == 0
    r = json.loads(out)["result"]
    assert r["mode"] == "volume" and r["stratum"] == 3
    assert r["torsion"] > 0


def test_torsion_example_mode(tmp_path, capsys):
    path = write_json(tmp_path / "ex.json",
                      {"example": "lens", "p": 5, "q": 1, "point": 1})
    code, out, _ = run(capsys, "torsion", path)
    assert code == 0
    assert abs(json.loads(out)["result"]["torsion"] - 0.2) < 1e-9


def test_torsion_example_lens_point_must_be_noncentral(tmp_path, capsys):
    # point 4 is p/2 at p = 8, a central point: refused as input
    path = write_json(tmp_path / "half.json",
                      {"example": "lens", "p": 8, "q": 3, "point": 4})
    code, out, err = run(capsys, "torsion", path)
    assert code == 2 and out == "" and "1..(p-1)//2" in err
    # at p = 9 it is the last noncentral point
    path = write_json(tmp_path / "last.json",
                      {"example": "lens", "p": 9, "q": 2, "point": 4})
    code, out, _ = run(capsys, "torsion", path)
    assert code == 0
    assert abs(json.loads(out)["result"]["torsion"] - 1.0 / 9) < 1e-9


def test_torsion_example_s1xs2(tmp_path, capsys):
    path = write_json(tmp_path / "ex2.json",
                      {"example": "s1xs2", "samples": 8, "point": 3})
    code, out, _ = run(capsys, "torsion", path)
    assert code == 0
    assert abs(json.loads(out)["result"]["torsion"] - 1.0) < 1e-9


def test_torsion_rejects_mode_ambiguity(tmp_path, capsys):
    path = write_json(tmp_path / "both.json",
                      {"sequence": {"dims": [0], "maps": []},
                       "example": "lens"})
    code, _, err = run(capsys, "torsion", path)
    assert code == 2 and "exactly one" in err


def test_torsion_non_exact_sequence_is_domain_error(tmp_path, capsys):
    payload = {"sequence": {"dims": [1, 1], "maps": [[[0.0]]]}}
    path = write_json(tmp_path / "bad.json", payload)
    code, _, err = run(capsys, "torsion", path)
    assert code == 1 and err.startswith("error:")


@pytest.mark.parametrize("sequence", [
    # one map too many: was an IndexError traceback
    {"dims": [1, 2, 1], "maps": [[[1.0], [1.0]], [[1.0, -1.0]], [[1.0]]]},
    {"dims": [1, 2, 1], "maps": [[[1.0], [1.0]]]},
    # a NaN entry: was an SVD that did not converge
    {"dims": [1, 2, 1], "maps": [[[float("nan")], [1.0]], [[1.0, -1.0]]]},
    {"dims": [1, 2, 1], "maps": [[[1.0], [1.0]], [[float("inf"), -1.0]]]},
    # a negative dim: was reshaped to an inferred -1, a domain error
    {"dims": [-1, 2], "maps": [[1, 0, 0, 1]]},
    # entries must be JSON numbers: "1" and true were read as 1, and
    # 10**400 was an OverflowError traceback
    {"dims": [1, 2, 1], "maps": [[["1"], [1.0]], [[1.0, -1.0]]]},
    {"dims": [1, 2, 1], "maps": [[[True], [1.0]], [[1.0, -1.0]]]},
    {"dims": [1, 2, 1], "maps": [[[10**400], [1.0]], [[1.0, -1.0]]]},
])
def test_torsion_rejects_malformed_sequence_maps(tmp_path, capsys, sequence):
    path = write_json(tmp_path / "bad.json", {"sequence": sequence})
    code, out, err = run(capsys, "torsion", path)
    assert code == 2 and out == "" and err.startswith("input error:")


# -- invariant and fg-sum ------------------------------------------------

def test_invariant_lens_default(capsys):
    code, out, _ = run(capsys, "invariant", "--example", "lens",
                       "--p", "5", "--k", "3")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["point_count"] == 3
    assert abs(r["total"]["re"] - 1.4) < 1e-9
    assert abs(r["total"]["im"]) < 1e-12
    assert abs(r["magnitude_bound"] - 1.4) < 1e-9
    ids = [row["id"] for row in r["points"]]
    assert ids == ["lens(5,1):n=0", "lens(5,1):n=1", "lens(5,1):n=2"]
    assert all(row["clean"]["passes"] for row in r["points"])


def test_invariant_applies_cs_table(tmp_path, capsys):
    table = {"entries": [{"point_id": "lens(5,1):n=1", "cs": 0.2},
                         {"point_id": "lens(5,1):n=2", "cs": 0.8}]}
    path = write_json(tmp_path / "cs.json", table)
    code, out, _ = run(capsys, "invariant", "--example", "lens", "--p", "5",
                       "--k", "3", "--cs-table", path)
    assert code == 0
    r = json.loads(out)["result"]
    # 1 + 0.2 e^{2 pi i k (0.2)} + 0.2 e^{2 pi i k (0.8)} at k = 3; the
    # imaginary parts cancel by the cs -> 1 - cs symmetry of the table
    expected = 1.0 + 0.4 * math.cos(2 * math.pi * 0.6)
    assert abs(r["total"]["re"] - expected) < 1e-9
    assert abs(r["total"]["im"]) < 1e-12


def test_invariant_is_byte_deterministic(capsys):
    argv = ("invariant", "--example", "t3", "--samples", "3", "--k", "2",
            "--torsion-table", "")
    # torsion-table "" is falsy, so enumeration runs bare; t3 family rows
    # lack torsion and assembly must refuse them with a domain error
    code, _, err = run(capsys, *argv)
    assert code == 1 and "t3:grid" in err
    argv = ("invariant", "--example", "s1xs2", "--samples", "6", "--k", "2")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2 and json.loads(out1)["result"]["point_count"] == 7


def test_fg_sum_table_prints_bare_complex(tmp_path, capsys):
    path = write_json(tmp_path / "e.json",
                      {"entries": [{"torsion": 1.0, "flow": 0, "cs": 0.0}]})
    code, out, _ = run(capsys, "fg-sum", "--k", "4", "--entries", path,
                       "--format", "table")
    assert code == 0
    assert out == "-0.353553+0.353553i\n"


def test_fg_sum_json_mode(tmp_path, capsys):
    path = write_json(tmp_path / "e.json", {"entries": [
        {"torsion": 1.0, "flow": 0, "cs": 0.0},
        {"torsion": 1.0, "flow": 2, "cs": 0.0}]})
    code, out, _ = run(capsys, "fg-sum", "--k", "7", "--entries", path)
    assert code == 0
    v = json.loads(out)["result"]["value"]
    assert abs(v["re"]) < 1e-12 and abs(v["im"]) < 1e-12


# -- the report writer ---------------------------------------------------

_SCALARS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e300, -1e300]),
    st.integers(-2**70, 2**70), st.booleans(), st.none(),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\x7f", "\n\t",
                     "é€😀", "\u2028", "%", "%s"]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).map(
        lambda v: np.array(v).reshape(2, 2)))
# columns the writer takes in one map, and the mixes it must not
_COLUMNS = st.one_of(
    st.lists(st.floats(), max_size=5),
    st.lists(st.lists(st.floats(), min_size=1, max_size=3), max_size=4),
    st.lists(st.integers() | st.booleans(), max_size=5),
    st.lists(st.floats() | st.floats().map(np.float64), max_size=5),
    st.lists(st.text(max_size=3), max_size=5))
_KEYS = st.text(alphabet='ab%"\\é', max_size=3)


def _records(inner):
    """Lists of dicts that share 0 to 3 keys."""
    return st.lists(_KEYS, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(
            dict.fromkeys(keys, inner)), max_size=4))


_VALUES = st.recursive(
    _SCALARS | _COLUMNS, lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS | st.text(max_size=4), inner, max_size=4)
    | _records(inner)
    | st.lists(inner | st.sampled_from([{}, [], ()]), max_size=4),
    max_leaves=24)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=_json_value)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
def test_the_report_writer_writes_what_json_dumps_writes(value):
    column = value if isinstance(value, list) else [value]
    assert _texts(column, "\n") == list(map(_dumps, column))
    for report in (value, {"result": value, "schema": 1}):
        assert _text(report, "\n") == _dumps(report)


@pytest.mark.parametrize("report", [
    {1: 0.5}, {"a": {None: 1}}, {"a": [{2.5: "x"}]}, {"a": 1, True: 2}])
def test_the_report_writer_refuses_a_key_that_is_not_a_str(report):
    # json.dumps would write these keys as strings; a report has none,
    # alone or in a column of records
    for write in (lambda: _text(report, "\n"),
                  lambda: _texts([report, report], "\n")):
        with pytest.raises(TypeError):
            write()


def test_a_bool_column_is_written_in_one_map(monkeypatch):
    # records with a bool key, as an invariant report's `central` and
    # `clean.passes` columns are: the bools go by the column branch, and
    # the lone-value writer sees none of them
    import su2strata.cli as cli
    lone = []
    text = cli._text

    def lone_text(value, pad):
        lone.append(value)
        return text(value, pad)

    monkeypatch.setattr(cli, "_text", lone_text)
    rows = [{"central": c, "clean": {"passes": True}, "id": f"p{n}"}
            for n, c in enumerate([False, True, True, False])]
    assert _texts(rows, "\n") == list(map(_dumps, rows))
    assert _texts([True, False], "\n  ") == ["true", "false"]
    assert lone == []


def test_an_invariant_report_builds_no_point_and_merges_nothing(
        capsys, monkeypatch):
    # a chart is columns from driver to writer: no `ModuliPoint` is made
    # and no runtime dedup runs, counted without any timing
    from su2strata import invariants
    counts = {"points": 0, "dedup": 0}
    init, dedup = invariants.ModuliPoint.__init__, \
        invariants.deduplicate_points

    def counted_init(self, *args, **kwargs):
        counts["points"] += 1
        init(self, *args, **kwargs)

    def counted_dedup(points):
        counts["dedup"] += 1
        return dedup(points)

    monkeypatch.setattr(invariants.ModuliPoint, "__init__", counted_init)
    monkeypatch.setattr(invariants, "deduplicate_points", counted_dedup)
    table = os.path.join(os.path.dirname(__file__), "golden",
                         "t3-M4-torsion.json")
    code, out, _ = run(capsys, "invariant", "--example", "t3", "--samples",
                       "4", "--torsion-table", table)
    assert code == 0 and len(json.loads(out)["result"]["points"]) == 56
    assert counts == {"points": 0, "dedup": 0}
    # the counters are live: a row read from a chart is counted
    enumerate_moduli("s3")[0]
    assert counts == {"points": 1, "dedup": 0}


def _t3_torsion_table(path, samples):
    """A torsion table for the t3 chart keying every other point by id
    and the rest by fingerprint."""
    entries = [{"point_id": pt.point_id} if n % 2
               else {"fingerprint": list(pt.fingerprint)}
               for n, pt in enumerate(enumerate_moduli("t3",
                                                       samples=samples))]
    for n, entry in enumerate(entries):
        entry["torsion"] = 0.5 + n / len(entries)
    return write_json(path, {"entries": entries})


@pytest.mark.parametrize("example", ["lens", "t3"])
def test_a_large_report_is_laid_out_as_json_dumps_lays_it_out(
        tmp_path, capsys, example):
    # sizes no golden reaches: 1002 lens rows, or 188 t3 rows whose
    # torsion comes from a table
    argv = (("--p", "2003", "--q", "7") if example == "lens" else
            ("--samples", "6", "--torsion-table",
             _t3_torsion_table(tmp_path / "t3.json", 6)))
    code, out, _ = run(capsys, "invariant", "--example", example, *argv)
    assert code == 0
    report = json.loads(out)
    assert len(report["result"]["points"]) > 180
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


# -- failure modes -------------------------------------------------------

def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "classify", "/no/such/file.json")
    assert code == 2 and "no such file" in err


def test_unknown_top_level_field_is_exit_2(tmp_path, capsys):
    payload = {"presentation": FREE1,
               "images": {"x1": [1.0, 0, 0, 0]}, "extra": 1}
    path = write_json(tmp_path / "x.json", payload)
    code, _, err = run(capsys, "classify", path)
    assert code == 2 and "unknown input fields" in err


@pytest.mark.parametrize("schema", [2, True, "1"])
def test_bad_schema_version_is_exit_2(tmp_path, capsys, schema):
    # true used to pass as schema 1
    payload = {"schema": schema,
               "presentation": FREE1,
               "images": {"x1": [1.0, 0, 0, 0]}}
    path = write_json(tmp_path / "x.json", payload)
    code, _, err = run(capsys, "classify", path)
    assert code == 2 and "schema" in err


def test_invalid_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize("polish", [False, True])
@pytest.mark.parametrize("images", [
    {"a": [1.0, 0, 0]},                             # three components
    {"a": "oops"},                                  # not a list
    {"a": ["w", 0, 0, 0]},                          # not numbers
    {"a": [1.0, 0, 0, 0], "e": [1.0, 0, 0, 0]},     # unknown image field
    {"a": [math.nan, 0, 0, 0]},                     # not finite
    {"a": [1.0, math.inf, 0, 0]},
    {"a": ["1", 0, 0, 0]},                          # read as 1 before
    {"a": [True, 0, 0, 0]},
    {"a": [10**400, 0, 0, 0]},                      # was a traceback
])
def test_malformed_images_are_exit_2_with_or_without_polish(
        tmp_path, capsys, images, polish):
    # --polish parses through the same checks as the plain path; the
    # relator makes polish do real work on whatever it is handed
    payload = {"presentation": CYCLIC3,
               "images": images}
    path = write_json(tmp_path / "bad.json", payload)
    argv = ["classify", path] + (["--polish"] if polish else [])
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("input error:")


def _bound_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("presentation", [
    {"generators": ["a", "b"], "relators": ["a b A B"], "kind": "surface",
     "genus": 200000},
    {"generators": ["a", "b"], "relators": ["a b A B"], "kind": "surface",
     "genus": 10**9},
    {"generators": ["x"], "kind": "free", "genus": 1e300},
    {"generators": ["x"], "kind": "free", "genus": 10**9},
    {"generators": ["x"], "kind": "free", "genus": "abc"},
    {"generators": ["x"], "kind": "free", "genus": 1.5},
    {"generators": ["x"], "relators": 5},
    {"generators": [1]},
    {"generators": ["x"], "relators": [7]},
])
def test_malformed_presentations_are_exit_2_at_once(tmp_path, presentation):
    # run apart, bounded in time and memory: a parameter the generators
    # do not match must be refused before anything of its size is built
    payload = {"presentation": presentation, "images": {"x": [1.0, 0, 0, 0]}}
    path = write_json(tmp_path / "bad.json", payload)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "su2strata", "classify", path], env=env,
        capture_output=True, text=True, timeout=30,
        preexec_fn=_bound_memory)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:")


def test_classify_boundary_ambiguous_is_exit_1(tmp_path, capsys):
    # two tiny rotations about distinct axes sit inside the rank
    # threshold band, which classify must refuse rather than guess
    payload = {"presentation": FREE2,
               "images": {
                   "x1": list(su2.exp(2e-8 * np.array([1.0, 0, 0]))),
                   "x2": list(su2.exp(2e-8 * np.array([0, 1.0, 0])))}}
    path = write_json(tmp_path / "amb.json", payload)
    code, _, err = run(capsys, "classify", path)
    assert code == 1 and err.startswith("error:")


def test_fg_sum_rejects_extra_entry_fields(tmp_path, capsys):
    path = write_json(tmp_path / "e.json", {"entries": [
        {"torsion": 1.0, "flow": 0, "cs": 0.0, "label": "x"}]})
    code, _, err = run(capsys, "fg-sum", "--k", "1", "--entries", path)
    assert code == 2 and "entry" in err


@pytest.mark.parametrize("entry", [
    {"torsion": "nan", "flow": 0, "cs": 0.1},
    {"torsion": "inf", "flow": 0, "cs": 0.1},
    {"torsion": 1.0, "flow": 0, "cs": "inf"},
    {"torsion": 1.0, "flow": 1.5, "cs": 0.1},       # was truncated to 1
    # numbers must be JSON numbers: these used to read as 0.25, 1 and 0.5
    {"torsion": "0.25", "flow": True, "cs": "0.5"},
    {"torsion": 1.0, "flow": 0, "cs": "0.5"},
    {"torsion": 1.0, "flow": False, "cs": 0.1},
    {"torsion": True, "flow": 0, "cs": 0.1},
    {"torsion": 1.0, "flow": 10**400, "cs": 0.1},   # was a traceback
])
def test_fg_sum_rejects_non_finite_and_fractional_entries(
        tmp_path, capsys, entry):
    path = write_json(tmp_path / "e.json", {"entries": [entry]})
    code, out, err = run(capsys, "fg-sum", "--k", "2", "--entries", path)
    assert code == 2 and out == "" and err.startswith("input error:")


@pytest.mark.parametrize("table, entry", [
    ("torsion", {"point_id": "s3:trivial", "torsion": "0.5"}),
    ("cs", {"point_id": "s3:trivial", "cs": True}),
    ("cs", {"point_id": "s3:trivial", "cs": False}),
    ("cs", {"fingerprint": [2.0, 2.0], "cs": "0.25"}),
    ("cs", {"point_id": "s3:trivial", "cs": 10**400}),   # was a traceback
])
def test_table_values_must_be_json_numbers(tmp_path, capsys, table, entry):
    # a str or a bool used to be read as the number it spells
    path = write_json(tmp_path / "t.json", {"entries": [entry]})
    code, out, err = run(capsys, "invariant", "--example", "s3",
                         f"--{table}-table", path)
    assert code == 2 and out == ""
    assert f"{table} must be a finite number" in err


_JSON_SCALARS = st.one_of(
    st.floats(), st.integers(-10**400, 10**400), st.booleans(), st.none(),
    st.floats().map(repr), st.integers(-10**400, 10**400).map(str))


@settings(max_examples=100, deadline=None)
@given(_JSON_SCALARS)
def test_every_reader_takes_a_number_iff_json_float_reads_it_finite(
        tmp_path_factory, x):
    # one rule for numbers: fg-sum entries, table values, sequence maps
    # and the library's stationary phase entries each take x exactly
    # when `_json_float` reads it as finite, and a positive one where
    # the reader needs that; whatever else they refuse is domain work
    finite = math.isfinite(_json_float(x))
    positive = finite and _json_float(x) > 0
    integral = finite and _json_float(x).is_integer()
    path = tmp_path_factory.getbasetemp() / "scalar.json"

    def code(argv, payload):
        path.write_text(json.dumps(payload))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return dispatch([*argv, str(path)])

    fg_sum = ["fg-sum", "--k", "2", "--entries"]
    for entry, takes in (({"torsion": x, "flow": 0, "cs": 0.0}, finite),
                         ({"torsion": 1.0, "flow": x, "cs": 0.0}, integral),
                         ({"torsion": 1.0, "flow": 0, "cs": x}, finite)):
        assert (code(fg_sum, {"entries": [entry]}) == 2) != takes
    for table, takes in (("cs", finite), ("torsion", positive)):
        argv = ["invariant", "--example", "s3", f"--{table}-table"]
        entries = [{"point_id": "s3:trivial", table: x}]
        assert code(argv, {"entries": entries}) == (0 if takes else 2)
    sequence = {"dims": [1, 1], "maps": [[[x]]]}
    assert (code(["torsion"], {"sequence": sequence}) == 2) != finite
    for entry, takes in (((x, 0, 0.0), positive), ((1.0, x, 0.0), integral),
                         ((1.0, 0, x), finite)):
        try:
            stationary_phase_sum([entry], 2)
        except DomainError as e:
            # a taken number may still make the phase overflow
            assert not takes or "phase overflows" in str(e)
        else:
            assert takes


@pytest.mark.parametrize("entry", [
    {"torsion": 1.0, "flow": 0, "cs": 1e308},
    {"torsion": 1.0, "flow": 10**308, "cs": 0.0},
])
def test_fg_sum_refuses_an_overflowing_phase_with_exit_1(tmp_path, capsys,
                                                         entry):
    # both used to exit 0 and print "re": NaN
    path = write_json(tmp_path / "e.json",
                      {"entries": [{"torsion": 4.0, "flow": 1, "cs": 0.5},
                                   entry]})
    code, out, err = run(capsys, "fg-sum", "--k", "2", "--entries", path)
    assert code == 1 and out == ""
    assert err.startswith("error: entry 1 ") and "phase overflows" in err


def test_invariant_unmatched_table_entry_is_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "cs.json",
                      {"entries": [{"point_id": "ghost", "cs": 0.5}]})
    code, _, err = run(capsys, "invariant", "--example", "s3",
                       "--cs-table", path)
    assert code == 2


@pytest.mark.parametrize("fingerprint", [[9, 9, 9], None])
def test_a_table_entry_naming_id_and_fingerprint_is_exit_2(tmp_path, capsys,
                                                           fingerprint):
    # refused whether the fingerprint matches no point or the named one
    if fingerprint is None:
        code, out, _ = run(capsys, "invariant", "--example", "lens",
                           "--p", "5", "--q", "1", "--k", "1")
        assert code == 0
        (fingerprint,) = [pt["fingerprint"]
                          for pt in json.loads(out)["result"]["points"]
                          if pt["id"] == "lens(5,1):n=1"]
    path = write_json(tmp_path / "cs.json", {"entries": [
        {"point_id": "lens(5,1):n=1", "fingerprint": fingerprint,
         "cs": 0.25}]})
    code, out, err = run(capsys, "invariant", "--example", "lens", "--p",
                         "5", "--q", "1", "--k", "1", "--cs-table", path)
    assert code == 2 and out == ""
    assert "both point_id and fingerprint" in err


FREE3 = {"generators": ["x1", "x2", "x3"], "relators": [], "kind": "free",
         "genus": 3}
_NEAR = np.array([math.cos(3e-8), math.sin(3e-8), 0.0])


@pytest.mark.parametrize("argv, files, code, err", [
    (["invariant", "--example", "lens", "--p", "12007", "--q", "7"], {}, 1,
     "error: negative h1 = 0 - 2; rank thresholds failed\n"),
    (["torsion", "{lens}"],
     {"lens": {"example": "lens", "p": 12007, "q": 7, "point": 6003}}, 1,
     "error: negative h1 = 0 - 2; rank thresholds failed\n"),
    # two axes 3e-8 apart: a BoundaryAmbiguousError
    (["classify", "{near}"],
     {"near": {"presentation": FREE3, "images": {
         "x1": list(su2.exp(0.7 * np.array([1.0, 0.0, 0.0]))),
         "x2": list(su2.exp(0.4 * _NEAR)),
         "x3": list(su2.exp(1.1 * np.array([1.0, 0.0, 0.0])))}}}, 1,
     "error: smallest nonzero d0 singular value 2.202e-08 is within 10x "
     "of threshold 1.0e-08\n"),
    (["cohomology", os.path.join(os.path.dirname(__file__), "golden",
                                 "free4-stratum3.json"),
      "--coefficients", "stabilizer"], {}, 1,
     "error: h0 = 0: no canonical axis splitting\n"),
    (["torsion", "{seq}"],
     {"seq": {"sequence": {"dims": [2, 2],
                           "maps": [[[1.0, 0.0], [0.0, 0.0]]]}}}, 1,
     "error: rank defect at space 1: 0 + 1 != dim 2\n"),
    (["invariant", "--example", "t3", "--samples", "2"], {}, 1,
     "error: point t3:grid(1,0,0)/2 has no torsion value; supply one\n"),
    (["invariant", "--example", "t3", "--samples", "2", "--torsion-table",
      "{table}"],
     {"table": {"entries": [{"point_id": "t3:ghost", "torsion": 1.0}]}}, 2,
     "input error: table entry matches no point: "
     "{'point_id': 't3:ghost', 'torsion': 1.0}\n"),
])
def test_a_failing_command_gives_its_exit_code_and_message(
        tmp_path, capsys, argv, files, code, err):
    paths = {name: write_json(tmp_path / f"{name}.json", payload)
             for name, payload in files.items()}
    assert run(capsys, *(a.format(**paths) for a in argv)) == (code, "", err)


def test_no_subcommand_is_exit_2(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip()


def test_one_parser_serves_a_process(capsys, monkeypatch):
    # the parser is built once and reused: a usage error and --version
    # leave nothing behind that changes the reports parsed after them
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.chdir(root)
    code, out, err = run(capsys, "invariant", "--example", "lens", "--p")
    assert (code, out) == (2, "") and "usage" in err
    assert run(capsys, "--version")[:2] == (0, __version__ + "\n")
    for name in ("classify-free3", "invariant-t3-M4"):
        with open(os.path.join("tests", "golden", f"{name}.out.json"),
                  encoding="utf-8") as f:
            golden = json.load(f)
        code, out, _ = run(capsys, *golden["argv"])
        assert code == 0
        assert out == json.dumps(golden["report"], sort_keys=True,
                                 indent=2) + "\n"


def test_strata_scan_rejects_genus_one(capsys):
    code, _, err = run(capsys, "strata-scan", "--genus", "1")
    assert code == 1 and "genus" in err


def _no_samples(*args, **kwargs):
    raise AssertionError("a sample was drawn")


@pytest.mark.parametrize("command", ["strata-scan", "symplectic-check"])
def test_genus_bound_is_checked_before_any_sample(capsys, monkeypatch,
                                                  command):
    # a genus this large used to go on to build its free group and draw
    import su2strata.cli as cli
    for name in ("free_group", "sample_surface_representation"):
        monkeypatch.setattr(cli, name, _no_samples)
    monkeypatch.setattr(su2, "random_element", _no_samples)
    code, out, err = run(capsys, command, "--genus", "1000000000")
    assert code == 2 and out == ""
    assert "at most 48, got 1000000000" in err


@pytest.mark.parametrize("command", ["strata-scan", "symplectic-check"])
def test_genus_bound_is_inclusive(capsys, monkeypatch, command):
    import su2strata.cli as cli
    monkeypatch.setattr(cli, "MAX_GENUS", 3)
    code, out, _ = run(capsys, command, "--genus", "3", "--samples", "1")
    assert code == 0 and json.loads(out)["result"]["genus"] == 3
    code, out, err = run(capsys, command, "--genus", "4", "--samples", "1")
    assert code == 2 and out == "" and "at most 3, got 4" in err


def test_strata_scan_report_does_not_depend_on_the_chunk(capsys,
                                                         monkeypatch):
    import su2strata.cli as cli
    argv = ("strata-scan", "--genus", "9", "--samples", "40")
    code, whole, _ = run(capsys, *argv)    # one chunk at the default
    monkeypatch.setattr(cli, "_SCAN_BUDGET", 1)     # one sample a chunk
    code_single, single, _ = run(capsys, *argv)
    assert code == code_single == 0 and single == whole


def test_strata_scan_memory_does_not_grow_with_genus(capsys):
    # a fixed 1024-sample chunk peaked near 75 MiB at genus 32
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, "strata-scan", "--genus", "32",
                         "--samples", "256")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 25 * 2**20


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["strata-scan", "--genus", "2", "--samples", "5"],
    ["invariant", "--example", "lens", "--p", "7"],
])
def test_tol_must_be_finite_and_positive(capsys, argv, tol):
    # used to reach the library and exit 1 with a misleading verdict
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2 and out == "" and "--tol" in err


@pytest.mark.parametrize("argv", [
    ["invariant", "--example", "lens", "--p", "100000000000000000000"],
    ["invariant", "--example", "lens", "--p", "7", "--q", "1000001"],
    ["invariant", "--example", "lens", "--p", "0"],
])
def test_invariant_lens_parameters_are_bounded(capsys, argv):
    # a huge p used to crash building a^p with an OverflowError traceback
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "1..1000000" in err


@pytest.mark.parametrize("payload", [
    {"example": "lens", "p": 1e300, "q": 1, "point": 1},
    {"example": "lens", "p": 7, "q": 10**7, "point": 1},
])
def test_torsion_lens_parameters_are_bounded(tmp_path, capsys, payload):
    code, out, err = run(capsys, "torsion",
                         write_json(tmp_path / "big.json", payload))
    assert code == 2 and out == "" and "1..1000000" in err


@pytest.mark.parametrize("payload", [
    {"example": "lens", "p": 7, "q": 1, "point": 1},
    {"example": "s1xs2", "samples": 8, "point": 3},
])
@pytest.mark.parametrize("bad", ["abc", 7.9, "7", True,
                                 pytest.param(10**400, id="10**400")])
def test_torsion_example_fields_must_be_integers(tmp_path, capsys,
                                                 payload, bad):
    # "abc" and 10**400 used to crash with a traceback, 7.9 to be read
    # as 7, and "7" and true as the numbers they spell
    assert run(capsys, "torsion",
               write_json(tmp_path / "ok.json", payload))[0] == 0
    for field in [f for f in payload if f != "example"]:
        path = write_json(tmp_path / "bad.json", {**payload, field: bad})
        code, out, err = run(capsys, "torsion", path)
        assert code == 2 and out == ""
        assert f"{field} must be an integer" in err


@pytest.mark.parametrize("command, payload", [
    ("fg-sum", {"entries": 5}),
    ("fg-sum", {"entries": [[1.0, 0, 0.0]]}),
    ("fg-sum", {"entries": [{"torsion": 1.0, "flow": 0}]}),
    ("torsion", {"volume": {"presentation": {"generators": ["x"]}}}),
    ("torsion", ["example"]),
])
def test_malformed_objects_are_exit_2(tmp_path, capsys, command, payload):
    path = write_json(tmp_path / "bad.json", payload)
    argv = ["fg-sum", "--k", "1", "--entries", path] \
        if command == "fg-sum" else ["torsion", path]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("input error:")


@pytest.mark.parametrize("argv", [
    ["strata-scan", "--genus", "3", "--samples", "-2"],
    ["strata-scan", "--genus", "3", "--samples", "0"],
    ["symplectic-check", "--samples", "0"],
    ["invariant", "--example", "s1xs2", "--samples", "-4"],
    ["invariant", "--example", "t3", "--samples", "x"],
])
def test_sample_counts_must_be_positive(capsys, argv):
    # these used to exit 0: with all counts 0, with law maxima of 0.0 and
    # no sample behind them, or with M = 2 while the config said -4
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--samples" in err


@pytest.mark.parametrize("example", ["s1xs2", "t3"])
def test_chart_needs_two_samples(capsys, example):
    code, out, err = run(capsys, "invariant", "--example", example,
                         "--samples", "1")
    assert code == 2 and out == "" and "at least 2" in err


def test_t3_chart_bound_is_checked_before_any_rep(capsys, monkeypatch):
    import su2strata.invariants as inv

    def no_reps(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(inv, "Representation", no_reps)
    monkeypatch.setattr(inv, "_representations", no_reps)
    code, out, err = run(capsys, "invariant", "--example", "t3",
                         "--samples", "28")     # 8 + 27 * 28^2 points
    assert code == 2 and out == "" and "21176 points" in err


def test_s1xs2_chart_bound_is_checked_before_any_rep(capsys, monkeypatch):
    import su2strata.invariants as inv

    def no_reps(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(inv, "_representations", no_reps)
    code, out, err = run(capsys, "invariant", "--example", "s1xs2",
                         "--samples", "20000")  # 20000 + 1 points
    assert code == 2 and out == "" and "20001 points" in err


def test_lens_chart_bound_is_checked_before_any_rep(capsys, monkeypatch):
    import su2strata.invariants as inv

    def no_reps(*args, **kwargs):
        raise AssertionError("a representation was built")

    monkeypatch.setattr(inv, "_representations", no_reps)
    code, out, err = run(capsys, "invariant", "--example", "lens",
                         "--p", "40009")        # 40009 // 2 + 1 points
    assert code == 2 and out == "" and "20005 points" in err


def _no_chart(*args, **kwargs):
    raise AssertionError("a chart was built")


@pytest.mark.parametrize("argv, message", [
    ([], "lens needs p"),
    (["--q", "3"], "lens needs p"),
    (["--p", "6", "--q", "4"], "gcd(p, q) = 1"),
    (["--p", "6", "--q", "6"], "gcd(p, q) = 1"),
])
def test_invariant_lens_arguments_are_usage_errors(capsys, monkeypatch,
                                                   argv, message):
    # these used to exit 1 from the library's DomainError
    import su2strata.cli as cli
    monkeypatch.setattr(cli, "enumerate_moduli", _no_chart)
    code, out, err = run(capsys, "invariant", "--example", "lens", *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("payload, message", [
    ({"example": "lens", "q": 1, "point": 1}, "lens needs p"),
    ({"example": "lens", "p": 6, "q": 4, "point": 1}, "gcd(p, q) = 1"),
])
def test_torsion_lens_arguments_are_usage_errors(tmp_path, capsys,
                                                 monkeypatch, payload,
                                                 message):
    import su2strata.cli as cli
    monkeypatch.setattr(cli, "lens_heegaard", _no_chart)
    code, out, err = run(capsys, "torsion",
                         write_json(tmp_path / "lens.json", payload))
    assert code == 2 and out == "" and message in err

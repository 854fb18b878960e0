import json
import math

import numpy as np
import pytest

from su2strata import su2
from su2strata.cli import dispatch
from su2strata.presentations import presentation_to_json, free_group


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
        "presentation": presentation_to_json(free_group(2)),
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
        "presentation": presentation_to_json(free_group(2)),
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
    from su2strata.presentations import cyclic_group
    # unit norm but off the relator variety by ~2e-3
    noisy = list(su2.exp((math.pi / 2 + 5e-4) * np.array([0.0, 0.0, 1.0])))
    payload = {"presentation": presentation_to_json(cyclic_group(4)),
               "images": {"a": noisy}}
    path = write_json(tmp_path / "noisy.json", payload)
    code, _, err = run(capsys, "classify", path)
    assert code == 1  # relator residual gate trips without projection
    code, out, _ = run(capsys, "classify", path, "--polish")
    assert code == 0
    assert json.loads(out)["result"]["relator_residual"] < 1e-10


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
        "presentation": presentation_to_json(free_group(2)),
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


# -- failure modes -------------------------------------------------------

def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "classify", "/no/such/file.json")
    assert code == 2 and "no such file" in err


def test_unknown_top_level_field_is_exit_2(tmp_path, capsys):
    payload = {"presentation": presentation_to_json(free_group(1)),
               "images": {"x1": [1.0, 0, 0, 0]}, "extra": 1}
    path = write_json(tmp_path / "x.json", payload)
    code, _, err = run(capsys, "classify", path)
    assert code == 2 and "unknown input fields" in err


def test_bad_schema_version_is_exit_2(tmp_path, capsys):
    payload = {"schema": 2,
               "presentation": presentation_to_json(free_group(1)),
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
])
def test_malformed_images_are_exit_2_with_or_without_polish(
        tmp_path, capsys, images, polish):
    # --polish parses through the same checks as the plain path; the
    # relator makes polish do real work on whatever it is handed
    from su2strata.presentations import cyclic_group
    payload = {"presentation": presentation_to_json(cyclic_group(3)),
               "images": images}
    path = write_json(tmp_path / "bad.json", payload)
    argv = ["classify", path] + (["--polish"] if polish else [])
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("input error:")


def test_classify_boundary_ambiguous_is_exit_1(tmp_path, capsys):
    # two tiny rotations about distinct axes sit inside the rank
    # threshold band, which classify must refuse rather than guess
    payload = {"presentation": presentation_to_json(free_group(2)),
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
])
def test_fg_sum_rejects_non_finite_and_fractional_entries(
        tmp_path, capsys, entry):
    path = write_json(tmp_path / "e.json", {"entries": [entry]})
    code, out, err = run(capsys, "fg-sum", "--k", "2", "--entries", path)
    assert code == 2 and out == "" and err.startswith("input error:")


def test_invariant_unmatched_table_entry_is_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "cs.json",
                      {"entries": [{"point_id": "ghost", "cs": 0.5}]})
    code, _, err = run(capsys, "invariant", "--example", "s3",
                       "--cs-table", path)
    assert code == 2


def test_no_subcommand_is_exit_2(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip()


def test_strata_scan_rejects_genus_one(capsys):
    code, _, err = run(capsys, "strata-scan", "--genus", "1")
    assert code == 1 and "genus" in err

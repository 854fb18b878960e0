"""Equivalence gate: CLI reports against golden copies.

Each case runs one CLI command in-process and compares its exit code
and JSON report with tests/golden/<name>.out.json: ints, strings, bools
and nulls exactly, floats to 1e-12 (relative above magnitude 1).  A
report's text must also be laid out as json.dumps(indent=2,
sort_keys=True) lays out its parsed value.  From
the repository root and with OPENBLAS_NUM_THREADS=1,

    PYTHONPATH=src python tests/test_equivalence.py

writes the golden of every case whose file is missing and leaves the
others alone.  A new case is captured that way; a change that means to
alter a report deletes that case's golden, reruns the script and says
so in its change notes.  It also prints, per case, the sha256 of its
stdout in --format json and in --format table, so a `diff` of two
trees' printouts compares their reports byte for byte.
"""

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from su2strata.cli import dispatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join("tests", "golden")
FREE3 = os.path.join(GOLDEN, "free3-stratum1.json")
FREE4 = os.path.join(GOLDEN, "free4-stratum3.json")
T3_TABLE = os.path.join(GOLDEN, "t3-M4-{}.json")
FLOAT_TOL = 1e-12

CASES = {
    "invariant-lens-31-7": ["invariant", "--example", "lens", "--p", "31",
                            "--q", "7", "--k", "2"],
    "invariant-lens-52-3": ["invariant", "--example", "lens", "--p", "52",
                            "--q", "3", "--k", "2"],
    "invariant-s3-k2": ["invariant", "--example", "s3", "--k", "2"],
    "invariant-s1xs2-8": ["invariant", "--example", "s1xs2",
                          "--samples", "8"],
    "invariant-t3-M4": ["invariant", "--example", "t3", "--samples", "4",
                        "--k", "3", "--cs-table", T3_TABLE.format("cs"),
                        "--torsion-table", T3_TABLE.format("torsion")],
    "strata-scan-g3": ["strata-scan", "--genus", "3", "--samples", "40",
                       "--seed", "5"],
    "symplectic-check-g2": ["symplectic-check", "--genus", "2",
                            "--seed", "3"],
    "symplectic-check-g5": ["symplectic-check", "--genus", "5",
                            "--seed", "3"],
    "torsion-lens-101": ["torsion", os.path.join(GOLDEN,
                                                 "lens101-torsion.json")],
    "torsion-lens-11003-mid": ["torsion", os.path.join(
        GOLDEN, "lens11003-torsion.json")],
    "torsion-s1xs2-8": ["torsion", os.path.join(GOLDEN,
                                                "s1xs2-8-torsion.json")],
    "torsion-sequence": ["torsion", os.path.join(GOLDEN,
                                                 "sequence-torsion.json")],
    "fg-sum-k2": ["fg-sum", "--k", "2", "--entries",
                  os.path.join(GOLDEN, "fg-entries.json")],
    "classify-free3": ["classify", FREE3],
    "classify-free4": ["classify", FREE4],
    **{f"torsion-volume-{name}": ["torsion", os.path.join(
        GOLDEN, f"volume-{name}.json")]
       for name in ("free3-stratum1", "free4-stratum3")},
    **{f"cohomology-free3-{c}": ["cohomology", FREE3, "--coefficients", c]
       for c in ("full", "stabilizer", "complement")},
}


def run_command(argv) -> tuple:
    """A command's exit code and stdout, run in-process."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = dispatch(list(argv))
    return code, out.getvalue()


def run_case(argv) -> tuple:
    """A case's record (argv, exit code and parsed report) and its
    stdout."""
    code, stdout = run_command(argv)
    report = json.loads(stdout) if code == 0 else None
    return {"argv": list(argv), "exit": code, "report": report}, stdout


def mismatches(got, want, path="") -> list:
    """Paths where got differs from want beyond the gate's tolerance."""
    differs = [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return differs
    if isinstance(want, float):
        close = math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)
        return [] if close else differs
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want
                for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in mismatches(a, b, f"{path}[{i}]")]
    return [] if got == want else differs


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    with open(os.path.join(GOLDEN, f"{name}.out.json"),
              encoding="utf-8") as f:
        want = json.load(f)
    got, stdout = run_case(CASES[name])
    assert got["argv"] == want["argv"]
    assert mismatches(got, want) == []
    if got["exit"] == 0:
        # the layout too, which parsing hides: a two-space indent, sorted
        # keys and one closing newline
        assert stdout == json.dumps(got["report"], indent=2,
                                    sort_keys=True) + "\n"


if __name__ == "__main__":
    os.chdir(ROOT)
    for name, argv in CASES.items():
        record, stdout = run_case(argv)
        table = run_command(argv + ["--format", "table"])[1]
        print(name, *(hashlib.sha256(out.encode()).hexdigest()
                      for out in (stdout, table)))
        path = os.path.join(GOLDEN, f"{name}.out.json")
        if os.path.exists(path):
            continue
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote", path)

"""Self-tests for the benchmark: each checker accepts a real report and
rejects a corrupted one, the span arithmetic is right on a hand-built
tree, and the tracer patches every binding or refuses to run.

    python3 -m pytest bench -q
"""

import copy
import json
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run          # noqa: E402
import spans        # noqa: E402
import workloads    # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_package()


def _result(lib, argv) -> dict:
    return json.loads(workloads._cli(lib, argv))["result"]


def test_free_checker_rejects_wrong_stratum_and_dim(lib):
    rng = np.random.default_rng(0)
    pres = lib.presentations.free_group(3)
    images = workloads._free_images(lib, rng, 3, 1)
    good = json.loads(workloads._free_op(lib, pres, images))["result"]
    assert workloads.check_free(good, 3, 1) == []
    assert workloads.check_free(good, 3, 3)
    assert workloads.check_free({**good, "tangent_dim": 6}, 3, 1)
    assert workloads.check_free({**good, "torsion": float("inf")}, 3, 1)


def test_surface_checker_rejects_rank_6g_minus_7(lib):
    g = 2
    good = _result(lib, ["symplectic-check", "--genus", str(g),
                         "--samples", "1", "--seed", "3"])
    assert workloads.check_surface(good, g) == []
    assert workloads.check_surface({**good, "gram_ranks": [6 * g - 7]}, g)
    assert workloads.check_surface({**good, "antisymmetry_max": 1e-6}, g)


@pytest.mark.parametrize("p", [7, 8])
def test_lens_checker_rejects_torsion_2_over_p(lib, p):
    good = _result(lib, ["invariant", "--example", "lens", "--p", str(p),
                         "--q", "3", "--k", "2"])
    assert workloads.check_lens(good, p) == []
    bad = copy.deepcopy(good)
    row = next(pt for pt in bad["points"] if pt["stratum"] != 0)
    row["torsion"] = 2.0 / p
    assert workloads.check_lens(bad, p)
    bad = copy.deepcopy(good)
    bad["total"]["re"] += 1.0 / p
    assert workloads.check_lens(bad, p)


def test_torus_checker_rejects_neighbours_table_value(lib, tmp_path):
    M = 3
    path = str(tmp_path / "table.json")
    values = workloads._torus_table(np.random.default_rng(1), M, path)
    good = _result(lib, ["invariant", "--example", "t3", "--samples", str(M),
                         "--torsion-table", path])
    assert len(good["points"]) == 8 + (M - 1) * M * M
    assert workloads.check_torus(good, M, values) == []
    bad = copy.deepcopy(good)
    a, b = bad["points"][10], bad["points"][11]
    a["torsion"] = values[b["id"]]
    assert workloads.check_torus(bad, M, values)


def test_torus_fingerprints_match_the_library(lib):
    M = 4
    chart = workloads.torus_points(M)
    points = lib.invariants.enumerate_moduli("t3", samples=M)
    assert {pt.point_id for pt in points} == set(chart)
    for pt in points:
        want = workloads.torus_fingerprint(chart[pt.point_id][0])
        np.testing.assert_allclose(pt.fingerprint, want, atol=2e-7)


def test_same_seed_same_ops(lib):
    def argv(seed, k):
        ops = workloads.build("lens-moduli", lib, seed, k, run.OUT)
        return [op.run.args[1] for op in ops]

    assert argv(5, 0) == argv(5, 0) != argv(5, 1) != argv(6, 0)


def test_self_times_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0, 0, 2]
    calls, self_s = spans.self_times(arr["name"], arr["parent"], arr["start"],
                                     arr["end"], len(tracer.names))
    got = dict(zip(tracer.names, self_s.tolist()))
    assert got == {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    assert calls.tolist() == [1, 1, 1, 1]
    assert spans.roots(arr["parent"]).tolist() == [0, 0, 0, 0]


def test_install_patches_every_binding_and_restores(lib):
    modules = run.package_modules()
    original = lib.strata.classify_stratum
    tracer = spans.Tracer()
    restore, absent = spans.install(tracer, modules)
    try:
        assert absent == []
        # the name copied into other modules is patched there too
        for mod in ("strata", "invariants", "torsion", "cli"):
            assert modules[mod].classify_stratum is not original
        rep = lib.presentations.Representation.trivial(
            lib.presentations.free_group(2))
        lib.torsion.stratum_volume(rep)
    finally:
        restore()
    assert lib.invariants.classify_stratum is original
    assert "strata.classify_stratum" in tracer.names
    assert "presentations.Representation.__init__" in tracer.names


def test_install_refuses_a_binding_it_cannot_patch(lib):
    class Stubborn(types.ModuleType):
        def __setattr__(self, name, value):
            if name != "gram_matrix":
                super().__setattr__(name, value)

    stub = Stubborn("stub")
    vars(stub)["gram_matrix"] = lib.symplectic.gram_matrix
    modules = {**run.package_modules(), "stub": stub}
    with pytest.raises(RuntimeError, match="gram_matrix"):
        spans.install(spans.Tracer(), modules)
    assert not hasattr(lib.cli.dispatch, "__wrapped__")


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 9) is None
    pct, value, beyond = run.tail(list(range(100)))
    assert (pct, value, beyond) == (90.0, 89, 10)


def test_benchmark_json_matches_the_runner():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.per_layer_units(spans.traced_names())

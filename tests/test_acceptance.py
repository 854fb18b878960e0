"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE <n> PASS/FAIL line and then asserts, so
a plain pytest run doubles as the acceptance report.  Check 08 pins the
dimensions at co-axial reducible circle-times-surface representations to
closed forms derived by Kuenneth: h1 = 6g - 3 and z1 = 6g - 1 with full
coefficients, h1 = 2g + 1 on the stabilizer line, each cross-checked
against a Fox-calculus rank computation in tests/oracles.py.
"""

import cmath
import functools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import oracles
from su2strata import su2
from su2strata.cohomology import (build_d0, cohomology, restrict_coefficients)
from su2strata.invariants import (clean_intersection_check,
                                  enumerate_moduli, stationary_phase_sum)
from su2strata.presentations import (Representation, Word,
                                     circle_times_surface_group,
                                     evaluate_images, free_group)
from su2strata.strata import (classify_stratum, handlebody_representation,
                              sample_stratum, sample_surface_representation,
                              stratum_tangent_dim)
from su2strata.symplectic import gram_matrix, trace_derivative
from su2strata.torsion import MetricSequence, sequence_torsion


def _verdict(n: int, ok: bool, detail: str = "") -> bool:
    tail = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)
    return ok


@functools.lru_cache(maxsize=1)
def _haar_census():
    """5000 Haar tuples per genus; records violators of the dimension
    law h1 - h0 = 3g - 3 and of the Euler count 3 - h0 + h1 = 3g."""
    rng = np.random.default_rng(20260817)
    law_violations = 0
    euler_violations = 0
    t0 = time.perf_counter()
    for g in (2, 3, 4, 5):
        pres = free_group(g)
        for _ in range(5000):
            images = np.array([su2.random_element(rng) for _ in range(g)])
            s = cohomology(Representation(pres, images))
            if s.h1 - s.h0 != 3 * g - 3:
                law_violations += 1
            if 3 - s.h0 + s.h1 != 3 * g:
                euler_violations += 1
    elapsed = time.perf_counter() - t0
    return law_violations, euler_violations, elapsed


def test_acceptance_01_constant_dimension_law():
    law, _, elapsed = _haar_census()
    ok = law == 0 and elapsed < 60.0
    assert _verdict(1, ok, f"violations={law}, elapsed={elapsed:.1f}s")


def test_acceptance_02_stratum_tangent_dims():
    expected = {0: lambda g: 0, 1: lambda g: g, 3: lambda g: 3 * g - 3}
    violations = 0
    for g in (2, 3, 4):
        for i in (0, 1, 3):
            want = expected[i](g)
            for s in range(1000):
                rep = sample_stratum(g, i, seed=s)
                # the label's dimension, and the stratum's own analysis
                dims = {stratum_tangent_dim(rep)}
                if i == 1:
                    dims.add(restrict_coefficients(rep, "stabilizer").h1)
                elif i == 3:
                    dims.add(cohomology(rep).h1)
                if dims != {want}:
                    violations += 1
    assert _verdict(2, violations == 0, f"violations={violations}")


def test_acceptance_03_euler_count():
    _, euler, _ = _haar_census()
    assert _verdict(3, euler == 0, f"violations={euler}")


def test_acceptance_04_surface_h1():
    violations = 0
    for g in (2, 3):
        for s in range(200):
            rep = sample_surface_representation(g, seed=s)
            if cohomology(rep).h1 != 6 * g - 6:
                violations += 1
    assert _verdict(4, violations == 0, f"violations={violations}")


def test_acceptance_05_symplectic_audit():
    g = 2
    anti = cob = iso = 0.0
    ranks = set()
    rng = np.random.default_rng(11)
    free_pres = free_group(g)
    for s in range(100):
        rep = sample_surface_representation(g, seed=s)
        summary = cohomology(rep)
        n = rep.presentation.num_generators
        basis = [summary.basis_h1[:, c].reshape(n, 3)
                 for c in range(summary.h1)]
        G = gram_matrix(rep, basis)
        anti = max(anti, float(np.abs(G + G.T).max()))
        sv = np.linalg.svd(G, compute_uv=False)
        ranks.add(int(np.sum(sv > 1e-8 * sv[0])))
        cobc = (build_d0(rep) @ rng.normal(size=3)).reshape(n, 3)
        for b in basis:
            cob = max(cob, abs(gram_matrix(rep, [cobc, b])[0, 1]))
        free_imgs = np.array([su2.random_element(rng) for _ in range(g)])
        hrep = handlebody_representation(Representation(free_pres, free_imgs))
        pulled = []
        for j in range(g):
            for c in range(3):
                u = np.zeros((2 * g, 3))
                u[j, c] = 1.0
                pulled.append(u)
        iso = max(iso, float(np.abs(gram_matrix(hrep, pulled)).max()))
    ok = anti < 1e-8 and cob < 1e-8 and ranks == {6 * g - 6} and iso < 1e-7
    assert _verdict(
        5, ok, f"anti={anti:.1e}, cob={cob:.1e}, ranks={sorted(ranks)}, "
        f"isotropy={iso:.1e}")


def _random_word(rng, g):
    while True:
        letters = [int(rng.integers(1, g + 1)) * int(rng.choice((-1, 1)))
                   for _ in range(int(rng.integers(1, 7)))]
        w = Word(tuple(letters))
        if len(w.letters) > 0:
            return w


def test_acceptance_06_trace_derivative_fd():
    rng = np.random.default_rng(17)
    worst = 0.0
    ratios = []
    for trial in range(500):
        g = int(rng.integers(2, 4))
        pres = free_group(g)
        rep = Representation(
            pres, np.array([su2.random_element(rng) for _ in range(g)]))
        w = _random_word(rng, g)
        u = rng.normal(size=(g, 3))

        def flowed(t):
            imgs = np.array([su2.multiply(su2.exp(t * u[j]), rep.images[j])
                             for j in range(g)])
            return su2.trace(evaluate_images(imgs, w))

        exact = trace_derivative(rep, w, u)
        fd = oracles.central_difference(flowed, 1e-5)
        worst = max(worst, abs(exact - fd) / max(1.0, abs(exact)))
        if trial < 50:
            e1 = abs(oracles.central_difference(flowed, 1e-3) - exact)
            e2 = abs(oracles.central_difference(flowed, 1e-4) - exact)
            if e1 > 1e-9:  # below that, roundoff hides the h^2 term
                ratios.append(e1 / max(e2, 1e-16))
    quadratic = len(ratios) > 10 and np.median(ratios) > 20.0
    ok = worst < 1e-6 and quadratic
    assert _verdict(6, ok, f"max_rel_err={worst:.1e}, "
                    f"median_decay={np.median(ratios):.0f}x")


def test_acceptance_07_torsion_oracle():
    rng = np.random.default_rng(23)
    worst = 0.0
    law_worst = 0.0
    for trial in range(200):
        dims, maps, tau, _ = oracles.random_exact_sequence(
            rng, n_spaces=int(rng.integers(3, 6)), max_rank=2, max_dim=5)
        seq = MetricSequence(dims, maps)
        t = sequence_torsion(seq)
        brute, _ = oracles.top_form_torsion(dims, maps)
        worst = max(worst, abs(t.value - brute) / brute)
        # basis independence: orthogonal changes of basis fix all
        # singular values, hence the torsion
        Q = [oracles.random_orthogonal(rng, d) if d else np.eye(0)
             for d in dims]
        conj = tuple(Q[j + 1] @ maps[j] @ Q[j].T for j in range(len(maps)))
        t2 = sequence_torsion(MetricSequence(dims, conj))
        worst = max(worst, abs(t2.value - t.value) / t.value)
        # scaling one map by c moves log-torsion by +-rank * log c
        j = int(rng.integers(0, len(maps)))
        c = float(rng.uniform(0.5, 2.0))
        scaled = tuple(c * m if jj == j else m
                       for jj, m in enumerate(maps))
        t3 = sequence_torsion(MetricSequence(dims, scaled))
        rank = int(np.linalg.matrix_rank(maps[j])) if maps[j].size else 0
        sign = 1.0 if (j + 1) % 2 == 1 else -1.0
        law_worst = max(law_worst, abs(
            t3.log_value - (t.log_value + sign * rank * math.log(c))))
    ok = worst < 1e-9 and law_worst < 1e-9
    assert _verdict(7, ok, f"max_rel_err={worst:.1e}, "
                    f"scaling_gap={law_worst:.1e}")


def _coaxial_angles(g: int) -> list:
    """Rotation angles of the surface images; none lies in pi*Z, so every
    surface image acts on the plane normal to the axis nontrivially."""
    return [0.4 + 0.3 * j for j in range(2 * g)]


def _coaxial_circle_surface_rep(g: int) -> Representation:
    """Central circle image, noncentral co-axial surface images: the
    commutator and surface relators hold exactly."""
    pres = circle_times_surface_group(g)
    axis = np.array([1.0, 0.0, 0.0])
    images = [su2.exp(t * axis) for t in _coaxial_angles(g)]
    images.append(np.array([-1.0, 0.0, 0.0, 0.0]))
    return Representation(pres, np.array(images))


def _oracle_circle_surface_dims(g: int) -> tuple:
    """(h0, z1, h1) of the same representation from tests/oracles.py
    alone: relators written out from Z x pi_1(surface) with generators
    a_1..a_g, b_1..b_g, c, and images from the oracle exponential."""
    c = 2 * g + 1
    surface = [s for i in range(1, g + 1) for s in (i, g + i, -i, -g - i)]
    relators = [surface] + [[c, x, -c, -x] for x in range(1, c)]
    axis = np.array([1.0, 0.0, 0.0])
    quats = [oracles.quat_exp(t * axis) for t in _coaxial_angles(g)]
    quats.append(np.array([-1.0, 0.0, 0.0, 0.0]))
    return oracles.fox_cohomology_dims(relators, quats)


def test_acceptance_08_circle_times_surface_dims():
    # pi = Z x pi_1(S), c -> -1 is central, so Ad(c) = id and Kuenneth
    # gives H^1(S^1 x S; V) = H^1(S; V) + H^0(S; V).  The co-axial surface
    # images split su(2) = R.axis + L, with L a plane on which they act
    # by a nontrivial rotation character.  H^0(S; V) = R.axis (dim 1),
    # H^1(S; R) = 2g, and H^0(S; L) = H^2(S; L) = 0 (duality), so
    # dim H^1(S; L) = -2 chi(S) = 4g - 4.  Hence h0 = 1,
    # h1 = 1 + 2g + 4g - 4 = 6g - 3, and z1 = h1 + dim B^1 =
    # h1 + (3 - h0) = 6g - 1.  On the stabilizer line (trivial real
    # coefficients) h1 = dim H^1(S^1 x S; R) = 2g + 1.
    rows = []
    ok = True
    for g in (2, 3):
        want = {"h0": 1, "z1": 6 * g - 1, "h1": 6 * g - 3}
        want_stab = 2 * g + 1
        rep = _coaxial_circle_surface_rep(g)
        assert classify_stratum(rep).i == 1  # nontrivial reducible
        full = cohomology(rep)
        stab = restrict_coefficients(rep, "stabilizer")
        got = {"h0": full.h0, "z1": full.z1, "h1": full.h1}
        oracle = dict(zip(("h0", "z1", "h1"), _oracle_circle_surface_dims(g)))
        ok = ok and got == want == oracle and stab.h1 == want_stab
        rows.append(f"g={g}: " + ", ".join(
            f"{k}={got[k]} (closed {want[k]}, oracle {oracle[k]})"
            for k in ("h0", "z1", "h1"))
            + f", h1_stab={stab.h1} (closed {want_stab})")
    detail = "; ".join(rows)
    _verdict(8, ok, detail)
    assert ok, ("circle-times-surface dimensions at the co-axial reducible "
                "representations disagree with the closed forms h0 = 1, "
                "z1 = 6g - 1, h1 = 6g - 3, h1_stab = 2g + 1 or with the "
                f"oracle: {detail}")


def test_acceptance_09_lens_enumeration():
    ok = True
    details = []
    for p in (2, 3, 5, 8):
        pts = enumerate_moduli("lens", p=p, q=1)
        count_ok = len(pts) == p // 2 + 1
        strata = [pt.stratum.i for pt in pts]
        want = [0] + [1] * (len(pts) - 1)
        if p % 2 == 0:
            want[-1] = 0  # rotation by pi lands on the central element
        central = [pt.stratum.central_flag for pt in pts]
        central_ok = central[0] is False and \
            (p % 2 != 0 or central[-1] is True)
        clean_ok = all(clean_intersection_check(pt) is None for pt in pts)
        ok = ok and count_ok and strata == want and central_ok and clean_ok
        details.append(f"p={p}: n={len(pts)}, strata={strata}")
    assert _verdict(9, ok, "; ".join(details))


def test_acceptance_10_stationary_phase():
    e1 = abs(stationary_phase_sum([(1.0, 0, 0.0)], 3)
             - 0.5 * cmath.exp(3j * math.pi / 4))
    e2 = abs(stationary_phase_sum([(1.0, 0, 0.0), (1.0, 2, 0.0)], 5))
    e3 = abs(stationary_phase_sum([(4.0, 0, 0.0)], 1)
             - cmath.exp(3j * math.pi / 4))
    rng = np.random.default_rng(31)
    bound_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        entries = [(float(rng.uniform(0.05, 9.0)),
                    int(rng.integers(-4, 5)),
                    float(rng.uniform(0.0, 1.0))) for _ in range(m)]
        z = stationary_phase_sum(entries, int(rng.integers(1, 12)))
        if abs(z) > 0.5 * sum(math.sqrt(t) for t, _, _ in entries) + 1e-12:
            bound_ok = False
    ok = max(e1, e2, e3) < 1e-12 and bound_ok
    assert _verdict(10, ok, f"example_err={max(e1, e2, e3):.1e}, "
                    f"bound={'held' if bound_ok else 'violated'}")


def _cli_bytes(argv, threads):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["MKL_NUM_THREADS"] = str(threads)
    out = subprocess.run([sys.executable, "-m", "su2strata"] + argv,
                         capture_output=True, env=env, check=True)
    return out.stdout


def test_acceptance_11_byte_determinism():
    scan = ["strata-scan", "--genus", "3", "--samples", "40", "--seed", "5"]
    inv = ["invariant", "--example", "lens", "--p", "8", "--k", "4"]
    volume = ["torsion", os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "golden", "volume-free4-stratum3.json")]
    ok = True
    for argv in (scan, inv, volume):
        a = _cli_bytes(argv, 1)
        b = _cli_bytes(argv, 1)
        c = _cli_bytes(argv, 4)
        ok = ok and a == b == c and json.loads(a.decode())["schema"] == 1
    assert _verdict(11, ok)


def test_t3_invariant_is_byte_identical_across_blas_threads():
    # the t3 chart is analysed in stacked SVDs; their results must not
    # depend on the BLAS thread count either
    table = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "golden", "t3-M4-torsion.json")
    argv = ["invariant", "--example", "t3", "--samples", "4",
            "--torsion-table", table]
    a = _cli_bytes(argv, 1)
    assert a == _cli_bytes(argv, 4)
    assert json.loads(a.decode())["result"]["point_count"] == 56

"""Assemble the level-k invariant sum for a lens space.

Points are enumerated from the Heegaard gluing as one chart of
columns, a fundamental domain for conjugation (n <= p//2, since theta
and -theta are conjugate), and summed per stratum with externally
supplied phase values; enumeration raises at a point whose
intersection is not clean, so every point printed has passed.  cs
entries here are the standard -q* n^2 / p mod 1 family.
"""
from su2strata.invariants import (apply_value_table, assemble_invariant,
                                  enumerate_moduli)

p, q, k = 5, 1, 3
chart = enumerate_moduli("lens", p=p, q=q)
print(f"lens({p},{q}) moduli points:")
for pid, label, torsion in zip(chart.ids, chart.labels, chart.torsions):
    print(f"  {pid:16s} stratum={label.i} tau={torsion.value:.4f}")

table = [{"point_id": f"lens({p},{q}):n={n}", "cs": (-n * n * 1.0 / p) % 1.0}
         for n in range(p // 2 + 1)]
chart = apply_value_table(chart, table, "cs")

result = assemble_invariant(chart, k)
print(f"\nZ at k={k}: {result.total:.6f}")
for i in (0, 1, 3):
    print(f"  stratum {i} contribution: {result.per_stratum[i]:.6f}")
print(f"magnitude bound: {result.magnitude_bound:.6f}")

# the sum is k-independent when every cs value is zero
flat = enumerate_moduli("lens", p=p, q=q)
print("\nwith zero phases:",
      {kk: assemble_invariant(flat, kk).total for kk in (1, 2, 9)})

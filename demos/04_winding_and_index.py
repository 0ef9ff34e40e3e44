"""Symbol curves, winding numbers, and Fredholm indices.

The band tails of an operator form a Laurent polynomial a(z).  Off the curve
a(T), the index of T - lambda equals minus the winding of a around lambda;
this demo checks that against null-space counts of rectangular truncations
and writes curve samples ready for plotting.

Run:  python demos/04_winding_and_index.py
"""

import numpy as np

import opspectra as osp

cases = {
    "shift": osp.toeplitz({1: 1.0}),
    "double shift": osp.toeplitz({2: 1.0}),
    "tridiagonal": osp.toeplitz({1: 1.0, -1: 1.0}),
    "asymmetric band": osp.toeplitz({1: 1.0, -1: 0.25, 0: 0.3}),
}

for name, op in cases.items():
    sym = osp.symbol(op)
    print(f"== {name}: a(z) = "
          + " + ".join(f"({c:g})z^{k}" for k, c in sym.coeffs.items()))
    for lam in (0j, 0.5 + 0j, 2.0 + 0j):
        try:
            w = osp.winding(sym, lam)
            idx = osp.fredholm_index(op, lam)
            oracle = osp.index_by_truncation(op, lam, 256)
            print(f"  lambda={lam:+.2f}: winding {w:+d}, index {idx:+d}, "
                  f"truncation oracle {oracle:+d}")
        except osp.PointOnCurve:
            print(f"  lambda={lam:+.2f}: on the essential curve (no index)")
    est = osp.spectral_area(op)
    print(f"  filled area {est.value:.4f} +/- {est.error:.4f}")

# curve samples in the CSV layout used by the command line tool
sym = osp.symbol(cases["asymmetric band"])
pts = sym.on_circle(360)
with open("asymmetric_band_curve.csv", "w", encoding="utf-8") as handle:
    handle.write("theta,re,im\n")
    for j, p in enumerate(pts):
        handle.write(f"{2 * np.pi * j / 360:.14f},{p.real:.14e},{p.imag:.14e}\n")
print("\nwrote asymmetric_band_curve.csv (theta, re, im)")

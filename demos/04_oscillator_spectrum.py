#!/usr/bin/env python3
"""Discretized spectrum of the duality operator.

The operator pairs a derivative against a linear potential with Clifford
coefficients; its square is a shifted harmonic oscillator whose spectrum
is the ladder {4 pi k} with multiplicity one at the bottom and two above
(in one dimension).  The kernel is one-dimensional, even, and Gaussian.
"""

import numpy as np

from torusdual import build_q0, spectral_check

PI4 = 4 * np.pi

print("== 1D spectrum on a 1600-point staggered grid ==")
report = spectral_check(build_q0(1, 1600, 6.0))
print("   computed/4pi   expected/4pi")
for lam, expect in zip(report.eigenvalues, report.expected):
    print(f"   {lam / PI4:12.8f}   {expect / PI4:4.1f}")
print(f"kernel dimension: {report.kernel_dim}")
print(f"kernel parity:    {report.kernel_parity} "
      f"({report.kernel_even_fraction:.10f} of the norm is even)")
print(f"cosine similarity of the kernel vector to exp(-pi y^2): {report.kernel_cosine:.10f}")
print(f"largest eigen-residual: {report.residual_max:.2e}")
print()

print("== grid refinement tightens the upper levels ==")
for n in (200, 400, 800, 1600):
    rep = spectral_check(build_q0(1, n, 6.0), count=6)
    errs = [abs(rep.eigenvalues[i] - rep.expected[i]) for i in (3, 5)]
    print(f"   n = {n:5d}: |error at 8pi| = {errs[0]:.2e}, |error at 12pi| = {errs[1]:.2e}")
print()

print("== 2D: the multiplicities convolve ==")
rep2 = spectral_check(build_q0(2, 60, 4.0), count=6)
print("   computed/4pi   expected/4pi")
for lam, expect in zip(rep2.eigenvalues, rep2.expected):
    print(f"   {lam / PI4:12.8f}   {expect / PI4:4.1f}")
print(f"kernel dimension: {rep2.kernel_dim}, parity: {rep2.kernel_parity}")

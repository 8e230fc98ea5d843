#!/usr/bin/env python3
"""Spectral report for the model Lagrangians: analytic vs numerical spectrum.

Prints the low modes of the fourth-order stability operator, the numerical
kernel dimension with its spectral gap, and the stability verdict.
"""

import argparse
import sys

import numpy as np

from hslag.models import (
    CircleSphereModel,
    TorusModel,
    circle_sphere_spectrum,
    rigidity_prediction,
)
from hslag.operators import (
    assemble_flat_operator,
    assemble_perturbed_operator,
    eigensolve,
    stability_check,
    torus_multiplier,
)
from hslag.weinstein import WeinsteinChart


def torus_rows(radii, k_range=2):
    rows = []
    for k1 in range(-k_range, k_range + 1):
        for k2 in range(-k_range, k_range + 1):
            eig = float(torus_multiplier(radii, np.array([k1, k2])))
            rows.append((f"({k1},{k2})", 1, eig))
    rows.sort(key=lambda r: r[2])
    return rows


def circle_sphere_rows(n, k_max=4, l_max=4):
    rows = [
        (f"(k={k},l={l})", mult, eig)
        for k, l, mult, eig in circle_sphere_spectrum(n, k_max, l_max)
    ]
    rows.sort(key=lambda r: r[2])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=["torus", "ln"], default="torus")
    parser.add_argument("--n", type=int, default=2, help="complex dimension")
    parser.add_argument("--grid", type=int, default=32, help="grid size per axis")
    parser.add_argument(
        "--radii", type=float, nargs="+", default=[1.0, 1.3], help="torus radii"
    )
    args = parser.parse_args()

    if args.model == "torus":
        model = TorusModel(tuple(args.radii), grid_size=args.grid)
        rows = torus_rows(model.radii)
        label = f"torus with radii {model.radii}"
        # the complex-step Hessian of the discrete volume, checked against
        # the analytic multiplier (the symbol would compare it with itself)
        operator = assemble_perturbed_operator(WeinsteinChart(model.radii), model.grid(), None)
    else:
        model = CircleSphereModel(args.n, grid_size=args.grid)
        rows = circle_sphere_rows(args.n)
        label = f"circle-sphere Lagrangian at n={args.n}"
        operator = assemble_flat_operator(model)

    print(f"analytic spectrum, {label}:")
    print(f"  {'mode':>12s} {'mult':>4s} {'eigenvalue':>16s}")
    for mode, mult, eig in rows[:12]:
        print(f"  {mode:>12s} {mult:4d} {eig:16.6f}")

    spectrum = eigensolve(operator)
    kdim = spectrum.kernel_size()
    eigs = spectrum.eigenvalues
    print(f"\nnumerical spectrum on a {args.grid}^2 grid:")
    print(f"  kernel dimension      = {kdim} (predicted {rigidity_prediction(model)})")
    print(f"  |kernel eigenvalues|  <= {np.max(np.abs(eigs[:kdim])):.3e}")
    print(f"  first positive mode   = {eigs[kdim]:.6f}")
    print(f"  minimum eigenvalue    = {np.min(eigs):.3e}")
    verdict = stability_check(spectrum)
    print(f"  nonnegative (stable)  = {verdict.stable}")
    return 0 if verdict.stable else 1


if __name__ == "__main__":
    sys.exit(main())

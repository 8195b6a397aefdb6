"""Replay the field route's 50-solve certification sweep.

    PYTHONPATH=src python tools/field_sweep.py
    PYTHONPATH=src python tools/field_sweep.py --mesh nx16 --mesh L3

Per mesh (flat_rect nx16/32/64/128, icosphere L3/L4/L5) a fresh
``default_rng(5)`` draws five 50-atom and then two 6-atom molecules,
each on distinct non-base vertices ``rng.choice(arange(1, V), n,
replace=False)`` with coefficients ``rng.uniform(-3, 3, n)``. The last
solve is the dipole at the vertices nearest (+-0.5, 0) on the Poincare
disk patch of radius 0.8, 96 angular by 32 radial divisions. Every
solve runs ``beckmann_field`` at the default ``FieldSolveParams`` (200
steps, tol 1e-6), and the script prints one JSON line per solve: mesh,
atoms, steps, correctors, certified, value and plain seconds (mesh
build excluded). Steps, correctors and values repeat exactly; the
seconds depend on the host.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from freeflow import Molecule, beckmann_field, generate_primitive

MESHES = {
    "nx16": ("flat_rect", {"nx": 16}),
    "nx32": ("flat_rect", {"nx": 32}),
    "nx64": ("flat_rect", {"nx": 64}),
    "nx128": ("flat_rect", {"nx": 128}),
    "L3": ("icosphere", {"level": 3}),
    "L4": ("icosphere", {"level": 4}),
    "L5": ("icosphere", {"level": 5}),
    "poincare": ("poincare_disk_patch", {"radius": 0.8, "n_angular": 96, "n_radial": 32}),
}
ATOM_COUNTS = (50,) * 5 + (6,) * 2


def molecules(label, mesh):
    """The sweep's molecules on one mesh, drawn as the docstring says."""
    if label == "poincare":
        positions = mesh.aux["positions"]
        ends = [int(np.argmin(np.hypot(*(positions - (x, 0.0)).T))) for x in (0.5, -0.5)]
        return [Molecule(((ends[0], 1.0), (ends[1], -1.0)))]
    rng = np.random.default_rng(5)
    drawn = []
    for n in ATOM_COUNTS:
        vertices = rng.choice(np.arange(1, mesh.vertex_count), n, replace=False)
        coefficients = rng.uniform(-3.0, 3.0, n)
        drawn.append(Molecule(tuple(zip(vertices.tolist(), coefficients.tolist()))))
    return drawn


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mesh", action="append", choices=list(MESHES),
                        help="run only this mesh (repeatable; default: all eight)")
    args = parser.parse_args(argv)
    for label in args.mesh or MESHES:
        kind, params = MESHES[label]
        mesh = generate_primitive(kind, **params)
        for molecule in molecules(label, mesh):
            start = time.perf_counter()
            value, _, diag = beckmann_field(mesh, molecule)
            seconds = time.perf_counter() - start
            print(json.dumps({
                "mesh": label, "atoms": len(molecule.atoms), "steps": diag["iterations"],
                "correctors": diag["correctors"], "certified": diag["certified"],
                "value": value, "seconds": round(seconds, 4),
            }), flush=True)


if __name__ == "__main__":
    main()

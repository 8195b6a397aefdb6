"""Time and trace the two fixed costs of a mesh: its build and its field set-up.

    PYTHONPATH=src python tools/mesh_build.py
    PYTHONPATH=src python tools/mesh_build.py --rung nx16 --rung L3 --repeat 9

Rungs: flat_rect nx16/32/64/128/256, icosphere L3-L6, and the
``experiment cutoff`` strip (32 x 1, 160 x 8 cells). Each rung's mesh is
generated once; the build is then ``TriMesh(triangles, pairs, lengths)``
on the generator's kind of input: the oriented triangles, their 3F face
edge pairs v0v1, v1v2, v2v0 and those pairs' lengths. The set-up is
``weighted_normal_factorizer`` on the built mesh, with its adjacency and
face geometry made beforehand, as they stay on the mesh. The script
prints one JSON line per rung: vertices, faces, then for ``build`` and
``setup`` the median plain seconds of ``--repeat`` runs, and the
tracemalloc peak and kept MB of one more run (kept: what is still
allocated when the call returns, the mesh or the factorizer). The MB
repeat exactly; the seconds depend on the host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
import tracemalloc

from freeflow import TriMesh, calculus, generate_primitive
from freeflow.primitives import _face_edge_pairs

RUNGS = {
    "nx16": ("flat_rect", {"nx": 16}),
    "nx32": ("flat_rect", {"nx": 32}),
    "nx64": ("flat_rect", {"nx": 64}),
    "nx128": ("flat_rect", {"nx": 128}),
    "nx256": ("flat_rect", {"nx": 256}),
    "L3": ("icosphere", {"level": 3}),
    "L4": ("icosphere", {"level": 4}),
    "L5": ("icosphere", {"level": 5}),
    "L6": ("icosphere", {"level": 6}),
    "cutoff": ("flat_rect", {"width": 32.0, "height": 1.0, "nx": 160, "ny": 8}),
}


def measure(call, repeat):
    """Median seconds of ``repeat`` untraced calls, then the traced
    (peak, kept) MB of one more, taken while its result is alive."""
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        result = call()  # held, so that kept counts it
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"s": statistics.median(seconds), "peak_mb": peak / 2**20, "kept_mb": kept / 2**20}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="run only this rung (repeatable; default: all ten)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed runs per measurement, whose median is printed (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for label in args.rung or RUNGS:
        kind, params = RUNGS[label]
        mesh = generate_primitive(kind, **params)
        triangles = mesh.triangles
        pairs = _face_edge_pairs(triangles)
        lengths = mesh.edge_lengths[mesh.face_edges].ravel()
        build = measure(lambda: TriMesh(triangles, pairs, lengths), args.repeat)
        calculus._cells(mesh), mesh.adjacency
        setup = measure(lambda: calculus.weighted_normal_factorizer(mesh), args.repeat)
        row = {"rung": label, "vertices": mesh.vertex_count, "faces": len(triangles)}
        for name, values in (("build", build), ("setup", setup)):
            row.update({f"{name}_{key}": round(value, 6) for key, value in values.items()})
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()

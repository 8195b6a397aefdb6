"""Time each fixed cost of a mesh on one ladder of rungs.

    PYTHONPATH=src python tools/ladder.py --rung nx16 --rung L3 --repeat 9

Rungs: flat_rect nx16/32/64/128/256, icosphere L3-L6 and the ``experiment
cutoff`` strip (160 x 8 cells on 32 x 1); all ten by default. Per rung,
one JSON line: vertices, faces, the mesh file's MB and sha256 (to compare
two trees' files byte for byte), and per layer the median plain seconds
of ``--repeat`` calls: build, ``TriMesh`` on the generator's kind of
input (oriented triangles, face edge pairs v0v1, v1v2, v2v0, lengths);
setup, ``weighted_normal_factorizer`` with adjacency and face geometry
made beforehand; write and read, ``io.write_json`` of ``mesh_to_dict``
and ``io.read_json``; load, ``mesh_from_dict(read_json(path))``; hash,
``mesh_hash``. Read, load and hash split every CLI command's mesh load.
Build and setup add the tracemalloc peak and kept MB of one more call
(kept: still allocated as it returns). Sizes, digests and MB repeat
exactly; the seconds depend on the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

from freeflow import TriMesh, calculus, generate_primitive
from freeflow import io as ffio
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


def measure(call, repeat, traced=False):
    """The median seconds of ``repeat`` plain calls; ``traced`` adds the
    peak and kept MB of one more, taken while its result is alive."""
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    values = {"s": statistics.median(seconds)}
    if traced:
        tracemalloc.start()
        try:
            result = call()  # held, so that kept counts it
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        values.update(peak_mb=peak / 2**20, kept_mb=kept / 2**20)
    return values


def rung_row(label, path, repeat):
    """The JSON line of the rung ``label``, its mesh file written to ``path``."""
    kind, params = RUNGS[label]
    mesh = generate_primitive(kind, **params)
    triangles = mesh.triangles
    pairs = _face_edge_pairs(triangles)
    lengths = mesh.edge_lengths[mesh.face_edges].ravel()
    calculus._cells(mesh), mesh.adjacency
    payload = ffio.mesh_to_dict(mesh)
    layers = {
        "build": measure(lambda: TriMesh(triangles, pairs, lengths), repeat, traced=True),
        "setup": measure(lambda: calculus.weighted_normal_factorizer(mesh), repeat, traced=True),
        "write": measure(lambda: ffio.write_json(path, payload), repeat),
        "read": measure(lambda: ffio.read_json(path), repeat),
        "load": measure(lambda: ffio.mesh_from_dict(ffio.read_json(path)), repeat),
        "hash": measure(lambda: ffio.mesh_hash(mesh), repeat),
    }
    data = path.read_bytes()
    row = {"rung": label, "vertices": mesh.vertex_count, "faces": len(triangles),
           "mb": round(len(data) / 2**20, 6), "sha256": hashlib.sha256(data).hexdigest()}
    for name, values in layers.items():
        row.update({f"{name}_{key}": round(value, 6) for key, value in values.items()})
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="run only this rung (repeatable; default: all ten)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed calls per measurement, whose median is printed (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        for label in args.rung or RUNGS:
            path = Path(workdir) / f"{label}.mesh.json"
            print(json.dumps(rung_row(label, path, args.repeat)), flush=True)


if __name__ == "__main__":
    main()

"""Time the writing and reading of mesh JSON files.

    PYTHONPATH=src python tools/json_io.py
    PYTHONPATH=src python tools/json_io.py --rung nx16 --rung L3 --repeat 9

Rungs: flat_rect nx16/32/64/128/256 and icosphere L3-L6. Each rung's
mesh is generated and turned into its ``mesh_to_dict`` payload once; the
write is then ``io.write_json`` of that payload to a file in a temporary
directory, and the read is ``io.read_json`` of that file. The script
prints one JSON line per rung: vertices, faces, the file's MB and sha256
(so two trees' files can be compared byte for byte), then the median
seconds of ``--repeat`` writes and of as many reads. The sizes and
digests repeat exactly; the seconds depend on the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import tempfile
import time

from freeflow import generate_primitive
from freeflow import io as ffio

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
}


def median_seconds(call, repeat):
    seconds = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rung", action="append", choices=list(RUNGS),
                        help="run only this rung (repeatable; default: all nine)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed writes and reads per rung, whose medians are printed (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory() as workdir:
        for label in args.rung or RUNGS:
            kind, params = RUNGS[label]
            mesh = generate_primitive(kind, **params)
            payload = ffio.mesh_to_dict(mesh)
            path = os.path.join(workdir, f"{label}.mesh.json")
            write_s = median_seconds(lambda: ffio.write_json(path, payload), args.repeat)
            read_s = median_seconds(lambda: ffio.read_json(path), args.repeat)
            with open(path, "rb") as fh:
                data = fh.read()
            row = {
                "rung": label, "vertices": mesh.vertex_count, "faces": len(mesh.triangles),
                "mb": round(len(data) / 2**20, 6), "sha256": hashlib.sha256(data).hexdigest(),
                "write_s": round(write_s, 6), "read_s": round(read_s, 6),
            }
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()

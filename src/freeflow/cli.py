"""Command-line front end.

Exit codes: 0 success, 1 error (with a JSON error envelope on stdout; a
malformed command line is a ``ParseError``), 2 an experiment criterion
failed or a batch row did not pass. All outputs are deterministic for a
fixed config and seed; reports carry no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import sys

import numpy as np

from . import io as ffio
from .currents import DEFAULT_TOL, betti1, classify
from .calculus import divergence, gradient, l1_norm, linf_norm, lip_constant
from .errors import FreeflowError, ParseError, check_integer, check_real
from .experiments import EXPERIMENTS
from .freenorm import METHODS, FieldSolveParams, free_norm
from .primitives import _BUILDERS, KINDS, generate_primitive

# gen-mesh's flags: the builders' parameters, base_vertex aside
_PRIMITIVE_PARAMS = tuple(dict.fromkeys(
    name for build in _BUILDERS.values()
    for name in inspect.signature(build).parameters if name != "base_vertex"
))


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        return args.func(args)
    except FreeflowError as exc:
        envelope = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(envelope, indent=2))
        return 1


class _Parser(argparse.ArgumentParser):
    """Raises ``ParseError`` on a malformed command line, where argparse
    would print its usage and exit 2, the code of a failed criterion."""

    def error(self, message):
        raise ParseError(message)


def _size(text):
    """A gen-mesh size: an int when the text is one, else a float. The
    builder checks it, as it checks a size given from Python."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser():
    parser = _Parser(
        prog="freeflow",
        description="Free-space norms and discrete calculus on metric meshes.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p = sub.add_parser("gen-mesh", help="generate a primitive mesh")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--base-vertex", type=int, default=0)
    for name in _PRIMITIVE_PARAMS:
        p.add_argument(f"--{name.replace('_', '-')}", type=_size)
    p.set_defaults(func=cmd_gen_mesh)

    p = sub.add_parser("validate-mesh", help="validate a mesh file")
    p.add_argument("mesh")
    p.set_defaults(func=cmd_validate_mesh)

    p = sub.add_parser("calc", help="gradient, divergence or norms of a field")
    p.add_argument("op", choices=("grad", "div", "norms"))
    p.add_argument("--mesh", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calc)

    p = sub.add_parser("check-currents", help="classify an edge form")
    p.add_argument("--mesh", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_currents)

    p = sub.add_parser("free-norm", help="free norm of a molecule")
    p.add_argument("--mesh", required=True)
    p.add_argument("--molecule", required=True)
    p.add_argument("--method", default="all", choices=METHODS)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--field-max-iter",
        type=int,
        default=FieldSolveParams.max_iter,
        help="cap on the field solver's interior-point Newton steps, each one "
        "sparse factorization (default %(default)s); certified 50-atom solves on "
        "flat_rect nx16-128 and icosphere L3-L5 took at most 23",
    )
    p.add_argument(
        "--field-tol",
        type=float,
        default=FieldSolveParams.tol,
        help="field solver tolerance: bounds the divergence residual of the "
        "returned field, relative to max(1, largest |coefficient| of the "
        "canonical molecule), and its certified gap upper - lower, relative "
        "to max(1, upper)",
    )
    p.set_defaults(func=cmd_free_norm)

    p = sub.add_parser("experiment", help="run a scripted experiment")
    p.add_argument("kind", choices=tuple(EXPERIMENTS))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("batch", help="run a manifest of jobs")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_batch)

    return parser


def _emit(obj, out):
    if out:
        ffio.write_json(out, obj)
    else:
        print(json.dumps(obj, indent=2))


def cmd_gen_mesh(args):
    params = {name: getattr(args, name) for name in _PRIMITIVE_PARAMS
              if getattr(args, name) is not None}
    mesh = generate_primitive(args.kind, base_vertex=args.base_vertex, **params)
    ffio.write_json(args.out, ffio.mesh_to_dict(mesh))
    return 0


def _load_mesh(path):
    """The mesh in the file ``path``, and its content hash."""
    mesh = ffio.mesh_from_dict(ffio.read_json(path))
    return mesh, ffio.mesh_hash(mesh)


def cmd_validate_mesh(args):
    print(json.dumps(_validate_mesh_payload(*_load_mesh(args.mesh)), indent=2))
    return 0


def _validate_mesh_payload(mesh, mesh_hash):
    """The summary ``validate-mesh`` prints; also run by batch entries."""
    return {
        "dimension": mesh.dimension,
        "vertices": mesh.vertex_count,
        "edges": len(mesh.edges),
        "faces": len(mesh.triangles),
        "boundary_edges": len(mesh.boundary_edges),
        "base_vertex": mesh.base_vertex,
        "mesh_hash": mesh_hash,
    }


def cmd_calc(args):
    mesh, mesh_hash = _load_mesh(args.mesh)
    kind, values = ffio.field_from_dict(mesh, ffio.read_json(args.field), digest=mesh_hash)
    if args.op == "grad":
        if kind != "scalar":
            raise ParseError("grad needs a scalar field")
        out = gradient(mesh, values)
        payload = (
            ffio.face_field_to_dict(mesh, out, mesh_hash)
            if mesh.dimension == 2
            else ffio.edge_values_to_dict(mesh, out, mesh_hash)
        )
    elif args.op == "div":
        if kind == "scalar":
            raise ParseError("div needs a vector field")
        payload = ffio.scalar_field_to_dict(mesh, divergence(mesh, values), mesh_hash)
    else:
        if kind == "scalar":
            payload = {
                "lip_edgewise": lip_constant(mesh, values, "edgewise"),
                "lip_pairwise_geodesic": lip_constant(
                    mesh, values, "pairwise_geodesic"
                ),
            }
        else:
            payload = {
                "l1_norm": l1_norm(mesh, values),
                "linf_norm": linf_norm(mesh, values),
            }
    _emit(payload, args.out)
    return 0


def cmd_check_currents(args):
    check_real("tolerance", args.tol, positive=True)
    mesh = ffio.mesh_from_dict(ffio.read_json(args.mesh))
    _, omega = ffio.field_from_dict(mesh, ffio.read_json(args.form), expect="edges")
    result = classify(mesh, omega, tol=args.tol)
    payload = result.to_dict()
    payload["betti1"] = betti1(mesh)
    payload["tol"] = args.tol
    _emit(payload, args.out)
    return 0


def cmd_free_norm(args):
    params = FieldSolveParams(max_iter=args.field_max_iter, tol=args.field_tol)
    mesh, mesh_hash = _load_mesh(args.mesh)
    molecule = ffio.molecule_from_dict(ffio.read_json(args.molecule))
    _emit(_free_norm_payload(mesh, mesh_hash, molecule, args.method, params), args.out)
    return 0


def _free_norm_payload(mesh, mesh_hash, molecule, method="all", field_params=None):
    """The report ``free-norm`` writes; also run by batch entries."""
    report = free_norm(mesh, molecule, method=method, field_params=field_params)
    payload = report.to_dict()
    payload["method"] = method
    payload["mesh_hash"] = mesh_hash
    return payload


def run_experiment(kind, config):
    """The report of the experiment ``kind`` run with ``config``: its
    ``seed`` makes the run's random generator, and its other keys but
    ``kind`` are bound to the keyword settings of the kind's function."""
    if type(kind) is not str or kind not in EXPERIMENTS:
        raise ParseError(f"unknown experiment kind {kind!r}")
    if type(config) is not dict:
        raise ParseError(
            f"experiment config must be a JSON object, found {type(config).__name__}"
        )
    settings = dict(config)
    declared = settings.pop("kind", kind)
    if declared != kind:
        raise ParseError(f"config kind {declared!r} does not match {kind!r}")
    rng = np.random.default_rng(check_integer("seed", settings.pop("seed", 42)))
    run = EXPERIMENTS[kind]
    try:
        bound = inspect.signature(run).bind(rng, **settings)
    except TypeError as exc:
        raise ParseError(f"{kind} config: {exc}") from None
    return run(*bound.args, **bound.kwargs)


def cmd_experiment(args):
    config = ffio.read_json(args.config)
    report = run_experiment(args.kind, config)
    payload = report.to_dict()
    if args.out:
        ffio.write_json(args.out, payload)
    if args.csv:
        _rows_to_csv(args.csv, report.rows)
    if not args.out and not args.csv:
        print(json.dumps(payload, indent=2))
    return 0 if report.passed else 2


def _rows_to_csv(path, rows):
    fields = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _path(entry, key, default=None):
    """``entry[key]``, or ``default``: a file path, so a JSON string, as
    open() takes an integer as a file descriptor."""
    value = entry.get(key, default)
    if type(value) is not str:
        raise ParseError(f"{key!r}: {value!r} is not a JSON string")
    return value


def _run_batch_entry(entry, load_mesh):
    """Run one manifest entry through its command's payload function.

    Returns ``(status, detail)``: "pass" when the command succeeded,
    "fail" when an experiment criterion failed; an entry that raises is
    recorded as "error" by the caller.
    """
    command = entry.get("command")
    out = _path(entry, "out", "")
    if command == "free-norm":
        mesh, mesh_hash = load_mesh(_path(entry, "mesh"))
        molecule = ffio.molecule_from_dict(ffio.read_json(_path(entry, "molecule")))
        payload = _free_norm_payload(mesh, mesh_hash, molecule, entry.get("method", "all"))
        if out:
            ffio.write_json(out, payload)
        return "pass", f"gap={payload['duality_gap']!r}"
    if command == "experiment":
        kind = entry.get("experiment")
        report = run_experiment(kind, entry.get("config", {"kind": kind}))
        if out:
            ffio.write_json(out, report.to_dict())
        return ("pass" if report.passed else "fail"), f"kind={kind}"
    if command == "validate-mesh":
        payload = _validate_mesh_payload(*load_mesh(_path(entry, "mesh")))
        return "pass", f"vertices={payload['vertices']}"
    raise ParseError(f"unsupported batch command {command!r}")


def cmd_batch(args):
    manifest = ffio.read_json(args.manifest)
    entries = manifest.get("entries", [])
    if type(entries) is not list or any(type(e) is not dict for e in entries):
        raise ParseError("batch manifest 'entries' must be a list of JSON objects")
    # each mesh path is read, parsed and hashed once per run
    load_mesh = functools.cache(_load_mesh)
    results = []
    for index, entry in enumerate(entries):
        try:
            status, detail = _run_batch_entry(entry, load_mesh)
        except Exception as exc:  # entry errors recorded, batch continues
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        results.append((index, entry.get("command", "?"), status, detail))

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "command", "status", "detail"])
        writer.writerows(results)

    return 0 if all(r[2] == "pass" for r in results) else 2


if __name__ == "__main__":
    sys.exit(main())

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
import math
import sys

import numpy as np

from . import io as ffio
from .currents import DEFAULT_TOL, betti1, classify
from .calculus import (
    _check_tol,
    divergence,
    gradient,
    l1_norm,
    linf_norm,
    lip_constant,
)
from .errors import FreeflowError, ParseError
from .experiments import (
    cutoff_decay,
    divergence_free_field,
    extension_experiment,
    refinement_study,
    weakstar_probe,
)
from .freenorm import METHODS, FieldSolveParams, free_norm
from .mesh import geodesic_distances
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
        "flat_rect nx16-128 and icosphere L3-L5 took at most 28",
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
    p.add_argument("kind", choices=tuple(_EXPERIMENT_KEYS))
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


def cmd_validate_mesh(args):
    mesh = ffio.mesh_from_dict(ffio.read_json(args.mesh))
    print(json.dumps(_validate_mesh_payload(mesh), indent=2))
    return 0


def _validate_mesh_payload(mesh):
    """The summary ``validate-mesh`` prints; also run by batch entries."""
    return {
        "dimension": mesh.dimension,
        "vertices": mesh.vertex_count,
        "edges": len(mesh.edges),
        "faces": len(mesh.triangles),
        "boundary_edges": len(mesh.boundary_edges),
        "base_vertex": mesh.base_vertex,
        "mesh_hash": ffio.mesh_hash(mesh),
    }


def cmd_calc(args):
    mesh = ffio.mesh_from_dict(ffio.read_json(args.mesh))
    kind, values = ffio.field_from_dict(mesh, ffio.read_json(args.field))
    if args.op == "grad":
        if kind != "scalar":
            raise ParseError("grad needs a scalar field")
        out = gradient(mesh, values)
        payload = (
            ffio.face_field_to_dict(mesh, out)
            if mesh.dimension == 2
            else ffio.edge_values_to_dict(mesh, out)
        )
    elif args.op == "div":
        if kind == "scalar":
            raise ParseError("div needs a vector field")
        payload = ffio.scalar_field_to_dict(mesh, divergence(mesh, values))
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
    _check_tol("tolerance", args.tol)
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
    mesh = ffio.mesh_from_dict(ffio.read_json(args.mesh))
    molecule = ffio.molecule_from_dict(ffio.read_json(args.molecule))
    _emit(_free_norm_payload(mesh, molecule, args.method, params), args.out)
    return 0


def _free_norm_payload(mesh, molecule, method="all", field_params=None):
    """The report ``free-norm`` writes; also run by batch entries."""
    report = free_norm(mesh, molecule, method=method, field_params=field_params)
    payload = report.to_dict()
    payload["method"] = method
    payload["mesh_hash"] = ffio.mesh_hash(mesh)
    return payload


_EXPERIMENT_KEYS = {
    "cutoff": {"kind", "width", "height", "nx", "ny", "ks", "decay", "seed"},
    "extension": {"kind", "nx", "center", "r_inner", "r_outer", "seed"},
    "weakstar": {"kind", "mesh_kind", "n", "total_length", "steps", "seed"},
    "refine": {"kind", "primitive", "levels", "atoms", "include_field",
               "field_max_iter", "field_tol", "seed"},
}


def _integer(x):
    if type(x) is not int or x < 0:
        raise ValueError("not a non-negative JSON integer")
    return x


def _boolean(x):
    if type(x) is not bool:
        raise ValueError("not a JSON boolean")
    return x


def _number(x):
    if type(x) not in (int, float) or not math.isfinite(x):
        raise ValueError("not a finite JSON number")
    return x


def _string(x):
    if type(x) is not str:
        raise ValueError("not a JSON string")
    return x


def _list_of(convert):
    def converted(x):
        if type(x) is not list:
            raise ValueError("not a JSON list")
        return [convert(item) for item in x]

    return converted


def _pair(first, second):
    def converted(x):
        if type(x) is not list or len(x) != 2:
            raise ValueError("not a JSON list of two items")
        return first(x[0]), second(x[1])

    return converted


_POINT = _pair(_number, _number)


def _setting(config, key, default, convert):
    """``config[key]``, or ``default``, passed through ``convert``."""
    value = config.get(key, default)
    try:
        return convert(value)
    except ValueError as exc:
        raise ParseError(f"{key!r}: {value!r} is {exc}") from None


def run_experiment(kind, config):
    if type(kind) is not str or kind not in _EXPERIMENT_KEYS:
        raise ParseError(f"unknown experiment kind {kind!r}")
    if type(config) is not dict:
        raise ParseError(
            f"experiment config must be a JSON object, found {type(config).__name__}"
        )
    declared = config.get("kind", kind)
    if declared != kind:
        raise ParseError(f"config kind {declared!r} does not match {kind!r}")
    unknown = set(config) - _EXPERIMENT_KEYS[kind]
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    rng = np.random.default_rng(_setting(config, "seed", 42, _integer))
    if kind == "cutoff":
        ks = _setting(config, "ks", [1, 2, 4, 8], _list_of(_number))
        if not ks:
            raise ParseError("cutoff config has no scales in 'ks'")
        decay = _setting(config, "decay", 4.0, _number)
        if decay <= 0:
            raise ParseError(f"cutoff 'decay' must be positive, got {decay}")
        mesh = generate_primitive(
            "flat_rect",
            width=_setting(config, "width", 32.0, _number),
            height=_setting(config, "height", 1.0, _number),
            nx=_setting(config, "nx", 160, _integer),
            ny=_setting(config, "ny", 8, _integer),
        )
        dist = geodesic_distances(mesh, mesh.base_vertex)
        g = divergence_free_field(mesh, potential=np.exp(-dist / decay))
        return cutoff_decay(mesh, g, dist, ks=ks)
    if kind == "extension":
        nx = _setting(config, "nx", 20, _integer)
        center = np.array(_setting(config, "center", [0.5, 0.5], _POINT), dtype=float)
        r_inner = _setting(config, "r_inner", 0.15, _number)
        r_outer = _setting(config, "r_outer", 0.35, _number)
        mesh = generate_primitive("flat_rect", nx=nx)
        bary = mesh.aux["positions"][mesh.triangles].mean(axis=1)
        r = np.linalg.norm(bary - center[None, :], axis=1)
        faces = np.flatnonzero((r >= r_inner) & (r <= r_outer))
        return extension_experiment(mesh, faces, rng=rng)
    if kind == "weakstar":
        mesh_kind = config.get("mesh_kind", "circle_graph")
        params = {"n": _setting(config, "n", 32, _integer)}
        if "total_length" in config:
            params["total_length"] = _setting(config, "total_length", None, _number)
        steps = _setting(config, "steps", 16, _integer)
        if steps < 1:
            raise ParseError(f"weakstar 'steps' must be >= 1, got {steps}")
        mesh = generate_primitive(mesh_kind, **params)
        dist = geodesic_distances(mesh, mesh.base_vertex)
        g = rng.normal(size=len(mesh.edges))
        f_lim = np.zeros(mesh.vertex_count)
        seq = [f_lim + dist / k for k in range(1, steps + 1)]
        l1g = l1_norm(mesh, g)
        report = weakstar_probe(
            mesh, seq, f_lim, g, lip_bound=1.0,
            pass_threshold=(1.0 / steps) * l1g * (1.0 + 1e-9),
        )
        per_row = [
            row["deviation"] <= (1.0 / (i + 1)) * l1g * (1.0 + 1e-9)
            for i, row in enumerate(report.rows)
        ]
        report.details["per_step_bound_holds"] = all(per_row)
        report.passed = report.passed and all(per_row)
        return report
    # kind == "refine"
    missing = [k for k in ("primitive", "levels", "atoms") if not config.get(k)]
    if missing:
        raise ParseError(f"refine config lacks or leaves empty {missing}")
    params = FieldSolveParams(
        max_iter=_setting(config, "field_max_iter", FieldSolveParams.max_iter, _integer),
        tol=_setting(config, "field_tol", FieldSolveParams.tol, _number),
    )
    return refinement_study(
        config["primitive"],
        _setting(config, "levels", None, _list_of(_integer)),
        # refinement_study checks each target's length against the primitive
        _setting(config, "atoms", None, _list_of(_pair(_list_of(_number), _number))),
        include_field=_setting(config, "include_field", False, _boolean),
        field_params=params,
    )


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


def _run_batch_entry(entry, load_mesh):
    """Run one manifest entry through its command's payload function.

    Returns ``(status, detail)``: "pass" when the command succeeded,
    "fail" when an experiment criterion failed; an entry that raises is
    recorded as "error" by the caller.
    """
    command = entry.get("command")
    # file paths must be strings: open() takes an integer as a descriptor
    out = _setting(entry, "out", "", _string)
    if command == "free-norm":
        mesh = load_mesh(_setting(entry, "mesh", None, _string))
        molecule_path = _setting(entry, "molecule", None, _string)
        molecule = ffio.molecule_from_dict(ffio.read_json(molecule_path))
        payload = _free_norm_payload(mesh, molecule, entry.get("method", "all"))
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
        mesh = load_mesh(_setting(entry, "mesh", None, _string))
        payload = _validate_mesh_payload(mesh)
        return "pass", f"vertices={payload['vertices']}"
    raise ParseError(f"unsupported batch command {command!r}")


def cmd_batch(args):
    manifest = ffio.read_json(args.manifest)
    entries = manifest.get("entries", [])
    if type(entries) is not list or any(type(e) is not dict for e in entries):
        raise ParseError("batch manifest 'entries' must be a list of JSON objects")
    # each mesh path is read and parsed once per run
    load_mesh = functools.cache(lambda path: ffio.mesh_from_dict(ffio.read_json(path)))
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

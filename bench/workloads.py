"""The benchmark workloads: inputs, ops and per-op checks.

Each ``setup_*`` builds one workload's inputs from a seed and returns a
:class:`Workload`. An op's ``run`` is the timed call into freeflow; its
``check`` runs outside the timers and returns ``None`` or a message. Ops
reach freeflow only through ``ff`` (the package) and ``ff.cli.main``,
looked up at call time so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Acceptance tolerances (tests/test_acceptance.py), never loosened here.
GAP_REL_TOL = 1e-6  # criterion 1: graph - dual <= 1e-6 * max(1, |dual|)
ORACLE_TOL = 1e-9  # criterion 2: |dual - oracle| <= 1e-9
LIP_MODES_TOL = 1e-12  # criterion 3: edgewise and pairwise modes agree
FIELD_REL_TOL = 0.05  # criterion 8: field within 5% of the continuum norm
POTENTIAL_TOL = 1e-9  # dual potentials are edgewise 1-Lipschitz


@dataclass
class Op:
    label: str
    run: object  # () -> result
    check: object  # result -> None | str
    threaded: bool = False  # runs worker threads (see calibrate.Sampler.measure)


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list = field(default_factory=list)  # callables run during setup
    meshes: dict = field(default_factory=dict)  # label -> vertex count
    array_share: float = 0.0  # weight of calibrate's array part
    pass_s: float = 1.0  # nominal reference seconds of one pass over ops


def random_molecule(ff, mesh, rng, n_atoms):
    """Distinct non-base vertices with coefficients +-[0.1, 3]."""
    candidates = np.setdiff1d(np.arange(mesh.vertex_count), [mesh.base_vertex])
    verts = rng.choice(candidates, size=n_atoms, replace=False)
    coeffs = rng.uniform(0.1, 3.0, size=n_atoms) * rng.choice([-1.0, 1.0], n_atoms)
    return ff.Molecule(tuple(zip(verts.tolist(), coeffs.tolist())))


def molecule_vector(mesh, molecule):
    b = np.zeros(mesh.vertex_count)
    for v, c in molecule.atoms:
        b[v] += c
    b[mesh.base_vertex] -= sum(c for _, c in molecule.atoms)
    return b


def check_potential(mesh, atoms, value, potential):
    """The dual witness is edgewise 1-Lipschitz and reproduces the value."""
    p = np.asarray(potential, dtype=float)
    u, v = mesh.edges[:, 0], mesh.edges[:, 1]
    excess = float(np.max(np.abs(p[v] - p[u]) - mesh.edge_lengths))
    if excess > POTENTIAL_TOL:
        return f"potential breaks the 1-Lipschitz bound by {excess:.3e}"
    evaluated = sum(c * p[int(x)] for x, c in atoms)
    if abs(evaluated - value) > POTENTIAL_TOL * max(1.0, abs(value)):
        return f"potential evaluates to {evaluated!r}, reported {value!r}"
    return None


# -- exact_small --------------------------------------------------------

EXACT_SURFACES = (
    ("annulus 16x4", "annulus", {"n_angular": 16, "n_radial": 4}),
    ("poincare_disk_patch 16x5", "poincare_disk_patch", {"n_angular": 16, "n_radial": 5}),
    ("torus nx12", "torus", {"nx": 12}),
    ("icosphere L2", "icosphere", {"level": 2}),
    ("flat_rect nx12", "flat_rect", {"nx": 12}),
)
EXACT_REPEATS = 3  # each surface sees every atom count 1..12 this often


def check_exact(values):
    dual, graph, oracle = values
    gap_tol = GAP_REL_TOL * max(1.0, abs(dual))
    if not graph - dual <= gap_tol:
        return f"duality gap {graph - dual!r} exceeds {gap_tol!r}"
    if not abs(dual - oracle) <= ORACLE_TOL:
        return f"dual {dual!r} and oracle {oracle!r} differ"
    return None


def setup_exact_small(ff, workdir, seed):
    """About 180 certified solves (dual, graph primal, oracle) of 1-12
    atom molecules, spread over five small surfaces built once."""
    rng = np.random.default_rng(seed)
    meshes = {
        label: ff.generate_primitive(kind, **params)
        for label, kind, params in EXACT_SURFACES
    }
    cases = [
        (label, n_atoms)
        for label in meshes
        for n_atoms in list(range(1, 13)) * EXACT_REPEATS
    ]
    cases = [cases[i] for i in rng.permutation(len(cases))]

    def solve(mesh, molecule):
        dual, _ = ff.dual_lp(mesh, molecule)
        graph, _ = ff.beckmann_graph(mesh, molecule)
        return dual, graph, ff.transport_oracle(mesh, molecule)

    ops = []
    for label, n_atoms in cases:
        mesh = meshes[label]
        molecule = random_molecule(ff, mesh, rng, n_atoms)
        ops.append(
            Op(
                f"{label} {n_atoms} atoms",
                lambda mesh=mesh, molecule=molecule: solve(mesh, molecule),
                check_exact,
            )
        )
    # one small solve per surface fills the per-mesh caches before timing
    warmup = [
        (lambda mesh=mesh: solve(mesh, ff.Molecule(((1, 1.0),))))
        for mesh in meshes.values()
    ]
    return Workload(
        "exact_small",
        ops,
        warmup,
        {label: mesh.vertex_count for label, mesh in meshes.items()},
        pass_s=18.0,
    )


# -- field_ladder -------------------------------------------------------

FIELD_LEVELS = (
    ("flat_rect nx16", "flat_rect", {"nx": 16}),
    ("flat_rect nx24", "flat_rect", {"nx": 24}),
    ("flat_rect nx32", "flat_rect", {"nx": 32}),
    ("flat_rect nx40", "flat_rect", {"nx": 40}),
    ("icosphere L3", "icosphere", {"level": 3}),
    ("icosphere L4", "icosphere", {"level": 4}),
)
# Atom targets snap to the nearest vertex at every level; the continuum
# norm of +delta(a) - delta(b) is their distance: 0.5 on the unit square,
# half a great circle between two antipodal icosahedron corners.
_CORNER = np.array([1.0, (1.0 + math.sqrt(5.0)) / 2.0, 0.0])
_CORNER /= np.linalg.norm(_CORNER)
TARGETS = {
    "flat_rect": (((0.25, 0.5), (0.75, 0.5)), 0.5),
    "icosphere": ((_CORNER, -_CORNER), math.pi),
}


def _snapped_molecule(ff, mesh, targets):
    positions = mesh.aux["positions"]
    atoms = []
    for target, coeff in zip(targets, (1.0, -1.0)):
        dist = np.linalg.norm(positions - np.asarray(target)[None, :], axis=1)
        atoms.append((int(np.argmin(dist)), coeff))
    return ff.Molecule(tuple(atoms))


def field_op(ff, kind, params):
    """Build a fresh mesh, solve the field route and the dual reference."""
    mesh = ff.generate_primitive(kind, **params)
    molecule = _snapped_molecule(ff, mesh, TARGETS[kind][0])
    report = ff.free_norm(mesh, molecule, method="field")
    dual, _ = ff.dual_lp(mesh, molecule)
    return mesh, molecule, report, dual


def check_field(ff, continuum, outcome):
    mesh, molecule, report, dual = outcome
    tol = ff.FieldSolveParams().tol
    residual = float(
        np.max(np.abs(ff.divergence(mesh, report.optimal_field) - molecule_vector(mesh, molecule)))
    )
    if not residual <= tol:
        return f"divergence residual {residual:.3e} exceeds {tol:.1e}"
    value = report.primal_field_value
    if not abs(value - continuum) <= FIELD_REL_TOL * continuum:
        return f"field value {value!r} is not within 5% of {continuum!r}"
    if not (np.isfinite(dual) and dual > 0):
        return f"dual reference {dual!r} is not a positive number"
    return None


def setup_field_ladder(ff, workdir, seed):
    """Mesh build plus field solve per level: ``experiment refine``
    without the graph primal. Inputs do not depend on the seed, so the
    iteration counts repeat exactly."""
    ops = [
        Op(
            label,
            lambda kind=kind, params=params: field_op(ff, kind, params),
            lambda outcome, kind=kind: check_field(ff, TARGETS[kind][1], outcome),
        )
        for label, kind, params in FIELD_LEVELS
    ]
    # a tiny field solve imports and exercises the sparse factorization path
    warmup = [lambda: field_op(ff, "flat_rect", {"nx": 4})]
    sizes = {}
    for label, kind, params in FIELD_LEVELS:
        if kind == "flat_rect":
            sizes[label] = (params["nx"] + 1) ** 2
        else:
            sizes[label] = 10 * 4 ** params["level"] + 2
    # field iterations are many small vectorized steps: about half
    # interpreter dispatch, half array work
    return Workload("field_ladder", ops, warmup, sizes, array_share=0.5, pass_s=13.0)


# -- cli_surfaces -------------------------------------------------------

TOPOLOGY_MESHES = (
    ("annulus 16x4", "annulus", {"n_angular": 16, "n_radial": 4}, 1),
    ("torus nx12", "torus", {"nx": 12}, 2),
    ("torus nx16", "torus", {"nx": 16}, 2),
    ("flat_rect nx20", "flat_rect", {"nx": 20}, 0),
)
LARGE_MESHES = (
    ("flat_rect nx64", "flat_rect", {"nx": 64}),
    ("icosphere L4", "icosphere", {"level": 4}),
)
BATCH_MESH = ("flat_rect nx48", "flat_rect", {"nx": 48})
CLI_ATOMS = 50
# SSP time differs up to 2.5x between 50-atom molecules on one mesh (CV 23%
# on flat_rect nx48), which would swamp any regression bound when a run
# holds four such solves. So the molecules come from one fixed draw, and
# the seed varies only the fields and forms, whose cost is value-blind.
# exact_small carries the molecule variety.
CLI_MOLECULE_SEED = 0
BATCH_THREADS = "2"


def run_cli(ff, argv, env=None):
    """``freeflow.cli.main`` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    try:
        with contextlib.redirect_stdout(out):
            code = ff.cli.main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue()


def _exit_ok(result):
    code, stdout = result
    if code != 0:
        return f"exit code {code}: {stdout[-300:]}"
    return None


def setup_cli_surfaces(ff, workdir, seed):
    """In-process CLI calls on JSON files: every call re-reads its inputs
    and rebuilds the mesh. An op is one command, except that each
    topology mesh is validated and then checked as one op."""
    rng = np.random.default_rng(seed)
    molecule_rng = np.random.default_rng(CLI_MOLECULE_SEED)
    ffio = ff.io
    ops = []
    sizes = {}

    def path(label, suffix):
        return os.path.join(workdir, label.replace(" ", "_") + suffix)

    def write_mesh(label, kind, params):
        mesh = ff.generate_primitive(kind, **params)
        mesh_path = path(label, ".mesh.json")
        ffio.write_json(mesh_path, ffio.mesh_to_dict(mesh))
        sizes[label] = mesh.vertex_count
        return mesh, mesh_path

    def write_molecule(label, mesh):
        molecule = random_molecule(ff, mesh, molecule_rng, CLI_ATOMS)
        molecule_path = path(label, ".molecule.json")
        ffio.write_json(molecule_path, ffio.molecule_to_dict(molecule))
        return molecule, molecule_path

    def cli_op(label, argv, check, env=None, threaded=False):
        return Op(label, lambda: run_cli(ff, argv, env), check, threaded)

    for label, kind, params, betti in TOPOLOGY_MESHES:
        mesh, mesh_path = write_mesh(label, kind, params)
        form_path, out_path = path(label, ".form.json"), path(label, ".currents.json")
        form = ff.d0(mesh, rng.normal(size=mesh.vertex_count))
        ffio.write_json(form_path, ffio.edge_values_to_dict(mesh, form))
        validate = ["validate-mesh", mesh_path]
        currents = ["check-currents", "--mesh", mesh_path, "--form", form_path, "--out", out_path]
        ops.append(
            Op(
                f"validate-mesh + check-currents {label}",
                lambda a=validate, b=currents: (run_cli(ff, a), run_cli(ff, b)),
                lambda r, out=out_path, betti=betti: (
                    _exit_ok(r[0]) or _check_currents(ffio, r[1], out, betti)
                ),
            )
        )

    for label, kind, params in LARGE_MESHES:
        mesh, mesh_path = write_mesh(label, kind, params)
        field_path, norms_path = path(label, ".scalar.json"), path(label, ".norms.json")
        scalar = rng.normal(size=mesh.vertex_count)
        ffio.write_json(field_path, ffio.scalar_field_to_dict(mesh, scalar))
        ops.append(
            cli_op(
                f"calc norms {label}",
                ["calc", "norms", "--mesh", mesh_path, "--field", field_path, "--out", norms_path],
                lambda r, out=norms_path: _check_norms(ffio, r, out),
            )
        )
        molecule, molecule_path = write_molecule(label, mesh)
        report_path = path(label, ".report.json")
        ops.append(
            cli_op(
                f"free-norm dual {label}",
                ["free-norm", "--mesh", mesh_path, "--molecule", molecule_path,
                 "--method", "dual", "--out", report_path],
                lambda r, out=report_path, m=mesh, mol=molecule: _check_report(ffio, r, out, m, mol),
            )
        )

    label, kind, params = BATCH_MESH
    batch_mesh, batch_mesh_path = write_mesh(label, kind, params)
    molecule, molecule_path = write_molecule("batch", batch_mesh)
    report_path = path("batch", ".report.json")
    # one entry per worker thread
    entries = [
        {"command": "free-norm", "mesh": batch_mesh_path, "molecule": molecule_path,
         "method": "dual", "out": report_path},
        {"command": "validate-mesh", "mesh": batch_mesh_path},
    ]
    manifest_path, summary_path = path("batch", ".manifest.json"), path("batch", ".summary.csv")
    ffio.write_json(manifest_path, {"entries": entries})
    ops.append(
        cli_op(
            f"batch {label}",
            ["batch", manifest_path, "--out", summary_path],
            lambda r: _check_batch(
                ffio, r, summary_path, len(entries), report_path, batch_mesh, molecule
            ),
            env={"FREEFLOW_THREADS": BATCH_THREADS},
            threaded=True,
        )
    )

    for kind in ("cutoff", "extension"):
        config_path, out_path = path(kind, ".config.json"), path(kind, ".report.json")
        ffio.write_json(config_path, {"kind": kind})
        ops.append(
            cli_op(
                f"experiment {kind}",
                ["experiment", kind, "--config", config_path, "--out", out_path],
                _exit_ok,
            )
        )

    warmup_path = path("warmup", ".mesh.json")
    ffio.write_json(warmup_path, ffio.mesh_to_dict(ff.generate_primitive("flat_rect", nx=2)))
    warmup = [lambda: run_cli(ff, ["validate-mesh", warmup_path])]
    # about half the pass is interpreter-bound (SSP, mesh build, JSON) and
    # half dense array work (all-pairs distances, Lipschitz ratios, betti1)
    return Workload("cli_surfaces", ops, warmup, sizes, array_share=0.5, pass_s=15.0)


def _check_currents(ffio, result, out_path, expected_betti):
    problem = _exit_ok(result)
    if problem:
        return problem
    payload = ffio.read_json(out_path)
    if payload["betti1"] != expected_betti:
        return f"betti1 {payload['betti1']} != {expected_betti}"
    if payload["kind"] != "exact":
        return f"d0 form classified {payload['kind']!r}"
    return None


def _check_norms(ffio, result, out_path):
    problem = _exit_ok(result)
    if problem:
        return problem
    payload = ffio.read_json(out_path)
    edge, pair = payload["lip_edgewise"], payload["lip_pairwise_geodesic"]
    if not abs(edge - pair) <= LIP_MODES_TOL:
        return f"Lipschitz modes disagree: {edge!r} vs {pair!r}"
    return None


def _check_report(ffio, result, out_path, mesh, molecule):
    problem = _exit_ok(result)
    if problem:
        return problem
    payload = ffio.read_json(out_path)
    return check_potential(
        mesh, molecule.atoms, payload["dual_value"], payload["optimal_potential"]
    )


def _check_batch(ffio, result, summary_path, n_entries, report_path, mesh, molecule):
    problem = _exit_ok(result)
    if problem:
        return problem
    with open(summary_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_entries or any(row["status"] != "pass" for row in rows):
        return f"batch summary: {[(r['command'], r['status']) for r in rows]}"
    return _check_report(ffio, result, report_path, mesh, molecule)


SETUPS = {
    "exact_small": setup_exact_small,
    "field_ladder": setup_field_ladder,
    "cli_surfaces": setup_cli_surfaces,
}

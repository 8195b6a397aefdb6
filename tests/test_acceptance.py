"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance below is fixed by the criterion it checks.
"""

import time

import numpy as np

from freeflow.calculus import (
    dist_pairing,
    divergence,
    gradient,
    l1_norm,
    lip_constant,
    pairing,
)
from freeflow.currents import betti1, classify
from freeflow.experiments import cutoff_decay, divergence_free_field, extend_by_zero
from freeflow.experiments import normal_flux_counterexample, tangential_subset_field
from freeflow.freenorm import (
    FieldSolveParams,
    Molecule,
    beckmann_field,
    beckmann_graph,
    canonicalize,
    dual_lp,
    transport_oracle,
)
from freeflow.mesh import geodesic_distances
from freeflow.primitives import generate_primitive

from conftest import random_molecule
from test_currents import annulus_generator, reclosed_noise


def _report(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def test_criterion_01_isometry_duality(flat4, ico2, annulus, torus):
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    for mesh in (flat4, ico2, annulus, torus):
        for _ in range(20):
            mu = random_molecule(mesh, rng, max_atoms=6, scale=3.0)
            dual, _ = dual_lp(mesh, mu)
            graph, _ = beckmann_graph(mesh, mu)
            gap = abs(dual - graph)
            tol = 1e-6 * max(1.0, abs(dual))
            assert gap <= tol, f"gap {gap} exceeds {tol}"
            worst = max(worst, gap / tol)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    _report(1, f"{checked} molecules on 4 meshes, worst gap/tol {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_02_oracle_equivalence(flat4, ico1, torus8):
    rng = np.random.default_rng(102)
    meshes = (flat4, ico1, torus8)
    worst = 0.0
    for i in range(50):
        mesh = meshes[i % 3]
        mu = random_molecule(mesh, rng, max_atoms=12, scale=3.0)
        dual, _ = dual_lp(mesh, mu)
        oracle = transport_oracle(mesh, mu)
        assert abs(dual - oracle) <= 1e-9
        worst = max(worst, abs(dual - oracle))
    _report(2, f"50 molecules across 3 meshes, worst |dual - oracle| {worst:.2e}")


def test_criterion_03_lipschitz_gradient_isometry(
    flat4, ico1, annulus, torus, poincare
):
    rng = np.random.default_rng(103)
    meshes = (flat4, ico1, annulus, torus, poincare)
    for i in range(100):
        mesh = meshes[i % 5]
        f = rng.normal(size=mesh.vertex_count)
        edge = lip_constant(mesh, f, "edgewise")
        pair = lip_constant(mesh, f, "pairwise_geodesic")
        assert abs(edge - pair) <= 1e-12
    for mesh in meshes:
        f = geodesic_distances(mesh, mesh.base_vertex)
        assert abs(lip_constant(mesh, f, "edgewise") - 1.0) <= 1e-12
        assert abs(lip_constant(mesh, f, "pairwise_geodesic") - 1.0) <= 1e-12
    _report(3, "100 random fields, 5 meshes, modes agree to 1e-12; "
               "distance fields extremal")


def test_criterion_04_adjointness(flat6, torus):
    rng = np.random.default_rng(104)
    worst = 0.0
    for mesh in (flat6, torus):
        boundary = list(mesh.boundary_vertices)
        for _ in range(50):
            f = rng.normal(size=mesh.vertex_count)
            f[boundary] = 0.0
            g = rng.normal(size=(len(mesh.triangles), 2))
            identity = pairing(mesh, gradient(mesh, f), g) + dist_pairing(
                mesh, f, divergence(mesh, g)
            )
            assert abs(identity) <= 1e-9
            worst = max(worst, abs(identity))
    _report(4, f"100 (f, g) pairs on disk and torus, worst defect {worst:.2e}")


def test_criterion_05_closed_vs_exact(flat4, annulus, torus):
    assert betti1(flat4) == 0
    assert betti1(annulus) == 1
    assert betti1(torus) == 2
    rng = np.random.default_rng(105)
    for _ in range(50):
        omega = reclosed_noise(flat4, rng)
        result = classify(flat4, omega)
        assert result.kind == "exact"
        assert result.exactness_residual <= 1e-8
    generator = annulus_generator(annulus)
    result = classify(annulus, generator)
    assert result.kind == "closed_not_exact"
    assert result.closedness_residual <= 1e-10
    assert result.exactness_residual >= 0.1
    _report(5, "betti1 = (0, 1, 2); 50 re-closed disk forms exact; annulus "
               "generator closed-not-exact")


def test_criterion_06_cutoff_decay():
    start = time.monotonic()
    strip = generate_primitive("flat_rect", width=32.0, height=1.0, nx=160, ny=8)
    assert len(strip.triangles) >= 2000
    dist = geodesic_distances(strip, strip.base_vertex)
    g = divergence_free_field(strip, potential=np.exp(-dist / 4.0))
    report = cutoff_decay(strip, g, dist, ks=[1, 2, 4, 8])
    measured = [row["measured"] for row in report.rows]
    bounds = [row["bound"] for row in report.rows]
    for m, b in zip(measured, bounds):
        assert m <= 1.1 * b
    assert all(b < a for a, b in zip(measured, measured[1:]))
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0
    _report(6, f"strip of length 32 ({len(strip.triangles)} faces), measured "
               f"within bounds and strictly decreasing, {elapsed:.1f}s")


def test_criterion_07_extension_by_zero():
    mesh = generate_primitive("flat_rect", nx=20)
    bary = mesh.aux["positions"][mesh.triangles].mean(axis=1)
    r = np.linalg.norm(bary - [0.5, 0.5], axis=1)
    faces = np.flatnonzero((r >= 0.15) & (r <= 0.35))
    tangential = tangential_subset_field(mesh, faces, rng=np.random.default_rng(107))
    extended = extend_by_zero(mesh, faces, tangential)
    tangential_div = float(np.abs(divergence(mesh, extended)).max())
    assert tangential_div <= 1e-8
    counter, _ = normal_flux_counterexample(mesh, faces)
    counter_div = float(np.abs(divergence(mesh, extend_by_zero(mesh, faces, counter))).max())
    assert counter_div >= 0.01
    _report(7, f"tangential field divergence {tangential_div:.2e}; unit-flux "
               f"counterexample divergence {counter_div:.3f}")


def test_criterion_08_continuum_convergence():
    start = time.monotonic()
    mesh = generate_primitive("flat_rect", nx=52)
    assert len(mesh.triangles) >= 5000
    positions = mesh.aux["positions"]
    i1 = int(np.argmin(np.linalg.norm(positions - [0.25, 0.5], axis=1)))
    i2 = int(np.argmin(np.linalg.norm(positions - [0.75, 0.5], axis=1)))
    mu = Molecule(((i1, 1.0), (i2, -1.0)))
    params = FieldSolveParams(max_iter=5000, tol=1e-6)
    value, _, diag = beckmann_field(mesh, mu, params=params)
    # stopped on its certificate, not on the cap
    assert diag["iterations"] < params.max_iter
    assert diag["lower"] <= value
    assert value - diag["lower"] <= params.tol * max(1.0, value)
    assert abs(value - 0.5) <= 0.05 * 0.5
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    _report(8, f"field value {value:.6f} vs 0.5 on {len(mesh.triangles)} faces, "
               f"certified above {diag['lower']:.6f} "
               f"({diag['iterations']} iterations, {elapsed:.1f}s)")


def test_criterion_09_weakstar_shift_sequence(circle32):
    interval16 = generate_primitive("interval_graph", n=16, total_length=8.0)
    rng = np.random.default_rng(109)
    for mesh in (circle32, interval16):
        g = rng.normal(size=len(mesh.edges))
        l1g = l1_norm(mesh, g)
        dist = geodesic_distances(mesh, mesh.base_vertex)
        grad_dist = gradient(mesh, dist)
        for k in range(1, 17):
            deviation = abs(pairing(mesh, grad_dist / k, g))
            assert deviation <= (1.0 / k) * l1g * (1.0 + 1e-9)
    _report(9, "shift sequence bounded by l1(g)/k for k = 1..16 on two graphs")


def test_criterion_10_norm_axioms(flat4, ico1, torus8):
    rng = np.random.default_rng(110)
    meshes = (flat4, ico1, torus8)
    for i in range(50):
        mesh = meshes[i % 3]
        mu = random_molecule(mesh, rng)
        nu = random_molecule(mesh, rng)
        c = float(rng.uniform(-3.0, 3.0))
        base, _ = dual_lp(mesh, mu)
        scaled, _ = dual_lp(mesh, mu.scale(c))
        assert abs(scaled - abs(c) * base) <= 1e-9
        a, _ = dual_lp(mesh, mu)
        b, _ = dual_lp(mesh, nu)
        both, _ = dual_lp(mesh, canonicalize(mu + nu, mesh.base_vertex))
        assert both <= a + b + 1e-9
    _report(10, "homogeneity and triangle inequality on 50 random pairs")

import math

import numpy as np
import pytest

from freeflow.currents import (
    betti1,
    classify,
    d0,
    d1,
    solve_potential,
    spanning_tree,
)
from freeflow.mesh import TriMesh
from freeflow.primitives import generate_primitive

from conftest import edge_index, face_edge_pairs

UNIT = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}


def annulus_generator(mesh):
    """Closed form with unit circulation around the core of an annulus.

    Built from the multivalued angle of the construction coordinates:
    branch-corrected angle increments divided by 2*pi.
    """
    theta = mesh.aux["theta"]
    omega = np.zeros(len(mesh.edges))
    for e, (u, v) in enumerate(mesh.edges):
        delta = theta[v] - theta[u]
        delta = (delta + math.pi) % (2.0 * math.pi) - math.pi
        omega[e] = delta / (2.0 * math.pi)
    return omega


def torus_generator(mesh, axis=0):
    """Closed form winding once around one handle of the flat torus."""
    pos = mesh.aux["positions"][:, axis]
    period = pos.max() + mesh.aux["spacing"][axis]
    omega = np.zeros(len(mesh.edges))
    for e, (u, v) in enumerate(mesh.edges):
        delta = pos[v] - pos[u]
        delta = (delta + period / 2.0) % period - period / 2.0
        omega[e] = delta / period
    return omega


def edge_length_map(mesh):
    return dict(zip(map(tuple, mesh.edges.tolist()), mesh.edge_lengths))


def two_icospheres(sphere, pinched):
    """Two copies of a closed surface, sharing vertex 0 when ``pinched``,
    otherwise joined by one graph edge between their vertex 0."""
    n = sphere.vertex_count
    shift = np.arange(n) + (n - 1 if pinched else n)
    if pinched:
        shift[0] = 0
    lengths = edge_length_map(sphere)
    for (u, v), l in edge_length_map(sphere).items():
        lengths[(int(shift[u]), int(shift[v]))] = l
    if not pinched:
        lengths[(0, n)] = 1.0
    triangles = np.concatenate([sphere.triangles, shift[sphere.triangles]])
    return TriMesh(triangles, lengths)


def disk_with_dangling_edge():
    """``flat_rect nx=3`` plus one graph edge from its last vertex to a
    new vertex; the new edge sorts last."""
    disk = generate_primitive("flat_rect", nx=3)
    lengths = edge_length_map(disk)
    lengths[(disk.vertex_count - 1, disk.vertex_count)] = 0.25
    return TriMesh(disk.triangles, lengths)


def kruskal_tree(mesh, order):
    """Union-find reference: the edges of ``order`` that join two trees."""
    parent = list(range(mesh.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    tree = []
    for e in order:
        ru, rv = (find(x) for x in mesh.edges[e].tolist())
        if ru != rv:
            parent[ru] = rv
            tree.append(int(e))
    return tree


def integrate_along_tree(mesh, omega, tree):
    """Loop reference of ``solve_potential`` on the same tree."""
    g = {mesh.base_vertex: 0.0}
    while len(g) < mesh.vertex_count:
        for e in tree:
            u, v = mesh.edges[e].tolist()
            if u in g and v not in g:
                g[v] = g[u] + omega[e]
            elif v in g and u not in g:
                g[u] = g[v] - omega[e]
    residual = 0.0
    for e, (u, v) in enumerate(mesh.edges.tolist()):
        if e not in tree:
            residual = max(residual, abs(g[v] - g[u] - omega[e]))
    return np.array([g[x] for x in range(mesh.vertex_count)]), residual


def d1_matrix(mesh):
    mat = np.zeros((len(mesh.triangles), len(mesh.edges)))
    edge_id = edge_index(mesh)
    for f in range(len(mesh.triangles)):
        for u, v in face_edge_pairs(mesh, f):
            mat[f, edge_id[min(u, v), max(u, v)]] += 1.0 if u < v else -1.0
    return mat


def reclosed_noise(mesh, rng):
    """Random edge noise projected onto ker(d1); exact on a disk."""
    mat = d1_matrix(mesh)
    eta = rng.normal(size=len(mesh.edges))
    y, *_ = np.linalg.lstsq(mat.T @ mat, mat.T @ (mat @ eta), rcond=None)
    return eta - y


class TestDifferentials:
    def test_d1_of_d0_vanishes(self, ico1):
        rng = np.random.default_rng(21)
        for _ in range(50):
            f = rng.normal(size=ico1.vertex_count)
            assert np.abs(d1(ico1, d0(ico1, f))).max() <= 1e-12

    def test_d1_matches_face_loop(self, annulus, torus):
        rng = np.random.default_rng(20)
        for mesh in (annulus, torus):
            omega = rng.normal(size=len(mesh.edges))
            edge_id = edge_index(mesh)
            loop = [
                sum(omega[edge_id[min(u, v), max(u, v)]] * (1.0 if u < v else -1.0)
                    for u, v in face_edge_pairs(mesh, f))
                for f in range(len(mesh.triangles))
            ]
            assert np.array_equal(d1(mesh, omega), loop)

    def test_single_face_uniform_circulation(self):
        m = TriMesh([(0, 1, 2)], UNIT)
        omega = np.array([1.0, -1.0, 1.0])  # edges (0,1), (0,2), (1,2)
        # face traversal 0->1->2->0 hits (0,2) against canonical
        assert d1(m, omega)[0] == pytest.approx(3.0)


class TestSolvePotential:
    @pytest.mark.parametrize(
        "fixture",
        ["flat4", "ico1", "annulus", "torus", "poincare", "circle32", "interval10"],
    )
    def test_matches_kruskal_and_loop_integration(self, request, fixture):
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(21)
        omega = rng.normal(size=len(mesh.edges))
        E = len(mesh.edges)
        for seed in (None, 1, 2):
            if seed is None:
                tree, order = spanning_tree(mesh), np.arange(E)
            else:
                tree = spanning_tree(mesh, rng=np.random.default_rng(seed))
                order = np.random.default_rng(seed).permutation(E)
            assert tree == kruskal_tree(mesh, order)
            g, residual = solve_potential(mesh, omega, tree=tree)
            g_ref, residual_ref = integrate_along_tree(mesh, omega, tree)
            assert np.array_equal(g, g_ref)
            assert residual == residual_ref

    def test_recovers_potential_of_exact_form(self, flat4):
        rng = np.random.default_rng(22)
        f = rng.normal(size=flat4.vertex_count)
        f -= f[flat4.base_vertex]
        g, residual = solve_potential(flat4, d0(flat4, f))
        assert residual <= 1e-12
        assert np.abs(g - f).max() <= 1e-12

    def test_circle_uniform_circulation_residual(self):
        m = generate_primitive("circle_graph", n=4, total_length=2 * math.pi)
        omega = np.zeros(4)
        cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edge_id = edge_index(m)
        for u, v in cycle:
            e = edge_id[min(u, v), max(u, v)]
            omega[e] = math.pi / 2 if u < v else -math.pi / 2
        _, residual = solve_potential(m, omega)
        assert residual == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_annulus_generator_has_unit_loop_residual(self, annulus):
        omega = annulus_generator(annulus)
        _, residual = solve_potential(annulus, omega)
        assert residual >= 0.1
        assert residual == pytest.approx(1.0, abs=1e-10)

    def test_residual_tree_independent_for_annulus_generator(self, annulus):
        omega = annulus_generator(annulus)
        base, _ = solve_potential(annulus, omega)
        _, res0 = solve_potential(annulus, omega)
        rng = np.random.default_rng(23)
        for _ in range(5):
            tree = spanning_tree(annulus, rng=rng)
            _, res = solve_potential(annulus, omega, tree=tree)
            assert abs(res - res0) <= 1e-10

    def test_residual_tree_independent_for_exact_forms(self, ico1):
        rng = np.random.default_rng(24)
        f = rng.normal(size=ico1.vertex_count)
        omega = d0(ico1, f)
        for _ in range(5):
            tree = spanning_tree(ico1, rng=rng)
            _, res = solve_potential(ico1, omega, tree=tree)
            assert res <= 1e-10


class TestClassify:
    def test_exact_form_with_witness(self, flat4):
        rng = np.random.default_rng(25)
        f = rng.normal(size=flat4.vertex_count)
        f -= f[flat4.base_vertex]
        result = classify(flat4, d0(flat4, f))
        assert result.kind == "exact"
        assert result.closedness_residual <= 1e-12
        assert result.exactness_residual <= 1e-12
        assert np.abs(result.witness_potential - f).max() <= 1e-9

    def test_annulus_generator_closed_not_exact(self, annulus):
        omega = annulus_generator(annulus)
        result = classify(annulus, omega)
        assert result.kind == "closed_not_exact"
        assert result.closedness_residual <= 1e-10
        assert result.exactness_residual >= 0.1
        assert result.witness_potential is None

    def test_torus_generators_closed_not_exact(self, torus):
        for axis in (0, 1):
            omega = torus_generator(torus, axis=axis)
            result = classify(torus, omega)
            assert result.kind == "closed_not_exact"
            assert result.closedness_residual <= 1e-10
            assert result.exactness_residual >= 0.1

    def test_random_noise_not_closed(self, ico1):
        rng = np.random.default_rng(26)
        omega = rng.normal(size=len(ico1.edges))
        result = classify(ico1, omega)
        assert result.kind == "not_closed"
        assert result.closedness_residual > 1e-8

    def test_reclosed_noise_on_disk_is_exact(self, flat4):
        rng = np.random.default_rng(27)
        for _ in range(50):
            omega = reclosed_noise(flat4, rng)
            result = classify(flat4, omega)
            assert result.kind == "exact"
            assert result.exactness_residual <= 1e-8

    def test_graphs_have_no_closedness_obstruction(self, circle32):
        omega = np.ones(len(circle32.edges))
        result = classify(circle32, omega)
        assert result.kind == "closed_not_exact"
        assert result.closedness_residual == 0.0


class TestBetti:
    def test_disk(self, flat4):
        assert betti1(flat4) == 0

    def test_annulus(self, annulus):
        assert betti1(annulus) == 1

    def test_torus(self, torus):
        assert betti1(torus) == 2

    def test_sphere(self, ico1):
        assert betti1(ico1) == 0

    def test_circle_graph(self, circle32):
        assert betti1(circle32) == 1

    def test_interval_graph(self, interval10):
        assert betti1(interval10) == 0

    def test_euler_characteristic_consistency(self, flat4, annulus, torus, ico1):
        # independent oracle: b1 = b0 + b2 - chi with b0 = 1
        for mesh, b2 in ((flat4, 0), (annulus, 0), (torus, 1), (ico1, 1)):
            chi = mesh.vertex_count - len(mesh.edges) + len(mesh.triangles)
            assert betti1(mesh) == 1 + b2 - chi

    def test_icospheres_joined_by_a_graph_edge(self, ico1):
        assert betti1(two_icospheres(ico1, pinched=False)) == 0

    def test_icospheres_pinched_at_a_vertex(self, ico1):
        assert betti1(two_icospheres(ico1, pinched=True)) == 0

    def test_disk_with_a_dangling_graph_edge(self):
        assert betti1(disk_with_dangling_edge()) == 0


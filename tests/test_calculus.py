import hashlib
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from freeflow import calculus
from freeflow.calculus import (
    divergence,
    divergence_matrix,
    divergence_normal_solver,
    dist_pairing,
    gradient,
    l1_norm,
    linf_norm,
    lip_constant,
    pairing,
)
from freeflow.mesh import TriMesh, geodesic_distances
from freeflow.primitives import generate_primitive

UNIT = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}


def interpolant_gradient(mesh, f, face):
    """Oracle: solve the 3x3 affine interpolation system in layout coords."""
    geom = mesh.face_geometry()
    tri = mesh.triangles[face]
    A = np.column_stack([np.ones(3), geom.layout[face]])
    coeff = np.linalg.solve(A, f[tri])
    return coeff[1:]


class TestGradient:
    def test_constant_field_has_zero_gradient(self, ico1):
        f = np.full(ico1.vertex_count, 3.25)
        assert np.abs(gradient(ico1, f)).max() <= 1e-13

    def test_matches_interpolation_oracle(self, flat4):
        rng = np.random.default_rng(2)
        f = rng.normal(size=flat4.vertex_count)
        g = gradient(flat4, f)
        for face in range(len(flat4.triangles)):
            assert np.allclose(g[face], interpolant_gradient(flat4, f, face), atol=1e-12)

    def test_coordinate_field_has_unit_covector(self, flat4):
        f = flat4.aux["positions"][:, 0].copy()
        g = gradient(flat4, f)
        norms = np.linalg.norm(g, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_hat_gradient_on_equilateral_face(self):
        m = TriMesh([(0, 1, 2)], UNIT)
        f = np.array([1.0, 0.0, 0.0])
        g = gradient(m, f)
        assert np.linalg.norm(g[0]) == pytest.approx(2.0 / math.sqrt(3), abs=1e-12)

    def test_linearity(self, ico1):
        rng = np.random.default_rng(3)
        f1 = rng.normal(size=ico1.vertex_count)
        f2 = rng.normal(size=ico1.vertex_count)
        lhs = gradient(ico1, 2.0 * f1 - 3.0 * f2)
        rhs = 2.0 * gradient(ico1, f1) - 3.0 * gradient(ico1, f2)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_graph_gradient_is_edge_slope(self, interval10):
        f = np.linspace(0.0, 5.0, interval10.vertex_count)
        g = gradient(interval10, f)
        assert np.allclose(g, 1.0, atol=1e-12)


class TestDivergence:
    def test_zero_field(self, flat4):
        g = np.zeros((len(flat4.triangles), 2))
        assert np.abs(divergence(flat4, g)).max() == 0.0

    def test_constant_field_on_flat_torus(self, torus):
        g = np.tile([0.8, -0.6], (len(torus.triangles), 1))
        assert np.abs(divergence(torus, g)).max() <= 1e-12

    def test_single_face_coefficients_sum_to_zero(self):
        m = TriMesh([(0, 1, 2)], UNIT)
        g = np.array([[1.0, 0.0]])
        div = divergence(m, g)
        geom = m.face_geometry()
        expected = -geom.areas[0] * geom.hat_gradients[0, :, 0]
        assert np.allclose(div, expected, atol=1e-15)
        assert abs(div.sum()) <= 1e-15

    def test_adjointness_with_boundary_zero_fields(self, flat6, torus):
        rng = np.random.default_rng(4)
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

    def test_adjointness_exact_for_all_fields(self, ico1):
        # the discrete identity needs no boundary condition at all
        rng = np.random.default_rng(5)
        f = rng.normal(size=ico1.vertex_count)
        g = rng.normal(size=(len(ico1.triangles), 2))
        identity = pairing(ico1, gradient(ico1, f), g) + dist_pairing(
            ico1, f, divergence(ico1, g)
        )
        assert abs(identity) <= 1e-12

    def test_linearity(self, flat4):
        rng = np.random.default_rng(6)
        g1 = rng.normal(size=(len(flat4.triangles), 2))
        g2 = rng.normal(size=(len(flat4.triangles), 2))
        lhs = divergence(flat4, 0.5 * g1 + 2.0 * g2)
        rhs = 0.5 * divergence(flat4, g1) + 2.0 * divergence(flat4, g2)
        assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize(
        "fixture, pin",
        [
            ("flat4", "783971e0d2fd84047048d73cbad9a989fac41dcdab731f4311227bc913f38555"),
            ("ico1", "f3af033bc78c29d9e7e87001bf9252cc0b2596615738f9af284e469627d24a01"),
            ("annulus", "c7c2cbb1796389ceeac46772384e874dd001825c60eca8a68e9054b938fd1ef5"),
            ("torus", "d41335232719a73d464b523c9b5260555821dfdaef1df74d124e946951401e2e"),
            ("poincare", "f868a1163c22ef34653e6936495ccecd3c7e9e0f952f8ab3c00f2b6e2f64e338"),
            ("circle32", "9c9edcbeec6b39041225c28103cfdb6c1f539fdce3ee9c065e7953a7c01f1403"),
            ("interval10", "470f196d7d79e47b28ef25a25e9db8eecae464fac9609fe31b055702d29ce489"),
        ],
    )
    def test_matrix_bytes_are_pinned(self, request, fixture, pin):
        # sha256 of the CSR arrays, so any change to the assembly's
        # entries, their order or their rounding shows
        A = divergence_matrix(request.getfixturevalue(fixture))
        payload = A.indptr.tobytes() + A.indices.tobytes() + A.data.tobytes()
        assert hashlib.sha256(payload).hexdigest() == pin

    def test_operators_are_built_once_per_mesh(self, flat6):
        assert divergence_matrix(flat6) is divergence_matrix(flat6)
        assert divergence_normal_solver(flat6) is divergence_normal_solver(flat6)


class TestPairingAndNorms:
    def test_zero_one_form_pairs_to_zero(self, flat4):
        f = np.zeros((len(flat4.triangles), 2))
        g = np.ones((len(flat4.triangles), 2))
        assert pairing(flat4, f, g) == 0.0

    def test_single_equilateral_face_value(self):
        m = TriMesh([(0, 1, 2)], UNIT)
        f = np.array([[1.0, 0.0]])
        assert pairing(m, f, f) == pytest.approx(math.sqrt(3) / 4, abs=1e-15)

    def test_bilinearity(self, ico1):
        rng = np.random.default_rng(13)
        f1 = rng.normal(size=(len(ico1.triangles), 2))
        f2 = rng.normal(size=(len(ico1.triangles), 2))
        g = rng.normal(size=(len(ico1.triangles), 2))
        lhs = pairing(ico1, 2.0 * f1 - f2, g)
        rhs = 2.0 * pairing(ico1, f1, g) - pairing(ico1, f2, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_hoelder_inequality(self, ico1):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = rng.normal(size=(len(ico1.triangles), 2))
            g = rng.normal(size=(len(ico1.triangles), 2))
            assert abs(pairing(ico1, f, g)) <= linf_norm(ico1, f) * l1_norm(
                ico1, g
            ) * (1 + 1e-12)

    def test_zero_norms(self, flat4):
        z = np.zeros((len(flat4.triangles), 2))
        assert l1_norm(flat4, z) == 0.0
        assert linf_norm(flat4, z) == 0.0

    def test_unit_constant_field_l1_is_total_area(self, flat4):
        g = np.tile([1.0, 0.0], (len(flat4.triangles), 1))
        assert l1_norm(flat4, g) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self, ico1):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(len(ico1.triangles), 2))
        assert l1_norm(ico1, -3.0 * g) == pytest.approx(3.0 * l1_norm(ico1, g), rel=1e-12)
        assert linf_norm(ico1, -3.0 * g) == pytest.approx(
            3.0 * linf_norm(ico1, g), rel=1e-12
        )

    def test_subadditivity(self, ico1):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(len(ico1.triangles), 2))
        g = rng.normal(size=(len(ico1.triangles), 2))
        assert l1_norm(ico1, f + g) <= l1_norm(ico1, f) + l1_norm(ico1, g) + 1e-12

    def test_graph_pairing_is_length_weighted(self, interval10):
        f = np.ones(len(interval10.edges))
        g = np.ones(len(interval10.edges))
        assert pairing(interval10, f, g) == pytest.approx(5.0, abs=1e-12)


class TestLipschitzConstant:
    def test_constant_field(self, flat4):
        f = np.full(flat4.vertex_count, 2.0)
        assert lip_constant(flat4, f, "edgewise") == 0.0
        assert lip_constant(flat4, f, "pairwise_geodesic") == 0.0

    def test_interval_step_field(self):
        m = generate_primitive("interval_graph", n=2, total_length=2.0)
        f = np.array([0.0, 1.0, 1.0])
        assert lip_constant(m, f, "edgewise") == pytest.approx(1.0)
        assert lip_constant(m, f, "pairwise_geodesic") == pytest.approx(1.0)

    def test_distance_field_is_extremal(
        self, flat4, ico1, annulus, torus, poincare
    ):
        for mesh in (flat4, ico1, annulus, torus, poincare):
            f = geodesic_distances(mesh, mesh.base_vertex)
            assert lip_constant(mesh, f, "edgewise") == pytest.approx(
                1.0, abs=1e-12
            )
            assert lip_constant(mesh, f, "pairwise_geodesic") == pytest.approx(
                1.0, abs=1e-12
            )

    def test_modes_agree_on_random_fields(self, flat4, ico1):
        rng = np.random.default_rng(10)
        for mesh in (flat4, ico1):
            for _ in range(50):
                f = rng.normal(size=mesh.vertex_count)
                edge = lip_constant(mesh, f, "edgewise")
                pair = lip_constant(mesh, f, "pairwise_geodesic")
                assert abs(edge - pair) <= 1e-12 * max(1.0, edge)

    def test_pairwise_row_blocks_match_the_dense_ratio(
        self, flat4, ico1, annulus, torus, poincare, circle32, monkeypatch
    ):
        rng = np.random.default_rng(11)
        default_block = calculus._PAIRWISE_BLOCK_ELEMENTS
        for mesh in (flat4, ico1, annulus, torus, poincare, circle32):
            V = mesh.vertex_count
            d = mesh.all_pairs_distances()
            x = mesh.aux["positions"][:, 0] if "positions" in mesh.aux else np.arange(V) / V
            fields = {
                "random": rng.normal(size=V),
                "distance": geodesic_distances(mesh, mesh.base_vertex),
                "x squared": x**2,
                "constant": np.full(V, -1.5),
            }
            for name, f in fields.items():
                with np.errstate(divide="ignore", invalid="ignore"):
                    dense = np.where(d > 0, np.abs(f[:, None] - f[None, :]) / d, 0.0)
                # five rows per block, so the search takes several blocks
                for block in (default_block, 5 * V):
                    monkeypatch.setattr(calculus, "_PAIRWISE_BLOCK_ELEMENTS", block)
                    got = lip_constant(mesh, f, "pairwise_geodesic")
                    assert got == float(dense.max()), (mesh, name, block)

        # 0.2 + 0.7 rounds below 0.9, so only the search finds the far pair
        path = TriMesh([], {(0, 1): 0.2, (1, 2): 0.7})
        f = np.array([0.0, 0.2, 0.9])
        assert lip_constant(path, f, "edgewise") == 1.0
        assert lip_constant(path, f, "pairwise_geodesic") == 0.9 / (0.2 + 0.7) > 1.0

    def test_pairwise_search_is_pruned_and_limited(self, monkeypatch):
        mesh = generate_primitive("flat_rect", nx=16)
        f = np.random.default_rng(13).normal(size=mesh.vertex_count)
        calls = []

        def recording_dijkstra(*args, **kwargs):
            calls.append(kwargs)
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(calculus, "dijkstra", recording_dijkstra)
        lip_constant(mesh, f, "pairwise_geodesic")
        assert calls
        assert all(math.isfinite(call["limit"]) for call in calls)
        searched = sum(len(call["indices"]) for call in calls)
        assert searched < mesh.vertex_count / 4

    def test_axis_aligned_equality_on_flat_rect(self, flat4):
        f = 1.7 * flat4.aux["positions"][:, 0]
        assert linf_norm(flat4, gradient(flat4, f)) == pytest.approx(
            lip_constant(flat4, f, "edgewise"), abs=1e-9
        )

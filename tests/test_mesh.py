import math

import numpy as np
import pytest

from freeflow.errors import (
    Disconnected,
    InvalidParams,
    NonManifold,
    TriangleInequalityViolated,
)
from freeflow.mesh import (
    build_mesh,
    build_patchwork,
    face_area,
    geodesic_distances,
)
from freeflow.calculus import l1_norm
from freeflow.io import mesh_hash
from freeflow.primitives import generate_primitive

UNIT = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}


def floyd_warshall(mesh):
    V = mesh.vertex_count
    d = np.full((V, V), np.inf)
    np.fill_diagonal(d, 0.0)
    for (u, v), l in zip(mesh.edges, mesh.edge_lengths):
        d[u, v] = d[v, u] = min(d[u, v], l)
    for k in range(V):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


class TestBuildMesh:
    def test_single_triangle(self):
        m = build_mesh([(0, 1, 2)], UNIT)
        assert m.vertex_count == 3
        assert m.dimension == 2
        assert len(m.boundary_edges) == 3

    def test_flip_is_repaired(self):
        # both faces given in the same rotational sense; a flip fixes it
        lengths = dict(UNIT)
        lengths[(1, 3)] = 1.0
        lengths[(2, 3)] = 1.0
        m = build_mesh([(0, 1, 2), (1, 2, 3)], lengths)
        traversals = {}
        for f in range(2):
            for u, v in m.oriented_face_edges(f):
                key = (min(u, v), max(u, v))
                traversals.setdefault(key, []).append(u < v)
        assert traversals[(1, 2)][0] != traversals[(1, 2)][1]

    def test_triangle_inequality_violation(self):
        with pytest.raises(TriangleInequalityViolated):
            build_mesh([(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})

    def test_disconnected(self):
        lengths = dict(UNIT)
        lengths.update({(3, 4): 1.0, (4, 5): 1.0, (3, 5): 1.0})
        with pytest.raises(Disconnected):
            build_mesh([(0, 1, 2), (3, 4, 5)], lengths)

    def test_nonmanifold_edge(self):
        lengths = dict(UNIT)
        lengths.update({(0, 3): 1.0, (1, 3): 1.0, (0, 4): 1.0, (1, 4): 1.0})
        with pytest.raises(NonManifold):
            build_mesh([(0, 1, 2), (0, 1, 3), (0, 1, 4)], lengths)

    def test_missing_length(self):
        with pytest.raises(Exception):
            build_mesh([(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0})

    def test_moebius_band_is_nonorientable(self):
        import itertools

        from freeflow.errors import NonOrientable

        faces = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
        lengths = {e: 1.0 for e in itertools.combinations(range(5), 2)}
        with pytest.raises(NonOrientable):
            build_mesh(faces, lengths)

    def test_sliver_face_is_degenerate(self):
        from freeflow.errors import DegenerateFace

        m = build_mesh(
            [(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0 - 1e-14}
        )
        with pytest.raises(DegenerateFace):
            build_patchwork(m)

    def test_orientation_consistency_on_primitives(self, ico1, torus):
        for m in (ico1, torus):
            traversals = {}
            for f in range(len(m.triangles)):
                for u, v in m.oriented_face_edges(f):
                    key = (min(u, v), max(u, v))
                    traversals.setdefault(key, []).append(u < v)
            for key, dirs in traversals.items():
                if len(dirs) == 2:
                    assert dirs[0] != dirs[1], f"edge {key} traversed twice same way"

    def test_face_edge_index_matches_oriented_edges(
        self, flat4, ico1, annulus, torus
    ):
        for m in (flat4, ico1, annulus, torus):
            for f in range(len(m.triangles)):
                pairs = m.oriented_face_edges(f)
                ids = [m.edge_id(u, v) for u, v in pairs]
                signs = [1.0 if u < v else -1.0 for u, v in pairs]
                assert m.face_edges[f].tolist() == ids
                assert m.face_signs[f].tolist() == signs

    def test_edge_ids_of_int32_vertex_ids(self):
        # scipy.sparse.csgraph returns int32 vertex ids; the edge key
        # lo * V + hi leaves the int32 range once V > 46341
        m = generate_primitive("interval_graph", n=50000)
        tails = np.array([0, 49998, 49999], dtype=np.int32)
        heads = np.array([1, 49999, 49998], dtype=np.int32)
        assert m.edge_ids(tails, heads).tolist() == [0, 49998, 49998]

    @pytest.mark.parametrize(
        "fixture, primitive_hash, scrambled_hash",
        [
            (
                "flat4",
                "f144ffbffef0c788bd7dc07d4ebc587e292942daa1300823f489d584a51ebe65",
                "7693458d1bdc371b305ef0097ad3190c8fb15c8f337e5e3c8597a134795d9f70",
            ),
            (
                "ico1",
                "fd6a8680e32d46fa7412b117419a41e5bdf4a556fd4d95cbd5fde78c8aad71c2",
                "c85df5d10090d1ebc11805baa44a88bfd6a0c0dde304bc9f3c7a431552d5f067",
            ),
            (
                "annulus",
                "3f0c78fe14765e257415fcd7fcb8c7c6f486eb0cc64af13ffde1293a1061be5f",
                "d04b28e75d9d461d69f9f79a00325b54a577a512165d6ca0e6a9eb2d8fa1f683",
            ),
            (
                "torus",
                "8f1e690129148780db7d997d394651ef44a43d35cba623195dd3f27dfdb8dc76",
                "2f6d7f747c0e1b1ee5a5118034c30c143e6abd9dfcad4917520ed2bbd113f769",
            ),
            (
                "poincare",
                "2b10318a848272ecab4f8d8513cf19eb45bd917f5c93e1f1e0a8cb2c8ded0588",
                "e003abd7c59e771f4e1e50d1a91673abf64c2425f121714b7e749eb4c3d3b6c9",
            ),
        ],
        ids=["flat4", "ico1", "annulus", "torus", "poincare"],
    )
    def test_orientation_of_scrambled_input_is_pinned(
        self, request, fixture, primitive_hash, scrambled_hash
    ):
        # a seeded random half of the faces reversed; the lowest face of the
        # component keeps its input order, so the result is fully determined
        mesh = request.getfixturevalue(fixture)
        assert mesh_hash(mesh) == primitive_hash
        rng = np.random.default_rng(7)
        F = len(mesh.triangles)
        flip = rng.choice(F, size=F // 2, replace=False)
        triangles = np.array(mesh.triangles)
        triangles[flip] = triangles[flip, ::-1]
        lengths = dict(zip(map(tuple, mesh.edges.tolist()), mesh.edge_lengths))
        rebuilt = build_mesh(triangles, lengths, mesh.base_vertex)
        assert mesh_hash(rebuilt) == scrambled_hash


class TestPrimitives:
    def test_flat_rect_counts(self):
        m = generate_primitive("flat_rect", nx=2)
        assert len(m.triangles) == 8
        geom = m.face_geometry()
        # all right triangles with legs 0.5
        for f in range(8):
            lengths = sorted(
                np.linalg.norm(
                    geom.layout[f, (i + 1) % 3] - geom.layout[f, i]
                )
                for i in range(3)
            )
            assert lengths[0] == pytest.approx(0.5, abs=1e-15)
            assert lengths[1] == pytest.approx(0.5, abs=1e-15)
            assert lengths[2] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_icosphere_level0_counts(self):
        m = generate_primitive("icosphere", level=0)
        assert m.vertex_count == 12
        assert len(m.edges) == 30
        assert len(m.triangles) == 20
        euler = m.vertex_count - len(m.edges) + len(m.triangles)
        assert euler == 2
        assert not m.boundary_edges

    def test_circle_graph(self):
        m = generate_primitive("circle_graph", n=4, total_length=2 * math.pi)
        assert m.dimension == 1
        assert len(m.triangles) == 0
        assert len(m.edges) == 4
        assert np.allclose(m.edge_lengths, math.pi / 2)

    def test_torus_is_closed(self, torus):
        assert not torus.boundary_edges
        assert torus.vertex_count - len(torus.edges) + len(torus.triangles) == 0

    def test_annulus_has_two_boundary_loops(self, annulus):
        assert len(annulus.boundary_edges) == 32  # 16 inner + 16 outer

    def test_poincare_lengths_are_hyperbolic(self, poincare):
        # edge lengths exceed their Euclidean counterparts in the model
        pos = poincare.aux["positions"]
        for (u, v), l in zip(poincare.edges, poincare.edge_lengths):
            assert l > np.linalg.norm(pos[u] - pos[v]) - 1e-15

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            generate_primitive("flat_rect", nx=0)
        with pytest.raises(InvalidParams):
            generate_primitive("icosphere", level=-1)
        with pytest.raises(InvalidParams):
            generate_primitive("no_such_kind")


class TestGeodesics:
    def test_interval_distances(self):
        m = generate_primitive("interval_graph", n=2, total_length=2.0)
        table = geodesic_distances(m, 0)
        assert np.allclose(table.dist, [0.0, 1.0, 2.0])

    def test_circle_antipode(self):
        m = generate_primitive("circle_graph", n=4, total_length=2 * math.pi)
        table = geodesic_distances(m, 0)
        assert table.dist[2] == pytest.approx(math.pi, abs=1e-12)

    def test_against_floyd_warshall(self, flat4):
        oracle = floyd_warshall(flat4)
        for source in (0, 7, 12):
            table = geodesic_distances(flat4, source)
            assert np.allclose(table.dist, oracle[source], atol=1e-12)

    def test_corner_to_corner_overestimates_euclid(self):
        m = generate_primitive("flat_rect", nx=8)
        table = geodesic_distances(m, 0)
        far_corner = m.vertex_count - 1
        d = table.dist[far_corner]
        assert math.sqrt(2.0) - 1e-12 <= d <= 2.0
        # the anti-diagonal pair has no aligned diagonals to ride
        other_corner = 8  # (1, 0)
        table2 = geodesic_distances(m, other_corner)
        assert table2.dist[m.vertex_count - 1 - 8] <= 2.0 + 1e-12

    def test_edge_relaxation_and_source(self, ico1):
        table = geodesic_distances(ico1, 3)
        assert table.dist[3] == 0.0
        u, v = ico1.edges[:, 0], ico1.edges[:, 1]
        slack = np.abs(table.dist[u] - table.dist[v]) - ico1.edge_lengths
        assert slack.max() <= 1e-12

    def test_triangle_inequality_sampled(self, annulus):
        d = annulus.all_pairs_distances()
        rng = np.random.default_rng(11)
        for _ in range(200):
            i, j, k = rng.integers(0, annulus.vertex_count, size=3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


class TestAreasAndFrames:
    def test_equilateral_area(self):
        m = build_mesh([(0, 1, 2)], UNIT)
        assert face_area(m, 0) == pytest.approx(math.sqrt(3) / 4, abs=1e-15)

    def test_half_unit_right_triangle(self):
        m = generate_primitive("flat_rect", nx=2)
        assert face_area(m, 0) == pytest.approx(0.125, abs=1e-15)

    def test_3_4_5_right_triangle(self):
        m = build_mesh([(0, 1, 2)], {(0, 1): 3.0, (1, 2): 4.0, (0, 2): 5.0})
        assert face_area(m, 0) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("nx", [1, 2, 5, 9])
    def test_total_area_additivity(self, nx):
        m = generate_primitive("flat_rect", nx=nx)
        total = sum(face_area(m, f) for f in range(len(m.triangles)))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_patchwork_partitions_faces(self, ico1):
        pw = build_patchwork(ico1)
        seen = []
        for faces, _ in pw.patches:
            seen.extend(faces)
        assert sorted(seen) == list(range(len(ico1.triangles)))
        sets = pw.face_sets()
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not (sets[i] & sets[j])

    def test_frame_gram_identity_and_orientation(self, poincare, ico1):
        for mesh in (poincare, ico1):
            pw = build_patchwork(mesh)
            geom = mesh.face_geometry()
            for (face_ids, frame) in pw.patches:
                f = face_ids[0]
                assert np.abs(frame.gram - np.eye(2)).max() <= 1e-12
                det = np.linalg.det(frame.basis_coeffs)
                g = geom.metrics[f]
                assert det * math.sqrt(np.linalg.det(g)) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_anisotropic_frame_normalization(self):
        # chart Gram diag(4, 1): frame is (e1/2, e2)
        m = build_mesh([(0, 1, 2)], {(0, 1): 2.0, (0, 2): 1.0, (1, 2): math.sqrt(5)})
        pw = build_patchwork(m)
        _, frame = pw.patches[0]
        assert np.allclose(frame.basis_coeffs[:, 0], [0.5, 0.0], atol=1e-14)
        assert np.allclose(frame.basis_coeffs[:, 1], [0.0, 1.0], atol=1e-14)

    def test_gram_schmidt_of_any_basis_gives_identity(self):
        m = build_mesh([(0, 1, 2)], {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.3})
        pw = build_patchwork(m)
        _, frame = pw.patches[0]
        assert np.abs(frame.gram - np.eye(2)).max() <= 1e-12


class TestChartIndependence:
    def test_retriangulations_agree(self):
        # same rectangle, different triangulations: equal volume and equal
        # L1 norm of the unit constant field
        a = generate_primitive("flat_rect", nx=4)
        b = generate_primitive("flat_rect", nx=5)
        c = generate_primitive("flat_rect", nx=3, ny=7)
        values = []
        for m in (a, b, c):
            total = sum(face_area(m, f) for f in range(len(m.triangles)))
            assert total == pytest.approx(1.0, abs=1e-12)
            const = np.tile([1.0, 0.0], (len(m.triangles), 1))
            values.append(l1_norm(m, const))
        assert max(values) - min(values) <= 1e-9

import hashlib
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from freeflow.errors import (
    DegenerateFace,
    Disconnected,
    InvalidParams,
    MeshError,
    NonManifold,
    TriangleInequalityViolated,
)
from freeflow.experiments import refinement_study
from freeflow.mesh import TriMesh, geodesic_distances
from freeflow.calculus import l1_norm
from freeflow.io import mesh_from_dict, mesh_hash, mesh_to_dict
from freeflow import primitives
from freeflow.primitives import generate_primitive

from conftest import edge_index, face_edge_pairs, from_lengths

UNIT = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}
NAN, INF = float("nan"), float("inf")
TRIANGLE = ([[0, 1, 2]], list(UNIT), list(UNIT.values()))


def build(triangles, edges):
    """TriMesh from ``(u, v, length)`` triples."""
    pairs = [(u, v) for u, v, _ in edges]
    return TriMesh(triangles, pairs, [l for _, _, l in edges])


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
        m = from_lengths([(0, 1, 2)], UNIT)
        assert m.vertex_count == 3
        assert m.dimension == 2
        assert len(m.boundary_edges) == 3

    def test_flip_is_repaired(self):
        # both faces given in the same rotational sense; a flip fixes it
        lengths = dict(UNIT)
        lengths[(1, 3)] = 1.0
        lengths[(2, 3)] = 1.0
        m = from_lengths([(0, 1, 2), (1, 2, 3)], lengths)
        traversals = {}
        for f in range(2):
            for u, v in face_edge_pairs(m, f):
                key = (min(u, v), max(u, v))
                traversals.setdefault(key, []).append(u < v)
        assert traversals[(1, 2)][0] != traversals[(1, 2)][1]

    def test_triangle_inequality_violation(self):
        with pytest.raises(TriangleInequalityViolated) as info:
            from_lengths([(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 3.0})
        # plain ints and floats, not numpy reprs such as np.int64(0)
        assert str(info.value) == (
            "face (0, 1, 2) violates the strict triangle inequality: "
            "lengths (1.0, 1.0, 3.0)"
        )

    def test_disconnected(self):
        lengths = dict(UNIT)
        lengths.update({(3, 4): 1.0, (4, 5): 1.0, (3, 5): 1.0})
        with pytest.raises(Disconnected):
            from_lengths([(0, 1, 2), (3, 4, 5)], lengths)

    @pytest.mark.parametrize(
        "triangles, edges, message",
        [
            ([(0, 1, 2), (3, 4, 5)],
             [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
              (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
             "edge graph has 2 components"),
            # an id on no edge is a component of its own
            ([], [(0, 1, 1.0), (1, 3, 1.0)], "edge graph has 2 components"),
            ([], [(0, 1, 1.0), (2, 3, 1.0), (5, 6, 1.0)],
             "edge graph has 4 components"),
            ([(0, 1, 3)], [(0, 1, 1.0), (1, 3, 1.0), (0, 3, 1.0)],
             "edge graph has 2 components"),
            # E edges join at most E + 1 ids; this is said before the edge
            # keys u * vertex_count + v are formed, which raised a raw
            # OverflowError at 2**63 - 1 and wrapped past about 3e9
            ([], [(0, 2**63 - 1, 1.0)], f"edge graph has {2**63 - 1} components"),
            ([], [(0, 1, 1.0), (1, 4 * 10**9, 1.0)],
             f"edge graph has {4 * 10**9 - 1} components"),
            ([(0, 1, 2)], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 2**63 - 1, 1.0)],
             f"edge graph has {2**63 - 3} components"),
        ],
        ids=["two_faces", "one_gap", "gap_between_parts", "face_over_gap",
             "int64_max", "past_key_range", "face_and_int64_max"],
    )
    def test_disconnected_message_is_pinned(self, triangles, edges, message):
        with pytest.raises(Disconnected) as info:
            build(triangles, edges)
        assert str(info.value) == message

    def test_sparse_id_range_is_rejected_in_bounded_memory(self):
        # ids 0, 1 and 10**7 leave 10**7 - 2 ids on no edge; they are
        # counted without a matrix over the whole id range
        tracemalloc.start()
        try:
            with pytest.raises(Disconnected) as info:
                mesh_from_dict({"edges": [[0, 1, 1.0], [1, 10**7, 1.0]]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "edge graph has 9999999 components"
        assert peak < 4 * 2**20

    def test_nonmanifold_edge(self):
        lengths = dict(UNIT)
        lengths.update({(0, 3): 1.0, (1, 3): 1.0, (0, 4): 1.0, (1, 4): 1.0})
        with pytest.raises(NonManifold):
            from_lengths([(0, 1, 2), (0, 1, 3), (0, 1, 4)], lengths)

    def test_missing_length(self):
        with pytest.raises(MeshError) as info:
            from_lengths([(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0})
        assert str(info.value) == "missing length for triangle edge (0, 2)"

    @pytest.mark.parametrize(
        "triangles, edges, message",
        [
            ([], [(0, 1, 1.0), (1, 1, 1.0)], "self-loop edge (1, 1)"),
            ([], [(0, 1, 1.0), (1, 2, NAN)],
             "edge (1, 2) length nan is not finite and positive"),
            ([], [(0, 1, 1.0), (2, 1, INF)],
             "edge (1, 2) length inf is not finite and positive"),
            ([], [(0, 1, 1.0), (1, 2, -INF)],
             "edge (1, 2) length -inf is not finite and positive"),
            ([], [(0, 1, 1.0), (1, 2, 0.0)],
             "edge (1, 2) length 0.0 is not finite and positive"),
            ([], [(0, 1, 1.0), (1, 2, -1.0)],
             "edge (1, 2) length -1.0 is not finite and positive"),
            ([(0, 1, 2)], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (0, 1, 1.5)],
             "edge (0, 1) given two lengths 1.0 and 1.5"),
            ([(0, 1, 2)], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (1, 0, 1.5)],
             "edge (0, 1) given two lengths 1.0 and 1.5"),
            ([], [(0, 1, 1.0), (-1, 0, 1.0)], "negative vertex id"),
            ([(0, 1, -2)], [(0, 1, 1.0), (1, 2, 1.0)], "negative vertex id"),
            ([(0, 1, 2)], [(0, 1, 1.0), (1, 2, 1.0)],
             "missing length for triangle edge (0, 2)"),
            ([], [], "mesh has no edges"),
            # the first offending position wins, and at one position a
            # self-loop comes before its length and a length before a repeat
            ([], [(0, 1, 1.0), (1, 0, 2.0), (2, 2, 1.0)],
             "edge (0, 1) given two lengths 1.0 and 2.0"),
            ([], [(2, 2, 1.0), (0, 1, 1.0), (1, 0, 2.0)], "self-loop edge (2, 2)"),
            ([], [(0, 1, 1.0), (3, 3, NAN)], "self-loop edge (3, 3)"),
            ([], [(0, 1, 1.0), (1, 0, NAN)],
             "edge (0, 1) length nan is not finite and positive"),
            ([], [(1, 2, 1.0), (1, 2, 1.0), (2, 1, 3.0), (0, 1, 2.0), (0, 1, 0.5)],
             "edge (1, 2) given two lengths 1.0 and 3.0"),
            ([(0, 0, 1)], [(0, 1, 1.0)], "degenerate triangle (0, 0, 1)"),
            # the edge keys used to overflow int64 as a raw OverflowError
            ([(0, 1, 2**63 - 1)], [], "missing length for triangle edge (0, 1)"),
        ],
        ids=[
            "self_loop", "nan", "inf", "neg_inf", "zero", "negative",
            "conflict", "conflict_reversed", "negative_edge_id",
            "negative_triangle_id", "missing_triangle_edge", "no_edges",
            "conflict_before_self_loop", "self_loop_before_conflict",
            "self_loop_with_nan", "repeat_with_nan", "second_group_later",
            "degenerate_triangle", "int64_max_without_edges",
        ],
    )
    def test_construction_errors_are_pinned(self, triangles, edges, message):
        with pytest.raises(MeshError) as info:
            build(triangles, edges)
        assert type(info.value) is MeshError
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "triangles, edges, lengths, message",
        [
            # 2.7 and 2.9 used to be truncated to vertex 2
            ([], [(0, 2.7)], [1.0], "vertex id 2.7 is not an integer"),
            ([(0, 1, 2.9)], list(UNIT), list(UNIT.values()),
             "vertex id 2.9 is not an integer"),
            ([], [(0, 1), (1, NAN)], [1.0, 1.0], "vertex id nan is not an integer"),
            ([], [(0, 1), (1, 2)], [1.0], "2 edges but 1 lengths"),
            # the ints used to escape numpy's cast as a raw OverflowError,
            # and 1e30 was cast to a negative id
            ([], [(0, 2**70)], [1.0], "vertex id beyond the int64 range"),
            ([], [(-2**70, 1)], [1.0], "vertex id beyond the int64 range"),
            ([], [(0, 1e30)], [1.0], "vertex id beyond the int64 range"),
            # the cast used to wrap 2**63 to a "negative vertex id"
            ([], np.array([(0, 2**63)], dtype=np.uint64), [1.0],
             "vertex id beyond the int64 range"),
        ],
        ids=["edge_id", "triangle_id", "nan_id", "counts", "beyond_int64",
             "beyond_int64_negative", "beyond_int64_float", "beyond_int64_unsigned"],
    )
    def test_malformed_arrays_are_rejected(self, triangles, edges, lengths, message):
        with pytest.raises(MeshError) as info:
            TriMesh(triangles, edges, lengths)
        assert str(info.value) == message

    def test_integral_float_ids_are_accepted(self):
        m = TriMesh([(0.0, 1.0, 2.0)], np.array(list(UNIT), dtype=float), [1.0] * 3)
        assert m.triangles.tolist() == [[0, 1, 2]]

    def test_moebius_band_is_nonorientable(self):
        import itertools

        from freeflow.errors import NonOrientable

        faces = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)]
        lengths = {e: 1.0 for e in itertools.combinations(range(5), 2)}
        with pytest.raises(NonOrientable):
            from_lengths(faces, lengths)

    def test_sliver_face_is_degenerate(self):
        m = from_lengths(
            [(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0 - 1e-14}
        )
        with pytest.raises(DegenerateFace):
            m.face_geometry()

    def test_orientation_consistency_on_primitives(self, ico1, torus):
        for m in (ico1, torus):
            traversals = {}
            for f in range(len(m.triangles)):
                for u, v in face_edge_pairs(m, f):
                    key = (min(u, v), max(u, v))
                    traversals.setdefault(key, []).append(u < v)
            for key, dirs in traversals.items():
                if len(dirs) == 2:
                    assert dirs[0] != dirs[1], f"edge {key} traversed twice same way"

    def test_face_edge_index_matches_oriented_edges(
        self, flat4, ico1, annulus, torus
    ):
        for m in (flat4, ico1, annulus, torus):
            edge_id = edge_index(m)
            for f in range(len(m.triangles)):
                pairs = face_edge_pairs(m, f)
                ids = [edge_id[min(u, v), max(u, v)] for u, v in pairs]
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
        given = triangles.copy()
        rebuilt = TriMesh(triangles, mesh.edges, mesh.edge_lengths, mesh.base_vertex)
        assert mesh_hash(rebuilt) == scrambled_hash
        # the build flips its own copy, not the caller's array
        assert np.array_equal(triangles, given)


class TestArcTable:
    @pytest.mark.parametrize(
        "fixture",
        ["flat4", "ico1", "annulus", "torus8", "poincare", "circle32", "interval10",
         "flat8_chord"],
    )
    def test_arcs_match_the_adjacency_and_the_edges(self, request, fixture):
        mesh = request.getfixturevalue(fixture)
        arcs, adj = mesh.arcs, mesh.adjacency
        E = len(mesh.edges)
        assert all(len(column) == 2 * E for column in arcs)
        # each arc sits at its own slot of the CSR data
        assert sorted(arcs.slot.tolist()) == list(range(2 * E))
        rows = np.repeat(np.arange(mesh.vertex_count), np.diff(adj.indptr))
        assert np.array_equal(arcs.tail, rows[arcs.slot])
        assert np.array_equal(arcs.head, adj.indices[arcs.slot])
        assert np.array_equal(arcs.length, adj.data[arcs.slot])
        # arcs 2e and 2e + 1 run along and against edge e
        edge = np.arange(2 * E) // 2
        forward = np.arange(2 * E) % 2 == 0
        ends = np.column_stack([arcs.tail, arcs.head])
        ends[~forward] = ends[~forward, ::-1]
        assert np.array_equal(ends, mesh.edges[edge])
        assert np.array_equal(arcs.length, mesh.edge_lengths[edge])
        for column in arcs:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[1]
        assert mesh.arcs is arcs

    def test_chord_on_no_face_has_its_arcs(self, flat8_chord):
        e = int(flat8_chord.edge_ids(0, 80))
        assert e >= 0 and e not in flat8_chord.face_edges
        arcs = flat8_chord.arcs
        assert arcs.tail[2 * e:2 * e + 2].tolist() == [0, 80]
        assert arcs.head[2 * e:2 * e + 2].tolist() == [80, 0]
        assert arcs.length[2 * e:2 * e + 2].tolist() == [0.5, 0.5]

    def test_arc_table_is_not_serialized(self):
        mesh = generate_primitive("flat_rect", nx=4)
        mesh.arcs
        assert set(mesh_to_dict(mesh)) == {"dimension", "triangles", "edges", "base_vertex"}
        # the flat4 pin of test_orientation_of_scrambled_input_is_pinned
        assert mesh_hash(mesh) == (
            "f144ffbffef0c788bd7dc07d4ebc587e292942daa1300823f489d584a51ebe65"
        )


class TestPrimitives:
    @pytest.mark.parametrize(
        "kind, params, expected",
        [
            ("circle_graph", {"n": 32},
             "bacd734de5ce9970d96be640727c57a39932eaf913b3aa0ccb529de7a1dce650"),
            ("interval_graph", {"n": 10, "total_length": 5.0},
             "3934f1f02c7d9ab86df0d4da1dd0a15a33a8765208e08d16c9842526e936af15"),
            # the smallest torus the generator accepts
            ("torus", {"nx": 3},
             "00121d7937a476ca5fe9c1f4674d6d284d1c6b4ea0623842113b63a26b3cce91"),
            ("flat_rect", {"nx": 64},
             "3fa2215d01480264c8a40284c016def2210944c68ec7a2ae88763cc8f2220efb"),
            ("icosphere", {"level": 4},
             "5037ffba61fe5dd880a4596213acae84ba3275e20f1c9dac1ab7b903664beb38"),
        ],
        ids=["circle32", "interval10", "torus3", "flat64", "ico4"],
    )
    def test_mesh_hash_is_pinned(self, kind, params, expected):
        assert mesh_hash(generate_primitive(kind, **params)) == expected

    @pytest.mark.parametrize(
        "level, pin",
        [
            (0, "3f6ec7876f56ccbece06554b7c2120a919355509f06ee269734cdc8c30213d23"),
            (1, "f4843f7b2ee830a171a93b99c8dc474a22050c7804515849790120534b896e6d"),
            (2, "83669526ebbcdda9fe6c725ba089b2581b5e158b8a8fa7e6e68089305db543fe"),
            (3, "07de5b711ababcfc80d7b23859be8566006a5119235bbcb2e2b6b5ff2f273d2e"),
            (4, "dd89e5b41f7195feec49b5d368ca01ce8286622f3abbd44418ead4dc812863c1"),
        ],
        ids=["L0", "L1", "L2", "L3", "L4"],
    )
    def test_icosphere_array_bytes_are_pinned(self, level, pin):
        # sha256 of the triangles, positions and edge lengths, so the
        # subdivision's midpoint numbering and every rounding must repeat
        m = generate_primitive("icosphere", level=level)
        payload = m.triangles.tobytes() + m.aux["positions"].tobytes()
        assert hashlib.sha256(payload + m.edge_lengths.tobytes()).hexdigest() == pin

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

    @pytest.mark.parametrize(
        "call, error, message",
        [
            # base vertex 1.5 used to be vertex 1; nan and inf a bare
            # ValueError and OverflowError
            (lambda: TriMesh(*TRIANGLE, base_vertex=1.5), MeshError,
             "vertex id 1.5 is not an integer"),
            (lambda: TriMesh(*TRIANGLE, base_vertex=NAN), MeshError,
             "vertex id nan is not an integer"),
            (lambda: TriMesh(*TRIANGLE, base_vertex=INF), MeshError,
             "vertex id inf is not an integer"),
            (lambda: generate_primitive("flat_rect", base_vertex=1.5), MeshError,
             "vertex id 1.5 is not an integer"),
            (lambda: generate_primitive("circle_graph", base_vertex=INF),
             MeshError, "vertex id inf is not an integer"),
            (lambda: geodesic_distances(generate_primitive("flat_rect"), 1.5),
             MeshError, "vertex id 1.5 is not an integer"),
            # counts used to be truncated, or a bare ValueError or OverflowError
            (lambda: generate_primitive("flat_rect", nx=2.5), InvalidParams,
             "nx is not an integer: 2.5"),
            (lambda: generate_primitive("icosphere", level=1.7), InvalidParams,
             "level is not an integer: 1.7"),
            (lambda: generate_primitive("circle_graph", n=3.9), InvalidParams,
             "n is not an integer: 3.9"),
            (lambda: generate_primitive("flat_rect", nx=NAN), InvalidParams,
             "nx is not an integer: nan"),
            (lambda: generate_primitive("icosphere", level=INF), InvalidParams,
             "level is not an integer: inf"),
            (lambda: generate_primitive("interval_graph", n=True), InvalidParams,
             "n is not an integer: True"),
            (lambda: generate_primitive("torus", nx=np.array(3.5)), InvalidParams,
             "nx is not an integer: array(3.5)"),
            (lambda: refinement_study("flat_rect", [2.5], [([0.5, 0.5], 1.0)]),
             InvalidParams, "nx is not an integer: 2.5"),
        ],
        ids=["mesh_base_fraction", "mesh_base_nan", "mesh_base_inf",
             "primitive_base_fraction", "primitive_base_inf", "source_fraction",
             "nx_fraction", "level_fraction", "n_fraction", "nx_nan", "level_inf",
             "n_bool", "nx_array", "refine_level_fraction"],
    )
    def test_integer_inputs_are_not_truncated(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == message

    # every size parameter of every builder, read from its signature, so
    # a builder added later is covered with no edit here
    @pytest.mark.parametrize("value", [True, "2"], ids=["bool", "string"])
    @pytest.mark.parametrize(
        "kind, name",
        [pytest.param(kind, name, id=f"{kind}-{name}")
         for kind, build in primitives._BUILDERS.items()
         for name in inspect.signature(build).parameters if name != "base_vertex"],
    )
    def test_sizes_reject_bools_and_strings(self, kind, name, value):
        with pytest.raises(InvalidParams) as info:
            generate_primitive(kind, **{name: value})
        assert type(info.value) is InvalidParams
        assert str(info.value).startswith(f"{name} ")

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("flat_rect", {"width": 0}, "width must be finite and positive, got 0"),
            ("flat_rect", {"width": -1.0}, "width must be finite and positive, got -1.0"),
            ("flat_rect", {"width": NAN}, "width must be finite and positive, got nan"),
            # used to pass, and fail later as TriMesh's MeshError on the lengths
            ("flat_rect", {"width": INF}, "width must be finite and positive, got inf"),
            # True used to build a unit square, and "2" a 2-wide one
            ("flat_rect", {"width": True}, "width must be finite and positive, got True"),
            ("flat_rect", {"width": "2"}, "width must be finite and positive, got 2"),
            ("poincare_disk_patch", {"radius": True},
             "radius must be finite and positive, got True"),
            ("circle_graph", {"total_length": "3"},
             "total_length must be finite and positive, got 3"),
        ],
        ids=["width_zero", "width_negative", "width_nan", "width_inf", "width_bool",
             "width_string", "radius_bool", "total_length_string"],
    )
    def test_real_sizes_are_checked(self, kind, params, message):
        with pytest.raises(InvalidParams) as info:
            generate_primitive(kind, **params)
        assert type(info.value) is InvalidParams
        assert str(info.value) == message


class TestGeodesics:
    def test_interval_distances(self):
        m = generate_primitive("interval_graph", n=2, total_length=2.0)
        dist = geodesic_distances(m, 0)
        assert np.allclose(dist, [0.0, 1.0, 2.0])

    def test_circle_antipode(self):
        m = generate_primitive("circle_graph", n=4, total_length=2 * math.pi)
        dist = geodesic_distances(m, 0)
        assert dist[2] == pytest.approx(math.pi, abs=1e-12)

    def test_against_floyd_warshall(self, flat4):
        oracle = floyd_warshall(flat4)
        for source in (0, 7, 12):
            dist = geodesic_distances(flat4, source)
            assert np.allclose(dist, oracle[source], atol=1e-12)

    def test_corner_to_corner_overestimates_euclid(self):
        m = generate_primitive("flat_rect", nx=8)
        dist = geodesic_distances(m, 0)
        far_corner = m.vertex_count - 1
        d = dist[far_corner]
        assert math.sqrt(2.0) - 1e-12 <= d <= 2.0
        # the anti-diagonal pair has no aligned diagonals to ride
        other_corner = 8  # (1, 0)
        dist2 = geodesic_distances(m, other_corner)
        assert dist2[m.vertex_count - 1 - 8] <= 2.0 + 1e-12

    def test_edge_relaxation_and_source(self, ico1):
        dist = geodesic_distances(ico1, 3)
        assert dist[3] == 0.0
        assert not dist.flags.writeable
        u, v = ico1.edges[:, 0], ico1.edges[:, 1]
        slack = np.abs(dist[u] - dist[v]) - ico1.edge_lengths
        assert slack.max() <= 1e-12

    def test_triangle_inequality_sampled(self, annulus):
        d = annulus.all_pairs_distances()
        rng = np.random.default_rng(11)
        for _ in range(200):
            i, j, k = rng.integers(0, annulus.vertex_count, size=3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-12

    @pytest.mark.parametrize(
        "fixture, rows_pin, dense_pin",
        [
            (
                "annulus",
                "889d550b421fc5cc98ee6f843dd60796a5dbf9287788fe4ec48d0124371752d5",
                "659953a4a2e2af77fe17daf1d0d86eea6ef2095bec904dc6a1a682200cee61c2",
            ),
            (
                "poincare",
                "60d64fc8f937efa034b65251e8d17770b0e7d8306ff40a4f0234651586d5a7a4",
                "a36e3d2198343dd8dff39d52f038c295fc96c9ab32fe00d1772496f23dc43adf",
            ),
        ],
        ids=["annulus", "poincare"],
    )
    def test_distances_are_pinned(self, request, fixture, rows_pin, dense_pin):
        # sha256 of the distance bytes from every seventh source, and of
        # the dense all-pairs matrix
        mesh = request.getfixturevalue(fixture)
        digest = hashlib.sha256()
        for source in range(0, mesh.vertex_count, 7):
            digest.update(geodesic_distances(mesh, source).tobytes())
        assert digest.hexdigest() == rows_pin
        dense = mesh.all_pairs_distances().tobytes()
        assert hashlib.sha256(dense).hexdigest() == dense_pin


def area(mesh, f):
    return float(mesh.face_geometry().areas[f])


class TestAreasAndFrames:
    def test_equilateral_area(self):
        m = from_lengths([(0, 1, 2)], UNIT)
        assert area(m, 0) == pytest.approx(math.sqrt(3) / 4, abs=1e-15)

    def test_half_unit_right_triangle(self):
        m = generate_primitive("flat_rect", nx=2)
        assert area(m, 0) == pytest.approx(0.125, abs=1e-15)

    def test_3_4_5_right_triangle(self):
        m = from_lengths([(0, 1, 2)], {(0, 1): 3.0, (1, 2): 4.0, (0, 2): 5.0})
        assert area(m, 0) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("nx", [1, 2, 5, 9])
    def test_total_area_additivity(self, nx):
        m = generate_primitive("flat_rect", nx=nx)
        assert m.cell_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_frame_gram_identity_and_orientation(self, poincare, ico1):
        # the layout is each face's orthonormal frame: it reproduces the
        # three edge lengths, and v2 lies on the positive side of v0 -> v1
        for mesh in (poincare, ico1):
            layout = mesh.face_geometry().layout
            sides = np.linalg.norm(layout - np.roll(layout, -1, axis=1), axis=2)
            lengths = mesh.edge_lengths[mesh.face_edges]
            assert np.abs(sides - lengths).max() <= 1e-12
            assert (layout[:, 2, 1] > 0).all()

    def test_anisotropic_frame_normalization(self):
        # chart Gram diag(4, 1): the frame is (e1/2, e2)
        m = from_lengths([(0, 1, 2)], {(0, 1): 2.0, (0, 2): 1.0, (1, 2): math.sqrt(5)})
        assert np.allclose(
            m.face_geometry().layout[0], [[0, 0], [2, 0], [0, 1]], atol=1e-14
        )

    def test_gram_schmidt_of_any_basis_gives_identity(self):
        # the chart edge basis in layout coordinates is E; the frame in chart
        # coordinates is E^-1, whose Gram matrix under the chart metric built
        # from the lengths must be the identity
        m = from_lengths([(0, 1, 2)], {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.3})
        layout = m.face_geometry().layout[0]
        E = np.column_stack([layout[1] - layout[0], layout[2] - layout[0]])
        dot = (1.0 + 1.0 - 1.3**2) / 2.0
        metric = np.array([[1.0, dot], [dot, 1.0]])
        frame = np.linalg.inv(E)
        assert np.abs(frame.T @ metric @ frame - np.eye(2)).max() <= 1e-12


class TestChartIndependence:
    def test_retriangulations_agree(self):
        # same rectangle, different triangulations: equal volume and equal
        # L1 norm of the unit constant field
        a = generate_primitive("flat_rect", nx=4)
        b = generate_primitive("flat_rect", nx=5)
        c = generate_primitive("flat_rect", nx=3, ny=7)
        values = []
        for m in (a, b, c):
            assert m.cell_weights.sum() == pytest.approx(1.0, abs=1e-12)
            const = np.tile([1.0, 0.0], (len(m.triangles), 1))
            values.append(l1_norm(m, const))
        assert max(values) - min(values) <= 1e-9

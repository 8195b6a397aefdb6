"""Intrinsic metric simplicial surfaces and metric graphs.

A mesh is purely intrinsic: combinatorics plus one positive length per
edge. No vertex embedding is required; every derived quantity (face
metric, orthonormal frames, areas, geodesic distances) is computed from
edge lengths alone. Dimension 2 meshes are triangle surfaces, dimension 1
meshes are metric graphs (no triangles).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from . import calculus
from .errors import (
    DegenerateFace,
    Disconnected,
    MeshError,
    NonManifold,
    NonOrientable,
    TriangleInequalityViolated,
)

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class GeodesicTable:
    """Shortest-path distances from one source vertex.

    Satisfies d[source] == 0 and the edge relaxation inequality
    |d[u] - d[v]| <= length(u, v) for every edge.
    """

    source: int
    dist: np.ndarray


@dataclass(frozen=True)
class FaceFrame:
    """Orthonormal tangent frame of one face.

    ``basis_coeffs`` holds the two frame vectors as columns, expressed in
    the face's chart basis (the edge vectors e1 = v1 - v0, e2 = v2 - v0
    laid out in the plane from the edge lengths). The Gram matrix of the
    frame under the face metric is the identity and the frame is
    positively oriented with respect to the face orientation.
    """

    face: int
    basis_coeffs: np.ndarray  # 2x2, columns = frame vectors in chart basis
    gram: np.ndarray  # 2x2, frame Gram matrix under the face metric


@dataclass(frozen=True)
class Patchwork:
    """Disjoint chart domains covering the surface up to the edge skeleton.

    One patch per face: the face interiors are pairwise disjoint and
    their union is the whole face list; the shared edges form the skipped
    null set.
    """

    patches: tuple  # tuple of (face_ids tuple, FaceFrame)

    def face_sets(self):
        return [set(faces) for faces, _ in self.patches]


@dataclass
class _FaceGeometry:
    layout: np.ndarray  # (F, 3, 2) planar vertex positions per face
    areas: np.ndarray  # (F,)
    hat_gradients: np.ndarray  # (F, 3, 2) gradient of each corner hat
    metrics: np.ndarray  # (F, 2, 2) chart-basis Gram matrices


class TriMesh:
    """Intrinsic metric triangle surface or metric graph.

    Parameters
    ----------
    triangles : array_like of shape (F, 3)
        Vertex triples. May be empty for a metric graph. Faces are flipped
        so that every interior edge is traversed once in each direction,
        the lowest face of each face component keeping its input
        orientation; if no consistent assignment exists the mesh is
        rejected.
    edge_lengths : dict
        Map from vertex pairs to positive lengths. Keys may be given in
        either order; the map must cover all triangle edges and may add
        extra graph edges.
    base_vertex : int
        The distinguished vertex used to normalize potentials and absorb
        molecule mass deficits.

    Attributes
    ----------
    face_edges : ndarray of shape (F, 3)
        The signed face->edge index, built once at construction: edge ids
        of v0->v1, v1->v2 and v2->v0 of every oriented face.
    face_signs : ndarray of shape (F, 3)
        +1 where the face traverses the edge along its canonical u < v
        orientation, -1 against it.
    face_components : ndarray of shape (F,)
        The component of each face among faces joined by shared edges,
        labelled by its lowest face.

    Raises
    ------
    TriangleInequalityViolated, NonOrientable, NonManifold, Disconnected
    """

    def __init__(self, triangles, edge_lengths, base_vertex=0):
        triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3)

        lengths = {}
        for (u, v), l in edge_lengths.items():
            u, v = int(u), int(v)
            if u == v:
                raise MeshError(f"self-loop edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            l = float(l)
            if not l > 0.0:
                raise MeshError(f"edge {key} has non-positive length {l}")
            prev = lengths.get(key)
            if prev is not None and prev != l:
                raise MeshError(f"edge {key} given two lengths {prev} and {l}")
            lengths[key] = l

        edges = sorted(lengths)
        self.edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
        self.edge_lengths = np.array([lengths[e] for e in edges])
        if (self.edges < 0).any() or (triangles < 0).any():
            raise MeshError("negative vertex id")
        self.vertex_count = 1 + int(
            max(self.edges.max(initial=0), triangles.max(initial=0))
        )
        self._edge_keys = self.edges[:, 0] * self.vertex_count + self.edges[:, 1]

        # the signed face->edge index: edge ids of v0->v1, v1->v2, v2->v0
        # and +1 where the face runs along the canonical u < v orientation
        heads = np.roll(triangles, -1, axis=1)
        face_edges = self.edge_ids(triangles, heads)
        signs = np.where(triangles < heads, 1.0, -1.0)
        degenerate = (triangles == heads).any(axis=1)
        bad = np.flatnonzero(degenerate | (face_edges < 0).any(axis=1))
        if len(bad):
            f = int(bad[0])
            if degenerate[f]:
                raise MeshError(f"degenerate triangle {tuple(triangles[f])}")
            k = int(np.argmax(face_edges[f] < 0))
            key = tuple(sorted((int(triangles[f, k]), int(heads[f, k]))))
            raise MeshError(f"missing length for triangle edge {key}")

        if not lengths:
            raise MeshError("mesh has no edges")

        self.dimension = 2 if len(triangles) else 1
        self.aux = {}  # construction metadata from generators, not serialized

        self._check_triangle_inequalities(triangles, face_edges)
        (
            self.triangles,
            self.face_edges,
            self.face_signs,
            self.face_components,
        ) = self._orient(triangles, face_edges, signs)
        self._check_connected()

        if not 0 <= int(base_vertex) < self.vertex_count:
            raise MeshError(f"base vertex {base_vertex} out of range")
        self.base_vertex = int(base_vertex)

        counts = np.bincount(self.face_edges.ravel(), minlength=len(self.edges))
        self.boundary_edges = frozenset(np.flatnonzero(counts == 1).tolist())

        for arr in (self.triangles, self.face_edges, self.face_signs,
                    self.face_components, self.edges, self.edge_lengths):
            arr.setflags(write=False)

    # -- validation -----------------------------------------------------

    def edge_ids(self, u, v):
        """Ids of the edges {u, v}, given in either order; -1 where absent."""
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        # int64: csgraph returns int32 vertex ids, whose product can wrap
        keys = np.asarray(lo, dtype=np.int64) * self.vertex_count + hi
        ids = np.searchsorted(self._edge_keys, keys)
        found = np.append(self._edge_keys, -1)[ids] == keys
        found &= (lo >= 0) & (hi < self.vertex_count)
        return np.where(found, ids, -1)

    def _check_triangle_inequalities(self, triangles, face_edges):
        lab, lbc, lca = self.edge_lengths[face_edges].T
        bad = np.flatnonzero(
            (lab + lbc <= lca) | (lbc + lca <= lab) | (lca + lab <= lbc)
        )
        if len(bad):
            f = int(bad[0])
            raise TriangleInequalityViolated(
                triangles[f], (lab[f], lbc[f], lca[f])
            )

    def _orient(self, triangles, face_edges, signs):
        """Flip faces so that two faces sharing an edge traverse it in
        opposite directions. Returns the oriented triangles, face->edge
        index and signs, and the face component label of every face.

        Node f of a 2F-node graph stands for face f as given and node
        F + f for face f reversed; each shared edge links the node pairs
        that traverse it oppositely. The surface is orientable iff no face
        shares a component with its own reversal. The lowest face of each
        face component keeps its input orientation and labels the component.
        """
        flat = face_edges.ravel()
        counts = np.bincount(flat, minlength=len(self.edges))
        crowded = counts[flat] > 2
        if crowded.any():
            e = flat[np.argmax(crowded)]
            raise NonManifold(
                f"edge {tuple(self.edges[e].tolist())} lies in {counts[e]} triangles"
            )

        F = len(triangles)
        order = np.argsort(flat, kind="stable")
        shared = np.flatnonzero(np.diff(flat[order]) == 0)
        p, q = order[shared], order[shared + 1]  # the two slots of a shared edge
        g = np.where(signs.ravel()[p] != signs.ravel()[q], q // 3, q // 3 + F)
        rows = np.concatenate([p // 3, p // 3 + F])
        cols = np.concatenate([g, (g + F) % (2 * F)])
        graph = csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(2 * F, 2 * F)
        )
        n, labels = connected_components(graph, directed=False)
        if np.any(labels[:F] == labels[F:]):
            raise NonOrientable("no consistent orientation assignment exists")
        lowest = np.full(n, F)
        np.minimum.at(lowest, labels, np.tile(np.arange(F), 2))
        components = lowest[labels[:F]]
        flip = labels[:F] != labels[components]

        # face (c, b, a) runs c->b, b->a, a->c: edge slots 1, 0, 2 reversed
        triangles[flip] = triangles[flip][:, ::-1]
        face_edges[flip] = face_edges[flip][:, [1, 0, 2]]
        signs[flip] = -signs[flip][:, [1, 0, 2]]
        return triangles, face_edges, signs, components

    def _check_connected(self):
        n, _ = connected_components(self.adjacency, directed=False)
        if n != 1:
            raise Disconnected(f"edge graph has {n} components")

    # -- derived geometry -------------------------------------------------

    @cached_property
    def adjacency(self):
        """Symmetric sparse matrix of edge lengths."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        w = self.edge_lengths
        return csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(self.vertex_count, self.vertex_count),
        )

    def face_geometry(self):
        """Planar layouts, areas, hat gradients and chart metrics per face.

        Each face is laid out in the plane from its edge lengths with
        v0 at the origin and v1 on the positive x axis; these layout
        coordinates are exactly the orthonormal frame coordinates produced
        by Gram-Schmidt on the chart edge basis.
        """
        if self.dimension != 2:
            raise MeshError("face geometry requires a dimension-2 mesh")
        return self._face_geometry

    @cached_property
    def _face_geometry(self):
        F = len(self.triangles)
        l01, l12, l02 = self.edge_lengths[self.face_edges].T

        x = (l01**2 + l02**2 - l12**2) / (2.0 * l01)
        y = np.sqrt(np.maximum(l02**2 - x**2, 0.0))

        dots = (l01**2 + l02**2 - l12**2) / 2.0
        metrics = np.empty((F, 2, 2))
        metrics[:, 0, 0] = l01**2
        metrics[:, 0, 1] = metrics[:, 1, 0] = dots
        metrics[:, 1, 1] = l02**2
        conds = _sym2x2_cond(metrics)
        bad = np.flatnonzero(conds > _COND_LIMIT)
        if len(bad):
            f = int(bad[0])
            raise DegenerateFace(f, float(conds[f]))

        layout = np.zeros((F, 3, 2))
        layout[:, 1, 0] = l01
        layout[:, 2, 0] = x
        layout[:, 2, 1] = y

        # Heron, guarded by the validated strict triangle inequality
        s = (l01 + l02 + l12) / 2.0
        areas = np.sqrt(s * (s - l01) * (s - l02) * (s - l12))

        grads = np.empty((F, 3, 2))
        for i in (1, 2):
            opp = layout[:, (i + 2) % 3, :] - layout[:, (i + 1) % 3, :]
            grads[:, i, 0] = -opp[:, 1]
            grads[:, i, 1] = opp[:, 0]
        grads[:, 1:] /= (2.0 * areas)[:, None, None]
        # hats sum to one, so their gradients sum to zero exactly
        grads[:, 0] = -(grads[:, 1] + grads[:, 2])

        for arr in (layout, areas, grads, metrics):
            arr.setflags(write=False)
        return _FaceGeometry(layout, areas, grads, metrics)

    @cached_property
    def field_shape(self):
        """Shape of a vector field: (F, 2) frame coordinates per face on
        surfaces, (E,) values per canonical oriented edge on graphs."""
        return (len(self.triangles), 2) if self.dimension == 2 else (len(self.edges),)

    @cached_property
    def cell_weights(self):
        """Measure of each field cell: face areas or edge lengths."""
        return self.face_geometry().areas if self.dimension == 2 else self.edge_lengths

    @cached_property
    def div_matrix(self):
        """Sparse divergence matrix; see ``calculus.divergence_matrix``."""
        return calculus._assemble_divergence_matrix(self)

    @cached_property
    def normal_solver(self):
        """Factorized normal-matrix solve; see
        ``calculus.divergence_normal_solver``."""
        return calculus._factor_normal_matrix(self)

    def all_pairs_distances(self):
        """Dense (V, V) matrix of graph geodesic distances."""
        return dijkstra(self.adjacency, directed=False)

    @property
    def boundary_vertices(self):
        """Vertices on the boundary: endpoints of boundary edges for
        surfaces, degree-1 vertices for graphs."""
        if self.dimension == 2:
            ends = self.edges[sorted(self.boundary_edges)]
            return frozenset(np.unique(ends).tolist())
        deg = np.bincount(self.edges.ravel(), minlength=self.vertex_count)
        return frozenset(np.flatnonzero(deg == 1).tolist())

    def oriented_face_edges(self, f):
        """The three (tail, head) pairs of face f in face orientation."""
        a, b, c = (int(x) for x in self.triangles[f])
        return ((a, b), (b, c), (c, a))

    def edge_id(self, u, v):
        e = int(self.edge_ids(u, v))
        if e < 0:
            raise KeyError((min(u, v), max(u, v)))
        return e


def _sym2x2_cond(m):
    tr = m[:, 0, 0] + m[:, 1, 1]
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    disc = np.sqrt(np.maximum((tr / 2.0) ** 2 - det, 0.0))
    lo = tr / 2.0 - disc
    hi = tr / 2.0 + disc
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo > 0, hi / lo, np.inf)


def build_mesh(triangles, edge_lengths, base_vertex=0):
    """Validate and orient a mesh from triangles and symmetric edge lengths.

    See :class:`TriMesh` for the accepted inputs and raised errors.
    """
    return TriMesh(triangles, edge_lengths, base_vertex=base_vertex)


def geodesic_distances(mesh, source):
    """Shortest-path distances from ``source`` in the weighted edge graph."""
    if not 0 <= source < mesh.vertex_count:
        raise MeshError(f"source vertex {source} out of range")
    dist = dijkstra(mesh.adjacency, directed=False, indices=source)
    dist.setflags(write=False)
    return GeodesicTable(source=int(source), dist=dist)


def face_area(mesh, f):
    """Heron area of face ``f`` from its three edge lengths."""
    return float(mesh.face_geometry().areas[f])


def _face_frame(mesh, f):
    geom = mesh.face_geometry()
    g = geom.metrics[f]
    # Gram-Schmidt on the chart basis (e1, e2) under the face metric g.
    c1 = np.array([1.0, 0.0])
    n1 = np.sqrt(c1 @ g @ c1)
    c1 = c1 / n1
    c2 = np.array([0.0, 1.0])
    c2 = c2 - (c2 @ g @ c1) * c1
    c2 = c2 / np.sqrt(c2 @ g @ c2)
    coeffs = np.column_stack([c1, c2])
    gram = coeffs.T @ g @ coeffs
    return FaceFrame(face=f, basis_coeffs=coeffs, gram=gram)


def build_patchwork(mesh):
    """One patch per face, each with its Gram-Schmidt orthonormal frame.

    Face interiors are pairwise disjoint and cover the surface up to the
    edge skeleton, which is the null set skipped by the patchwork.
    """
    if mesh.dimension != 2:
        raise MeshError("patchwork requires a dimension-2 mesh")
    mesh.face_geometry()  # raises DegenerateFace before any patch is built
    patches = tuple(
        ((f,), _face_frame(mesh, f)) for f in range(len(mesh.triangles))
    )
    return Patchwork(patches=patches)

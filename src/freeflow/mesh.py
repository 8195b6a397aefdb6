"""Intrinsic metric simplicial surfaces and metric graphs.

A mesh is purely intrinsic: combinatorics plus one positive length per
edge. No vertex embedding is required; every derived quantity (face
layouts, which are the orthonormal frames, areas, geodesic distances) is
computed from edge lengths alone. Dimension 2 meshes are triangle surfaces, dimension 1
meshes are metric graphs (no triangles).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf

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


@dataclass
class _FaceGeometry:
    layout: np.ndarray  # (F, 3, 2) planar vertex positions per face
    areas: np.ndarray  # (F,)
    hat_gradients: np.ndarray  # (F, 3, 2) gradient of each corner hat


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
    edge_lengths : dict or iterable of ((u, v), length) pairs
        Finite positive lengths of vertex pairs. Pairs may be given in
        either order, and a pair given twice must repeat its length; the
        pairs must cover all triangle edges and may add extra graph edges.
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

        if isinstance(edge_lengths, dict):
            edge_lengths = edge_lengths.items()
        lengths = {}
        for (u, v), l in edge_lengths:
            u, v = int(u), int(v)
            if u == v:
                raise MeshError(f"self-loop edge ({u}, {v})")
            key = (u, v) if u < v else (v, u)
            l = float(l)
            if not 0.0 < l < inf:
                raise MeshError(f"edge {key} length {l} is not finite and positive")
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
        """Planar layouts, areas and hat gradients per face.

        Each face is laid out in the plane from its edge lengths with
        v0 at the origin, v1 on the positive x axis and v2 above it;
        these layout coordinates are the face's positively oriented
        orthonormal frame, the one Gram-Schmidt gives on the chart edge
        basis. Raises :class:`DegenerateFace` when a chart metric has
        condition number above 1e12.
        """
        if self.dimension != 2:
            raise MeshError("face geometry requires a dimension-2 mesh")
        return self._face_geometry

    @cached_property
    def _face_geometry(self):
        F = len(self.triangles)
        l01, l12, l02 = self.edge_lengths[self.face_edges].T

        dots = (l01**2 + l02**2 - l12**2) / 2.0
        x = dots / l01
        y = np.sqrt(np.maximum(l02**2 - x**2, 0.0))

        # the chart metric of the edge basis is [[l01^2, dots], [dots, l02^2]]
        conds = _sym2x2_cond(l01**2, dots, l02**2)
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

        for arr in (layout, areas, grads):
            arr.setflags(write=False)
        return _FaceGeometry(layout, areas, grads)

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


def _sym2x2_cond(a, b, c):
    """Condition numbers of the symmetric matrices [[a, b], [b, c]]."""
    tr = a + c
    det = a * c - b * b
    disc = np.sqrt(np.maximum((tr / 2.0) ** 2 - det, 0.0))
    lo = tr / 2.0 - disc
    hi = tr / 2.0 + disc
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lo > 0, hi / lo, np.inf)


def geodesic_distances(mesh, source):
    """Shortest-path distances from ``source`` in the weighted edge graph."""
    if not 0 <= source < mesh.vertex_count:
        raise MeshError(f"source vertex {source} out of range")
    dist = dijkstra(mesh.adjacency, directed=False, indices=source)
    dist.setflags(write=False)
    return dist

import numpy as np
import pytest

from freeflow.freenorm import Molecule, canonicalize
from freeflow.mesh import TriMesh
from freeflow.primitives import generate_primitive


@pytest.fixture(scope="session")
def flat4():
    return generate_primitive("flat_rect", nx=4)


@pytest.fixture(scope="session")
def flat6():
    return generate_primitive("flat_rect", nx=6)


@pytest.fixture(scope="session")
def ico1():
    return generate_primitive("icosphere", level=1)


@pytest.fixture(scope="session")
def ico2():
    return generate_primitive("icosphere", level=2)


@pytest.fixture(scope="session")
def annulus():
    return generate_primitive("annulus", n_angular=16, n_radial=4)


@pytest.fixture(scope="session")
def torus():
    return generate_primitive("torus", nx=12)


@pytest.fixture(scope="session")
def torus8():
    return generate_primitive("torus", nx=8)


@pytest.fixture(scope="session")
def poincare():
    return generate_primitive("poincare_disk_patch")


@pytest.fixture(scope="session")
def flat8_chord():
    """flat_rect nx8 plus a chord on no face, from corner 0 to the far
    corner 80, shorter than any path of grid edges between them."""
    mesh = generate_primitive("flat_rect", nx=8)
    lengths = edge_length_map(mesh)
    lengths[(0, 80)] = 0.5
    return from_lengths(mesh.triangles, lengths)


@pytest.fixture(scope="session")
def circle32():
    return generate_primitive("circle_graph", n=32)


@pytest.fixture(scope="session")
def interval10():
    return generate_primitive("interval_graph", n=10, total_length=5.0)


def random_molecule(mesh, rng, max_atoms=6, scale=3.0):
    """Canonical random molecule with nonzero coefficients in [-scale, scale]."""
    k = int(rng.integers(1, max_atoms + 1))
    verts = rng.choice(np.arange(1, mesh.vertex_count), size=k, replace=False)
    coeffs = rng.uniform(0.1, scale, size=k) * rng.choice([-1.0, 1.0], size=k)
    return canonicalize(Molecule(tuple(zip(verts, coeffs))), mesh.base_vertex)


def from_lengths(triangles, lengths, base_vertex=0):
    """TriMesh from a ``{(u, v): length}`` dict."""
    return TriMesh(triangles, list(lengths), list(lengths.values()), base_vertex)


def face_edge_pairs(mesh, f):
    """The three (tail, head) pairs of face f in face orientation."""
    a, b, c = mesh.triangles[f].tolist()
    return ((a, b), (b, c), (c, a))


def edge_index(mesh):
    """Map from canonical (u, v) pairs to edge ids, built from
    ``mesh.edges`` alone as a reference for ``TriMesh.edge_ids``."""
    return {tuple(e): i for i, e in enumerate(mesh.edges.tolist())}


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
    return from_lengths(triangles, lengths)

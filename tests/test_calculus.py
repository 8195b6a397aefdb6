import ast
import hashlib
import importlib
import inspect
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import factorized, splu

import freeflow
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
from freeflow.currents import d0
from freeflow.errors import MeshError, ParseError, SolverFailure
from freeflow.experiments import extend_by_zero
from freeflow.freenorm import Molecule, beckmann_field
from freeflow.mesh import TriMesh, geodesic_distances
from freeflow.primitives import generate_primitive

from conftest import from_lengths

UNIT = {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}


def dense_pinned_normal_solve(mesh, r):
    """Oracle: (A A^T) y = r by a dense solve with the base vertex's row
    and column removed and y zero there."""
    A = divergence_matrix(mesh).toarray()
    keep = np.arange(mesh.vertex_count) != mesh.base_vertex
    y = np.zeros(mesh.vertex_count)
    y[keep] = np.linalg.solve((A @ A.T)[np.ix_(keep, keep)], r[keep])
    return y


# sha256 of the pinned normal solve on the 80-vertex annulus, by base vertex
NORMAL_SOLVE_PINS = [
    (0, "456de1eb06121afb78e8efb4d7e82c8e1e5a3f0cfebbe0a85bd33f54af8472c6"),
    (43, "e1197d5dd5b22b439f619fcc34b5462c3baf100f082138c40bcf90e836864573"),
    (79, "1f8a74d091cc459b4938d530a10efd13aae08df92d166646d0042be3a5645a79"),
]


def normal_solve_digest(base):
    mesh = generate_primitive("annulus", base_vertex=base, n_angular=16, n_radial=4)
    assert mesh.vertex_count == 80
    r = np.random.default_rng(3).standard_normal(mesh.vertex_count)
    r -= r.mean()
    y = divergence_normal_solver(mesh)(r)
    assert y[base] == 0.0
    return hashlib.sha256(y.tobytes()).hexdigest()


def dense_lipschitz(mesh, f):
    """Oracle: the float maximum of |f_s - f_t| / d(s, t) over all pairs,
    d the dense matrix of all-pairs distances."""
    d = mesh.all_pairs_distances()
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(d > 0, np.abs(f[:, None] - f[None, :]) / d, 0.0).max())


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
        m = from_lengths([(0, 1, 2)], UNIT)
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
        m = from_lengths([(0, 1, 2)], UNIT)
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
        ids=["flat4", "ico1", "annulus", "torus", "poincare", "circle32", "interval10"],
    )
    def test_matrix_bytes_are_pinned(self, request, fixture, pin):
        # sha256 of the CSR arrays, so any change to the assembly's
        # entries, their order or their rounding shows
        A = divergence_matrix(request.getfixturevalue(fixture))
        payload = A.indptr.tobytes() + A.indices.tobytes() + A.data.tobytes()
        assert hashlib.sha256(payload).hexdigest() == pin

    @pytest.mark.parametrize("base, pin", NORMAL_SOLVE_PINS, ids=["first", "middle", "last"])
    def test_normal_solve_bytes_are_pinned(self, base, pin):
        # sha256 of the pinned normal-matrix solve on the 80-vertex
        # annulus, with the base vertex first, in the middle and last
        assert normal_solve_digest(base) == pin

    def test_calculus_is_the_one_factorization_site(self):
        # every sparse factorization in the package is made in calculus,
        # by one dpbtrf call and solved by one dpbtrs call: the pinned
        # A D A^T of weighted_normal_factorizer, whose D = I is the normal
        # solver; scipy's wrappers of the same routines are not bound
        names = [info.name for info in pkgutil.iter_modules(freeflow.__path__, "freeflow.")]
        modules = [freeflow, *map(importlib.import_module, names)]
        factorizers = {
            "dpbtrf": dpbtrf, "dpbtrs": dpbtrs, "cholesky_banded": cholesky_banded,
            "cho_solve_banded": cho_solve_banded, "splu": splu, "factorized": factorized,
        }
        binders = [
            (m.__name__, name) for m in modules for name, f in factorizers.items()
            # by identity: `in` compares with ==, which a module-level
            # numpy array answers elementwise
            if any(value is f for value in vars(m).values())
        ]
        assert binders == [("freeflow.calculus", "dpbtrf"), ("freeflow.calculus", "dpbtrs")]
        tree = ast.parse(inspect.getsource(calculus))
        calls = [
            getattr(node.func, "id", None) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in factorizers
        ]
        assert sorted(calls) == ["dpbtrf", "dpbtrs"]

    def test_factor_runs_on_one_blas_thread_and_restores_the_count(self, annulus):
        # the OpenBLAS thread count is 1 inside dpbtrf and dpbtrs, and the
        # count set before a factor is back after the factor, after a
        # solve and after a factor that fails with a SolverFailure
        calls = calculus._openblas_thread_calls()
        if calls is None:
            pytest.skip("scipy bundles no OpenBLAS here")
        get, put = calls
        inside = []

        def recording(function):
            def record(*args, **kwargs):
                inside.append(get())
                return function(*args, **kwargs)
            return record

        F = len(annulus.triangles)
        identity = np.stack([np.ones(F), np.zeros(F), np.ones(F)])
        factor = calculus.weighted_normal_factorizer(annulus)
        before = get()
        try:
            put(2)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(calculus, "dpbtrf", recording(calculus.dpbtrf))
                patch.setattr(calculus, "dpbtrs", recording(calculus.dpbtrs))
                solve = factor(identity)
                assert get() == 2
                solve(np.zeros(annulus.vertex_count))
                assert get() == 2
                with pytest.raises(SolverFailure):
                    factor(-identity)
                assert get() == 2
        finally:
            put(before)
        assert inside == [1, 1, 1]

    def test_factor_without_a_bundled_openblas_solves_the_same(self, monkeypatch):
        # where scipy bundles no OpenBLAS, the factor leaves the thread
        # count alone: an icosphere L3 field solve gives the same value in
        # the same number of steps, and the pinned normal solves still match
        mesh = generate_primitive("icosphere", level=3)
        rng = np.random.default_rng(3)
        vertices = rng.choice(mesh.vertex_count, 6, replace=False).tolist()
        coeffs = rng.standard_normal(6)
        molecule = Molecule(tuple(zip(vertices, coeffs - coeffs.mean())))
        value, _, diag = beckmann_field(mesh, molecule)
        lookups = []
        monkeypatch.setattr(calculus, "_openblas_thread_calls", lambda: lookups.append(1))
        without, _, diag_without = beckmann_field(mesh, molecule)
        assert (without, diag_without["iterations"]) == (value, diag["iterations"])
        assert diag_without["certified"]
        assert [normal_solve_digest(base) for base, _ in NORMAL_SOLVE_PINS] == [
            pin for _, pin in NORMAL_SOLVE_PINS
        ]
        assert lookups

    def test_hub_vertex_band_is_a_mesh_error(self):
        # a star pinned at a leaf: its hub joins every other vertex, so
        # the band order leaves it kd = 1998 from a leaf, of 2000 unknowns;
        # the width is checked before its 32 MB band is allocated
        leaves = 2000
        edges = [(0, leaf) for leaf in range(1, leaves + 1)]
        star = TriMesh([], edges, np.ones(leaves), base_vertex=1)
        tracemalloc.start()
        try:
            with pytest.raises(MeshError, match="band is 1999 wide for 2000 unknowns"):
                calculus.weighted_normal_factorizer(star)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_setup_peak_stays_near_what_it_keeps(self):
        # the set-up frees its rank pairs before it fills the corner-pair
        # products, one pair at a time, so its transient peak stays within
        # 1.6x of the slots and products it keeps; the mesh's cells and
        # adjacency are warmed first, as they stay on the mesh
        mesh = generate_primitive("flat_rect", nx=64, ny=64)
        calculus._cells(mesh), mesh.adjacency
        tracemalloc.start()
        try:
            factor = calculus.weighted_normal_factorizer(mesh)  # holds what it keeps
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * kept, (peak, kept)

    def test_small_hub_band_is_factored(self):
        # a wheel of 200 spokes pinned at a rim vertex: its band is as wide
        # as the matrix, but at 200 x 200 it is small enough to factor
        mesh = generate_primitive("poincare_disk_patch", n_angular=200, n_radial=1,
                                  base_vertex=1)
        r = np.random.default_rng(23).standard_normal(mesh.vertex_count)
        r -= r.mean()
        y = divergence_normal_solver(mesh)(r)
        expected = dense_pinned_normal_solve(mesh, r)
        assert np.abs(y - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_non_positive_pivot_is_a_solver_failure(self, annulus):
        # D = -I makes the pinned matrix negative definite: the first
        # pivot of the band order fails, and the error names its vertex
        F = len(annulus.triangles)
        factor = calculus.weighted_normal_factorizer(annulus)
        with pytest.raises(SolverFailure, match="pivot 1 ") as info:
            factor(-np.stack([np.ones(F), np.zeros(F), np.ones(F)]))
        vertex = info.value.diagnostics["vertex"]
        assert info.value.diagnostics["pivot"] == 1
        assert 0 <= vertex < annulus.vertex_count and vertex != annulus.base_vertex

    @pytest.mark.parametrize("base", [0, 43, 79])
    def test_weighted_normal_matrix_solves(self, base):
        # random symmetric positive definite blocks D: the pinned solve
        # meets A D A^T y = r at every vertex, one factorizer's later
        # factors match a fresh factorizer's first, and D = I matches a
        # dense solve of the pinned A A^T
        mesh = generate_primitive("annulus", base_vertex=base, n_angular=16, n_radial=4)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(mesh.vertex_count)
        r -= r.mean()
        F = len(mesh.triangles)
        A = divergence_matrix(mesh)
        factor = calculus.weighted_normal_factorizer(mesh)
        for _ in range(5):
            M = rng.standard_normal((F, 2, 2))
            blocks = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(2)
            entries = np.stack([blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 1]])
            y = factor(entries)(r)
            assert y[base] == 0.0
            g = (blocks @ (A.T @ y).reshape(F, 2, 1)).ravel()
            assert np.abs(A @ g - r).max() <= 1e-10 * np.abs(r).max()
            fresh = calculus.weighted_normal_factorizer(mesh)(entries)(r)
            assert np.abs(y - fresh).max() <= 1e-10 * np.abs(fresh).max()
        identity = np.stack([np.ones(F), np.zeros(F), np.ones(F)])
        y = factor(identity)(r)
        expected = dense_pinned_normal_solve(mesh, r)
        assert np.abs(y - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("fixture", ["circle32", "interval10"])
    def test_graph_normal_solve_matches_a_dense_solve(self, request, fixture):
        # a metric graph's A A^T is its unweighted Laplacian, solved by
        # the same factorizer with one coordinate per edge
        mesh = request.getfixturevalue(fixture)
        r = np.random.default_rng(17).standard_normal(mesh.vertex_count)
        r -= r.mean()
        y = divergence_normal_solver(mesh)(r)
        expected = dense_pinned_normal_solve(mesh, r)
        assert y[mesh.base_vertex] == 0.0
        assert np.abs(y - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_operators_are_built_once_per_mesh(self, flat6):
        assert divergence_matrix(flat6) is divergence_matrix(flat6)


class TestPairingAndNorms:
    def test_zero_one_form_pairs_to_zero(self, flat4):
        f = np.zeros((len(flat4.triangles), 2))
        g = np.ones((len(flat4.triangles), 2))
        assert pairing(flat4, f, g) == 0.0

    def test_single_equilateral_face_value(self):
        m = from_lengths([(0, 1, 2)], UNIT)
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

    @pytest.mark.parametrize(
        "call, message",
        [
            # a long array used to give E numbers, a short one an IndexError
            (lambda m: d0(m, np.zeros(m.vertex_count + 3)),
             "scalar field has shape (19,), expected (16,)"),
            (lambda m: d0(m, np.zeros(m.vertex_count - 1)),
             "scalar field has shape (15,), expected (16,)"),
            (lambda m: d0(m, np.full(m.vertex_count, np.nan)),
             "scalar field has non-finite entries"),
            # a wrong length used to be numpy's ValueError
            (lambda m: dist_pairing(m, np.zeros(m.vertex_count), np.zeros(3)),
             "distribution has shape (3,), expected (16,)"),
            (lambda m: dist_pairing(m, np.zeros(m.vertex_count),
                                    np.full(m.vertex_count, np.inf)),
             "distribution has non-finite entries"),
            # NaN rows used to be extended silently
            (lambda m: extend_by_zero(m, [0, 1], [[np.nan, 0.0], [0.0, 0.0]]),
             "field has non-finite entries"),
            (lambda m: extend_by_zero(m, [0, 1], np.zeros((3, 2))),
             "field has shape (3, 2), expected (2, 2)"),
        ],
        ids=["d0_long", "d0_short", "d0_nan", "dist_length", "dist_inf",
             "extend_nan", "extend_shape"],
    )
    def test_entry_points_check_their_arrays(self, call, message):
        mesh = generate_primitive("flat_rect", nx=3)
        with pytest.raises(MeshError) as info:
            call(mesh)
        assert str(info.value) == message


class TestLipschitzConstant:
    def test_constant_field(self, flat4):
        f = np.full(flat4.vertex_count, 2.0)
        assert lip_constant(flat4, f, "edgewise") == 0.0
        assert lip_constant(flat4, f, "pairwise_geodesic") == 0.0

    def test_unknown_mode_is_a_parse_error(self, flat4):
        f = np.zeros(flat4.vertex_count)
        with pytest.raises(ParseError, match="unknown mode 'geodesic'"):
            lip_constant(flat4, f, "geodesic")

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

    def test_pairwise_search_matches_the_dense_ratio(
        self, flat4, ico1, annulus, torus, poincare, circle32
    ):
        rng = np.random.default_rng(11)
        for mesh in (flat4, ico1, annulus, torus, poincare, circle32):
            V = mesh.vertex_count
            x = mesh.aux["positions"][:, 0] if "positions" in mesh.aux else np.arange(V) / V
            ends = [geodesic_distances(mesh, s) for s in (mesh.base_vertex, V - 1)]
            fields = {
                "random": rng.normal(size=V),
                "distance": geodesic_distances(mesh, mesh.base_vertex),
                "x squared": x**2,
                "constant": np.full(V, -1.5),
                # tight along straight lines of edges, which marks many vertices
                "x": x,
                "distance sum": ends[0] + 0.5 * ends[1],
            }
            for name, f in fields.items():
                got = lip_constant(mesh, f, "pairwise_geodesic")
                assert got == dense_lipschitz(mesh, f), (mesh, name)

        # 0.2 + 0.7 rounds below 0.9, so only the search finds the far pair
        path = TriMesh([], [(0, 1), (1, 2)], [0.2, 0.7])
        f = np.array([0.0, 0.2, 0.9])
        assert lip_constant(path, f, "edgewise") == 1.0
        assert lip_constant(path, f, "pairwise_geodesic") == 0.9 / (0.2 + 0.7) > 1.0
        # the same pair across an edge of 1e-17, which puts the margin past
        # 1/4, so every vertex is searched
        path = TriMesh([], [(0, 1), (1, 2), (2, 3)], [0.2, 1e-17, 0.7])
        f = np.array([0.0, 0.2, 0.2, 0.9])
        assert lip_constant(path, f, "pairwise_geodesic") == 0.9 / (0.2 + 0.7)
        # f = 7x: the far pair beats the edgewise 7.0 only in the row from
        # its low end, which adds 0.18 + 0.24 + 0.03 to 0.44999999999999996
        # where the row from the high end reads 0.45, so the ends marked
        # for -f are searched too
        path = TriMesh([], [(0, 1), (1, 2), (2, 3)], [0.18, 0.24, 0.03])
        f = np.array([0.0, 1.26, 2.94, 3.15])
        assert lip_constant(path, f, "edgewise") == 7.0
        assert lip_constant(path, f, "pairwise_geodesic") == dense_lipschitz(path, f) > 7.0

        # two short edges between two long ones, f of slope 1 on the short
        # edges and below 1 on the long ones: some pairs across the short
        # edges beat the edgewise value by an ulp, while the McShane costs
        # are about the long edges' length. A fixed margin of 1e-9 misses
        # some of them; the margin that scales with roundoff finds them all
        rng = np.random.default_rng(44)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        beaten = 0
        for _ in range(300):
            long, short = 10 ** rng.uniform(2, 3, 2), 10 ** rng.uniform(-9, -6, 2)
            f1 = rng.uniform(-1, 1) * short[0]
            f2 = f1 + short[0]
            f3 = f2 + short[1]
            f = np.array([f1 - rng.uniform(0.1, 1) * long[0], f1, f2, f3,
                          f3 + rng.uniform(0.1, 1) * long[1]])
            path = TriMesh([], edges, [long[0], short[0], short[1], long[1]])
            dense = dense_lipschitz(path, f)
            beaten += dense > lip_constant(path, f, "edgewise")
            assert lip_constant(path, f, "pairwise_geodesic") == dense, f.tolist()
        assert beaten >= 8

    @pytest.mark.parametrize(
        "fixture, pin",
        [
            ("annulus", "c4241f5181f4b2c243089a56c8e4ff2ee66c5f1205f634962ab8f8df29f748ca"),
            ("poincare", "6b9e5e6e0c5e5899af0aa5f25841cae348c4b861357f690d9d50c6d470e37036"),
        ],
        ids=["annulus", "poincare"],
    )
    def test_pairwise_values_are_pinned(self, request, fixture, pin):
        # sums of distance fields have slope 1.5 up to roundoff, so the
        # reprs show every bit of the searched distances
        mesh = request.getfixturevalue(fixture)
        fields = [geodesic_distances(mesh, s) for s in (0, 5, mesh.vertex_count - 1)]
        values = [
            lip_constant(mesh, f + 0.5 * g, "pairwise_geodesic")
            for f in fields
            for g in fields
        ]
        digest = hashlib.sha256(" ".join(map(repr, values)).encode()).hexdigest()
        assert digest == pin

    def test_pairwise_search_is_pruned_and_limited(self, monkeypatch):
        # two McShane searches over V + 1 nodes mark the ends of the pairs
        # that can beat the edgewise value; only those are searched as
        # rows, each up to a finite limit
        mesh = generate_primitive("flat_rect", nx=16)
        V = mesh.vertex_count
        f = np.random.default_rng(13).normal(size=V)
        calls = []

        def recording_dijkstra(graph, **kwargs):
            calls.append((graph.shape[0], kwargs))
            return dijkstra(graph, **kwargs)

        monkeypatch.setattr(calculus, "dijkstra", recording_dijkstra)
        lip_constant(mesh, f, "pairwise_geodesic")
        assert [nodes for nodes, _ in calls[:2]] == [V + 1, V + 1]
        rows = calls[2:]
        assert all(nodes == V and math.isfinite(kwargs["limit"]) for nodes, kwargs in rows)
        assert len(rows) < V / 4

    @pytest.mark.parametrize("kind, params, bound",
                             [("flat_rect", {"nx": 64}, 1_774_500),
                              ("icosphere", {"level": 4}, 1_793_400)],
                             ids=["nx64", "L4"])
    @pytest.mark.parametrize("smooth", [False, True], ids=["random", "smooth"])
    def test_pairwise_search_holds_two_row_blocks(self, kind, params, bound, smooth):
        # the search keeps one (V + 1)-node copy of the adjacency and one
        # distance row at a time: its traced peak (0.64 MB at nx64, 0.39 MB
        # at L4) stays below 1.77 and 1.79 MB (the adjacency, which stays
        # on the mesh, is built first)
        mesh = generate_primitive(kind, **params)
        mesh.adjacency
        if smooth:
            x, y = mesh.aux["positions"][:, 0], mesh.aux["positions"][:, 1]
            f = np.sin(3 * x) + y**2
        else:
            f = np.random.default_rng(39).normal(size=mesh.vertex_count)
        tracemalloc.start()
        try:
            lip_constant(mesh, f, "pairwise_geodesic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    def test_axis_aligned_equality_on_flat_rect(self, flat4):
        f = 1.7 * flat4.aux["positions"][:, 0]
        assert linf_norm(flat4, gradient(flat4, f)) == pytest.approx(
            lip_constant(flat4, f, "edgewise"), abs=1e-9
        )

import numpy as np
import pytest

from freeflow.calculus import divergence, gradient, l1_norm, lip_constant, pairing
from freeflow.errors import (
    InvalidParams,
    PreconditionViolated,
    UnboundedSequence,
)
from freeflow.experiments import (
    cutoff_decay,
    cutoff_field,
    divergence_free_field,
    extend_by_zero,
    extension_experiment,
    interface_vertices,
    normal_flux_counterexample,
    project_divergence_free,
    refinement_study,
    smoothstep_profile,
    tangential_subset_field,
    weakstar_probe,
)
from freeflow.mesh import geodesic_distances
from freeflow.primitives import generate_primitive


@pytest.fixture(scope="module")
def strip():
    return generate_primitive("flat_rect", width=32.0, height=1.0, nx=160, ny=8)


@pytest.fixture(scope="module")
def strip_dist(strip):
    return geodesic_distances(strip, strip.base_vertex)


@pytest.fixture(scope="module")
def strip_field(strip, strip_dist):
    g = divergence_free_field(strip, potential=np.exp(-strip_dist / 4.0))
    return strip_dist, g


def disk_with_annular_subset(nx=20, r_inner=0.15, r_outer=0.35):
    mesh = generate_primitive("flat_rect", nx=nx)
    bary = mesh.aux["positions"][mesh.triangles].mean(axis=1)
    r = np.linalg.norm(bary - [0.5, 0.5], axis=1)
    faces = np.flatnonzero((r >= r_inner) & (r <= r_outer))
    return mesh, faces


class TestCutoffProfile:
    def test_plateau_values(self):
        assert smoothstep_profile(-1.0) == 1.0
        assert smoothstep_profile(0.0) == 1.0
        assert smoothstep_profile(1.0) == 0.0
        assert smoothstep_profile(2.0) == 0.0

    def test_range_and_slope_bound(self):
        t = np.linspace(-0.5, 1.5, 1001)
        values = smoothstep_profile(t)
        assert values.min() >= 0.0 and values.max() <= 1.0
        slopes = np.diff(values) / np.diff(t)
        assert np.abs(slopes).max() <= 2.0
        # the quintic's steepest point is 15/8, within the allowed 2
        assert np.abs(slopes).max() == pytest.approx(15.0 / 8.0, abs=1e-2)

    def test_invalid_scale(self, strip_dist):
        for scale in (0.0, -1.0, float("nan")):  # NaN used to be accepted
            with pytest.raises(InvalidParams):
                cutoff_field(strip_dist, scale)


class TestCutoffField:
    def test_center_value_one(self, strip, strip_dist):
        values = cutoff_field(strip_dist, 2.0)
        assert values[strip.base_vertex] == 1.0

    def test_plateaus_match_balls(self, strip_dist):
        k = 3.0
        values = cutoff_field(strip_dist, k)
        assert np.all(values[strip_dist <= k] == 1.0)
        assert np.all(values[strip_dist >= 2 * k] == 0.0)
        assert values.min() >= 0.0 and values.max() <= 1.0

    def test_lipschitz_bound(self, strip, strip_dist):
        for k in (1.0, 2.0, 4.0):
            values = cutoff_field(strip_dist, k)
            assert lip_constant(strip, values, "edgewise") <= 2.0 / k * (1 + 1e-12)


class TestCutoffDecay:
    def test_zero_field_rows(self, strip):
        dist = geodesic_distances(strip, strip.base_vertex)
        g = np.zeros((len(strip.triangles), 2))
        report = cutoff_decay(strip, g, dist, ks=[1, 2])
        assert all(row["measured"] == 0.0 for row in report.rows)
        assert all(row["bound"] == 0.0 for row in report.rows)

    def test_requires_divergence_free(self, strip):
        dist = geodesic_distances(strip, strip.base_vertex)
        g = np.ones((len(strip.triangles), 2))
        with pytest.raises(PreconditionViolated):
            cutoff_decay(strip, g, dist, ks=[1])

    def test_decay_on_strip(self, strip, strip_field):
        dist, g = strip_field
        report = cutoff_decay(strip, g, dist, ks=[1, 2, 4, 8])
        assert report.passed
        measured = [row["measured"] for row in report.rows]
        bounds = [row["bound"] for row in report.rows]
        assert all(m <= 1.1 * b for m, b in zip(measured, bounds))
        assert all(b2 < b1 for b1, b2 in zip(measured, measured[1:]))
        assert bounds[-1] < bounds[0]  # tail sums of an integrable field

    def test_pairing_of_unlocalized_field_vanishes(self, strip, strip_field):
        dist, g = strip_field
        assert abs(pairing(strip, gradient(strip, dist), g)) <= 1e-9


class TestExtension:
    def test_zero_field_extends_to_zero(self):
        mesh, faces = disk_with_annular_subset()
        g = np.zeros((len(faces), 2))
        extended = extend_by_zero(mesh, faces, g)
        assert np.abs(divergence(mesh, extended)).max() == 0.0

    def test_tangential_field_is_member(self):
        mesh, faces = disk_with_annular_subset()
        g = tangential_subset_field(mesh, faces, rng=np.random.default_rng(40))
        assert np.abs(g).max() > 0.0
        extended = extend_by_zero(mesh, faces, g)
        assert np.abs(divergence(mesh, extended)).max() <= 1e-8

    def test_unit_flux_counterexample(self):
        mesh, faces = disk_with_annular_subset()
        g, edge = normal_flux_counterexample(mesh, faces)
        extended = extend_by_zero(mesh, faces, g)
        div = np.abs(divergence(mesh, extended))
        endpoints = [int(x) for x in mesh.edges[edge]]
        assert div[endpoints].max() >= 0.01

    def test_locality_of_divergence(self):
        # vertices surrounded by subset faces see exactly the subset field
        mesh, faces = disk_with_annular_subset()
        g = tangential_subset_field(mesh, faces, rng=np.random.default_rng(41))
        extended = extend_by_zero(mesh, faces, g)
        face_set = set(int(f) for f in faces)
        interior = [
            v
            for v in range(mesh.vertex_count)
            if all(
                f in face_set
                for f in range(len(mesh.triangles))
                if v in mesh.triangles[f]
            )
            and any(v in mesh.triangles[f] for f in face_set)
        ]
        assert interior
        restricted = np.zeros_like(extended)
        restricted[sorted(face_set)] = extended[sorted(face_set)]
        full_div = divergence(mesh, extended)
        sub_div = divergence(mesh, restricted)
        assert np.abs(full_div[interior] - sub_div[interior]).max() == 0.0

    def test_experiment_report(self):
        mesh, faces = disk_with_annular_subset()
        report = extension_experiment(mesh, faces, rng=np.random.default_rng(42))
        assert report.passed
        assert report.details["interface_vertex_count"] == len(
            interface_vertices(mesh, faces)
        )


class TestWeakstarProbe:
    def test_constant_sequence_is_zero(self, ico1):
        g = divergence_free_field(ico1, rng=np.random.default_rng(43))
        f = geodesic_distances(ico1, 0)
        report = weakstar_probe(ico1, [f, f, f], f, g, lip_bound=1.0)
        assert report.passed
        assert all(row["deviation"] == 0.0 for row in report.rows)

    def test_moving_cap_sequence_converges(self, ico2):
        d = ico2.all_pairs_distances()
        path = [0, 17, 44, 44]  # reaches the limit vertex and stays
        g = divergence_free_field(ico2, rng=np.random.default_rng(44))
        seq = [np.minimum(d[x], 1.0) for x in path]
        f_lim = np.minimum(d[44], 1.0)
        report = weakstar_probe(ico2, seq, f_lim, g, lip_bound=1.0)
        assert report.passed
        devs = [row["deviation"] for row in report.rows]
        assert devs[-1] <= 1e-12
        assert devs[0] >= devs[-1]

    def test_shift_sequence_hoelder_bound(self, circle32):
        rng = np.random.default_rng(45)
        g = rng.normal(size=len(circle32.edges))
        dist = geodesic_distances(circle32, 0)
        f_lim = np.zeros(circle32.vertex_count)
        seq = [dist / k for k in range(1, 17)]
        report = weakstar_probe(circle32, seq, f_lim, g, lip_bound=1.0)
        l1g = l1_norm(circle32, g)
        for i, row in enumerate(report.rows):
            assert row["deviation"] <= l1g / (i + 1) * (1 + 1e-9)

    def test_unbounded_sequence_rejected(self, circle32):
        g = np.ones(len(circle32.edges))
        f = geodesic_distances(circle32, 0)
        with pytest.raises(UnboundedSequence):
            weakstar_probe(circle32, [3.0 * f], np.zeros_like(f), g, lip_bound=1.0)


class TestRefinementStudy:
    def test_flat_rect_gap_closes_at_every_level(self):
        atoms = [((0.25, 0.5), 1.0), ((0.75, 0.5), -1.0)]
        report = refinement_study("flat_rect", [4, 8, 12], atoms)
        assert report.passed
        for row in report.rows:
            assert abs(row["gap"]) <= 1e-6 * max(1.0, abs(row["dual"]))

    def test_torus_compact_case(self):
        atoms = [((0.2, 0.2), 1.0), ((0.7, 0.6), -1.0)]
        report = refinement_study("torus", [6, 10], atoms)
        assert report.passed

    def test_icosphere_pole_pair_approaches_continuum(self):
        # snapped endpoints migrate toward the true poles, so the value is
        # recorded per level and only the finest is checked against pi
        atoms = [((0.0, 0.0, 1.0), 1.0), ((0.0, 0.0, -1.0), -1.0)]
        report = refinement_study("icosphere", [0, 1, 2], atoms)
        assert report.passed
        duals = [row["dual"] for row in report.rows]
        assert duals[-1] == pytest.approx(np.pi, rel=0.05)

    def test_projection_helper_kills_divergence(self, ico1):
        rng = np.random.default_rng(46)
        g = rng.normal(size=(len(ico1.triangles), 2))
        projected = project_divergence_free(ico1, g)
        assert np.abs(divergence(ico1, projected)).max() <= 1e-10

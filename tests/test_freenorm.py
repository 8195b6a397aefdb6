import hashlib
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from freeflow import freenorm, netsimplex, ssp
from freeflow.errors import MeshError, SolverFailure, TooManyAtoms
from freeflow.freenorm import (
    CERTIFICATE_TOL,
    FieldSolveParams,
    Molecule,
    beckmann_field,
    beckmann_graph,
    canonicalize,
    dual_lp,
    free_norm,
    molecule_vector,
    transport_oracle,
)
from freeflow.io import molecule_from_dict
from freeflow.mesh import TriMesh, geodesic_distances
from freeflow.primitives import generate_primitive

from conftest import random_molecule


def incidence_apply(mesh, flow):
    out = np.zeros(mesh.vertex_count)
    np.add.at(out, mesh.edges[:, 1], flow)
    np.add.at(out, mesh.edges[:, 0], -flow)
    return out


def brute_force_norm(mesh, molecule):
    """Exponential enumeration over leaf-served transport plans.

    Any vertex plan ships some atom entirely to a single partner; the
    recursion branches on that pair, so it visits an optimal plan.
    """
    weights = {}
    for v, c in molecule.atoms:
        weights[v] = weights.get(v, 0.0) + c
    total = sum(weights.values())
    weights[mesh.base_vertex] = weights.get(mesh.base_vertex, 0.0) - total
    sources = [(v, c) for v, c in weights.items() if c > 1e-15]
    sinks = [(v, -c) for v, c in weights.items() if c < -1e-15]
    d = {v: geodesic_distances(mesh, v) for v, _ in sources}

    def rec(srcs, snks):
        if not srcs or not snks:
            return 0.0
        best = math.inf
        for i, (pv, pm) in enumerate(srcs):
            for j, (qv, qm) in enumerate(snks):
                cost = d[pv][qv]
                if pm <= qm + 1e-15:
                    rest_snks = [
                        (v, m) if k != j else (v, qm - pm)
                        for k, (v, m) in enumerate(snks)
                    ]
                    rest_snks = [(v, m) for v, m in rest_snks if m > 1e-15]
                    rest = rec([s for k, s in enumerate(srcs) if k != i], rest_snks)
                    best = min(best, cost * pm + rest)
                if qm <= pm + 1e-15:
                    rest_srcs = [
                        (v, m) if k != i else (v, pm - qm)
                        for k, (v, m) in enumerate(srcs)
                    ]
                    rest_srcs = [(v, m) for v, m in rest_srcs if m > 1e-15]
                    rest = rec(rest_srcs, [s for k, s in enumerate(snks) if k != j])
                    best = min(best, cost * qm + rest)
        return best

    return rec(sources, sinks)


class TestCanonicalize:
    def test_base_atom_dropped(self):
        assert canonicalize(Molecule(((0, 5.0),)), 0).atoms == ()

    def test_atoms_merged(self):
        mu = canonicalize(Molecule(((4, 1.0), (4, 2.0))), 0)
        assert mu.atoms == ((4, 3.0),)

    def test_cancellation(self):
        mu = canonicalize(Molecule(((4, 1.0), (7, -1.0), (4, -1.0))), 0)
        assert mu.atoms == ((7, -1.0),)


class TestDualLP:
    def test_empty_molecule(self, flat4):
        value, potential = dual_lp(flat4, Molecule(()))
        assert value == 0.0
        assert np.abs(potential).max() == 0.0

    def test_single_atom_is_distance_to_base(self, ico1):
        d = geodesic_distances(ico1, ico1.base_vertex)
        for x in (5, 17, 40):
            value, _ = dual_lp(ico1, Molecule(((x, 1.0),)))
            assert value == pytest.approx(d[x], abs=1e-12)

    def test_dipole_is_pairwise_distance(self, ico1):
        d = ico1.all_pairs_distances()
        for x, y in ((3, 9), (12, 25), (7, 30)):
            value, _ = dual_lp(ico1, Molecule(((x, 1.0), (y, -1.0))))
            assert value == pytest.approx(d[x, y], abs=1e-12)

    def test_potential_is_feasible_and_attains_value(self, annulus):
        rng = np.random.default_rng(31)
        for _ in range(10):
            mu = random_molecule(annulus, rng)
            value, f = dual_lp(annulus, mu)
            assert f[annulus.base_vertex] == 0.0
            u, v = annulus.edges[:, 0], annulus.edges[:, 1]
            slopes = np.abs(f[v] - f[u]) / annulus.edge_lengths
            assert slopes.max() <= 1.0 + 1e-9
            objective = sum(c * f[x] for x, c in mu.atoms)
            assert objective == pytest.approx(value, abs=1e-12)


class TestRouteAgreement:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_perturbed_lengths(self, flat4, ico1, data):
        """Dual, graph primal and oracle agree, at the acceptance
        tolerances, on random edge-length perturbations of up to 5%."""
        base = data.draw(st.sampled_from([flat4, ico1]))
        factors = data.draw(
            arrays(float, len(base.edges), elements=st.floats(0.95, 1.05))
        )
        mesh = TriMesh(
            base.triangles,
            dict(zip(map(tuple, base.edges.tolist()), base.edge_lengths * factors)),
        )
        atom = st.tuples(
            st.integers(0, mesh.vertex_count - 1),
            st.floats(0.1, 3.0),
            st.sampled_from([-1.0, 1.0]),
        )
        atoms = data.draw(st.lists(atom, min_size=1, max_size=8))
        mu = Molecule(tuple((v, sign * c) for v, c, sign in atoms))

        dual, f = dual_lp(mesh, mu)
        graph, _ = beckmann_graph(mesh, mu)
        assert graph - dual <= 1e-6 * max(1.0, abs(dual))
        assert abs(dual - transport_oracle(mesh, mu)) <= 1e-9
        u, v = mesh.edges[:, 0], mesh.edges[:, 1]
        assert (np.abs(f[v] - f[u]) / mesh.edge_lengths).max() <= 1.0 + 1e-9


class TestTransportOracle:
    def test_two_positive_atoms(self, flat4):
        d = geodesic_distances(flat4, 0)
        value = transport_oracle(flat4, Molecule(((7, 1.0), (22, 1.0))))
        assert value == pytest.approx(d[7] + d[22], abs=1e-12)

    def test_homogeneity(self, flat4):
        d = geodesic_distances(flat4, 0)
        value = transport_oracle(flat4, Molecule(((13, 2.0),)))
        assert value == pytest.approx(2.0 * d[13], abs=1e-12)

    def test_symmetry_under_negation(self, ico1):
        rng = np.random.default_rng(32)
        mu = random_molecule(ico1, rng, max_atoms=5)
        assert transport_oracle(ico1, mu) == pytest.approx(
            transport_oracle(ico1, mu.scale(-1.0)), abs=1e-12
        )

    def test_atom_bound(self, flat4):
        atoms = tuple((v, 1.0) for v in range(1, 14))
        with pytest.raises(TooManyAtoms):
            transport_oracle(flat4, Molecule(atoms))

    def test_against_brute_force(self, flat4, circle32):
        rng = np.random.default_rng(33)
        for mesh in (flat4, circle32):
            for _ in range(15):
                mu = random_molecule(mesh, rng, max_atoms=4)
                expected = brute_force_norm(mesh, mu)
                assert transport_oracle(mesh, mu) == pytest.approx(
                    expected, abs=1e-9
                )


class TestAtomValidation:
    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_molecule_rejects_non_finite_coefficients(self, coeff):
        with pytest.raises(MeshError, match="non-finite"):
            Molecule(((3, 1.0), (7, coeff)))

    def test_molecule_json_rejects_nan(self):
        data = json.loads('{"atoms": [[3, 1.0], [7, NaN]]}')
        with pytest.raises(MeshError, match="non-finite"):
            molecule_from_dict(data)

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_transport_oracle_checks_vertex_range(self, flat4, offset):
        vertex = offset if offset < 0 else flat4.vertex_count
        with pytest.raises(MeshError, match="out of range"):
            transport_oracle(flat4, Molecule(((3, 1.0), (vertex, -1.0))))


class TestBeckmannGraph:
    def test_interval_path_flow(self):
        m = generate_primitive("interval_graph", n=2, total_length=2.0)
        value, flow = beckmann_graph(m, Molecule(((2, 1.0),)))
        assert value == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(flow, [1.0, 1.0], atol=1e-12)

    def test_circle_antipode_value(self):
        m = generate_primitive("circle_graph", n=4, total_length=2 * math.pi)
        value, _ = beckmann_graph(m, Molecule(((2, 1.0),)))
        assert value == pytest.approx(math.pi, abs=1e-12)

    def test_empty_molecule(self, flat4):
        value, flow = beckmann_graph(flat4, Molecule(()))
        assert value == 0.0
        assert np.abs(flow).max() <= 1e-12

    def test_flow_feasibility(self, torus8):
        rng = np.random.default_rng(34)
        for _ in range(10):
            mu = random_molecule(torus8, rng)
            _, flow = beckmann_graph(torus8, mu)
            b = molecule_vector(torus8, mu)
            assert np.abs(incidence_apply(torus8, flow) - b).max() <= 1e-9

    @pytest.mark.parametrize(
        "fixture, pins",
        [
            (
                "flat4",
                (
                    "92716c12dd4d4c8503765b3e98365d77db828a403fef358b34dc0551056b5fd1",
                    "ec747b3fe2c61a915f3303462ff49b84d10cb576ef8578458e4bc5eaa8f7e273",
                    "c58a2bcf7174f761d946d12ad987ea185d7e5702139f6863e5d1aff87796c768",
                ),
            ),
            (
                "ico1",
                (
                    "46ddd622777d873158a04d2a6b47a1ef38b97a882a4f145cd3748b40022072de",
                    "fe6799ba2499a644e4cb5c25260bab7e56900de3ea7b3577639a62d4781ecd26",
                    "b19e9dd1bd04f57ca14e5d4558665ba947b821bcb2fc76b787166da42f7c4a15",
                ),
            ),
            (
                "annulus",
                (
                    "419cc2f528d6cbcb9488c609b7dccc1f6d20b97001e99387f7f0216033f0b34d",
                    "0b2355c32c5f52bf343dc0d2ffaa6a9b0951f9ee9a47fc8d4d5f8c93abdcd08c",
                    "18c62e0d1c606ec972a3ea0d862d51f31e0414f69135d19364d4f585da631525",
                ),
            ),
            (
                "torus",
                (
                    "1dd68d9361fa2fa894c5b7e429b24ecc9c6bf859f38c8d4844af1cf810d22c7f",
                    "070c029317cca1f40ba371013cc2727ae77db13443bbf7a40f4eafc02644e3d2",
                    "a76e02782ccc68cf44c0b7921b30e6781c68cf115d65483950723772d1b72963",
                ),
            ),
            (
                "poincare",
                (
                    "f3a1f01f631991032cfc5a9a63e042f49ee5f79e525b1aeb3b707e6152a588d9",
                    "3b36d4021b0984300f0ddd9d3d6e825ba028e36e1420b6d14fd3635aa65664a2",
                    "4bea4332275ba5a1779c3629c778dfbebc4a2a899d943018b0439301fa5d9c87",
                ),
            ),
            (
                "circle32",
                (
                    "c6c89e619249bec70d3e62dc7de41fadd6766d24562bbce9ad8bbed4133d5afc",
                    "17eeedd6efd8caf0b1c66ec5e2f27565939bcb5ced45292587c4503767075150",
                    "55e0c9d8d128353401abcbe79978ca9d5cf8b40b7d12111230c3072bd1c3cbc1",
                ),
            ),
            (
                "interval10",
                (
                    "d67d344e3ac3d2e528692de1305941f785a53460d2146bb9141513e4dbe8ac19",
                    "5d3d203c30936576f4c54ad400a848a22757a17bf835a982c24f4923ebd092c7",
                    "ce01575cd3ee2e553cd20556d084b27814bc45a9ebb71f70dfa3101cd732e4a8",
                ),
            ),
        ],
    )
    def test_flows_and_values_are_pinned(self, request, fixture, pins):
        # sha256 of the flow bytes and the value's repr, so any change to
        # the pivot sequence or to the potentials' rounding shows
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(41)
        for pin in pins:
            mu = random_molecule(mesh, rng, max_atoms=min(12, mesh.vertex_count - 1))
            value, flow = beckmann_graph(mesh, mu)
            payload = flow.tobytes() + repr(value).encode()
            assert hashlib.sha256(payload).hexdigest() == pin

    def test_weak_duality_always(self, annulus):
        rng = np.random.default_rng(35)
        for _ in range(10):
            mu = random_molecule(annulus, rng)
            dual, _ = dual_lp(annulus, mu)
            primal, _ = beckmann_graph(annulus, mu)
            assert dual <= primal + 1e-9

    def test_optimal_flow_difference_is_divergence_free(self, flat4):
        # two optimal flows from independent solvers differ by a kernel
        # element of the incidence map (the discrete divergence-free space)
        rng = np.random.default_rng(36)
        for _ in range(5):
            mu = random_molecule(flat4, rng)
            b = molecule_vector(flat4, mu)
            flow_ns, _ = netsimplex.min_cost_flow(flat4, b)
            flow_ssp, _ = ssp.min_cost_flow(flat4, b)
            diff = incidence_apply(flat4, flow_ns - flow_ssp)
            assert np.abs(diff).max() <= 1e-9


def _bump_one_flow_entry(flow, potential):
    flow = flow.copy()
    flow[3] += 1e-3
    return flow, potential


class TestGraphCertificate:
    @pytest.mark.parametrize(
        "fixture", ["flat4", "ico1", "annulus", "torus8", "circle32", "interval10"]
    )
    def test_solver_pairs_are_certified(self, request, fixture):
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(45)
        for _ in range(5):
            b = molecule_vector(mesh, random_molecule(mesh, rng))
            for solver in (ssp, netsimplex):
                numbers = freenorm.certify_graph_optimum(
                    mesh, b, *solver.min_cost_flow(mesh, b)
                )
                worst = max(numbers["residual"], numbers["slack"], abs(numbers["gap"]))
                assert worst <= CERTIFICATE_TOL / 100

    def test_simplex_potentials_carry_no_artificial_roundoff(self, monkeypatch):
        # summed without the artificial cost, the potentials' slack is
        # roundoff of the edge lengths, not of the cost of 4 * total length
        mesh = generate_primitive("icosphere", level=3)
        certify = freenorm.certify_graph_optimum
        slacks = []

        def recording_certify(*args):
            numbers = certify(*args)
            slacks.append(numbers["slack"])
            return numbers

        monkeypatch.setattr(freenorm, "certify_graph_optimum", recording_certify)
        rng = np.random.default_rng(46)
        for _ in range(3):
            beckmann_graph(mesh, random_molecule(mesh, rng, max_atoms=50))
        assert len(slacks) == 3
        assert max(slacks) <= 1e-13

    @pytest.mark.parametrize(
        "route, solver", [(dual_lp, "ssp"), (beckmann_graph, "netsimplex")]
    )
    @pytest.mark.parametrize(
        "defect, spoil",
        [
            ("residual", _bump_one_flow_entry),
            ("slack", lambda flow, potential: (flow, 1.01 * potential)),
            # feasible on both sides, but the zero potential attains nothing
            ("gap", lambda flow, potential: (flow, np.zeros_like(potential))),
        ],
    )
    def test_spoiled_solution_fails(self, flat4, monkeypatch, route, solver, defect,
                                    spoil):
        module = getattr(freenorm, solver)
        solve = module.min_cost_flow
        monkeypatch.setattr(module, "min_cost_flow", lambda mesh, b: spoil(*solve(mesh, b)))
        with pytest.raises(SolverFailure, match="certificate") as info:
            route(flat4, Molecule(((7, 1.0), (19, -2.0))))
        assert abs(info.value.diagnostics[defect]) > CERTIFICATE_TOL

    @pytest.mark.parametrize(
        "route, solver", [(dual_lp, "ssp"), (beckmann_graph, "netsimplex")]
    )
    def test_nan_potential_fails(self, flat4, monkeypatch, route, solver):
        # NaN compares false against the tolerance, so the check must
        # pass only defects that are provably small
        def spoil(flow, potential):
            potential = potential.copy()
            potential[5] = np.nan
            return flow, potential

        module = getattr(freenorm, solver)
        solve = module.min_cost_flow
        monkeypatch.setattr(module, "min_cost_flow", lambda mesh, b: spoil(*solve(mesh, b)))
        with pytest.raises(SolverFailure, match="certificate") as info:
            route(flat4, Molecule(((7, 1.0), (19, -2.0))))
        numbers = info.value.diagnostics
        assert numbers["residual"] <= CERTIFICATE_TOL
        assert math.isnan(numbers["slack"]) and math.isnan(numbers["gap"])


class TestNormAxioms:
    def test_homogeneity(self, ico1):
        rng = np.random.default_rng(37)
        for _ in range(10):
            mu = random_molecule(ico1, rng)
            value, _ = dual_lp(ico1, mu)
            scaled, _ = dual_lp(ico1, mu.scale(-2.5))
            assert scaled == pytest.approx(2.5 * value, abs=1e-9)

    def test_triangle_inequality(self, torus8):
        rng = np.random.default_rng(38)
        for _ in range(10):
            mu = random_molecule(torus8, rng)
            nu = random_molecule(torus8, rng)
            both, _ = dual_lp(torus8, canonicalize(mu + nu, torus8.base_vertex))
            a, _ = dual_lp(torus8, mu)
            b, _ = dual_lp(torus8, nu)
            assert both <= a + b + 1e-9


class TestSuccessiveShortestPaths:
    def test_phases_batch_augmentations(self, monkeypatch):
        # one augmentation per Dijkstra run needs a run per sink at least
        calls = []
        search = ssp.dijkstra

        def counting_dijkstra(*args, **kwargs):
            calls.append(None)
            return search(*args, **kwargs)

        monkeypatch.setattr(ssp, "dijkstra", counting_dijkstra)
        mesh = generate_primitive("torus", nx=14)
        rng = np.random.default_rng(52)
        sinks = 0
        for _ in range(4):
            verts = rng.choice(np.arange(1, mesh.vertex_count), size=50, replace=False)
            mu = canonicalize(
                Molecule(tuple((int(v), c) for v, c in zip(verts, rng.uniform(-3, 3, 50)))),
                mesh.base_vertex,
            )
            sinks += int((molecule_vector(mesh, mu) > 0).sum())
            dual_lp(mesh, mu)
        # 86 runs for 106 sinks; one augmentation per run needs 324
        assert len(calls) < sinks

    def test_paths_over_emptied_cancellation_arcs_wait(self, flat4):
        # a cancellation arc pushed to zero flow turns forward at reduced
        # cost 2 * length; a later path over it in the same phase would
        # route mass along a non-tight arc and fail the certificate
        rng = np.random.default_rng(44)
        for _ in range(10):
            b = molecule_vector(flat4, random_molecule(flat4, rng, max_atoms=12))
            numbers = freenorm.certify_graph_optimum(flat4, b, *ssp.min_cost_flow(flat4, b))
            assert max(numbers["slack"], abs(numbers["gap"])) <= CERTIFICATE_TOL / 100

    @pytest.mark.parametrize("solver", [ssp, netsimplex])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_imbalance_is_rejected(self, flat4, solver, bad):
        b = np.zeros(flat4.vertex_count)
        b[[3, 9]] = 1.0, -1.0
        b[12] = bad
        with pytest.raises(SolverFailure, match="non-finite"):
            solver.min_cost_flow(flat4, b)


class TestSolverRobustness:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e4])
    def test_duality_across_length_scales(self, scale):
        mesh = generate_primitive("flat_rect", width=scale, height=scale, nx=6)
        rng = np.random.default_rng(50)
        verts = rng.choice(np.arange(1, mesh.vertex_count), size=5, replace=False)
        mu = canonicalize(
            Molecule(tuple((int(v), c) for v, c in zip(verts, rng.uniform(-3, 3, 5)))),
            mesh.base_vertex,
        )
        dual, _ = dual_lp(mesh, mu)
        graph, _ = beckmann_graph(mesh, mu)
        assert abs(dual - graph) <= 1e-9 * abs(dual)

    def test_fifty_atom_molecule(self):
        mesh = generate_primitive("torus", nx=14)
        rng = np.random.default_rng(51)
        verts = rng.choice(np.arange(1, mesh.vertex_count), size=50, replace=False)
        mu = canonicalize(
            Molecule(tuple((int(v), c) for v, c in zip(verts, rng.uniform(-3, 3, 50)))),
            mesh.base_vertex,
        )
        dual, _ = dual_lp(mesh, mu)
        graph, _ = beckmann_graph(mesh, mu)
        assert abs(dual - graph) <= 1e-9 * max(1.0, abs(dual))

    def test_graph_primal_runtime_budget_on_four_thousand_vertices(self):
        mesh = generate_primitive("flat_rect", nx=64)
        assert mesh.vertex_count == 4225
        rng = np.random.default_rng(52)
        verts = rng.choice(np.arange(1, mesh.vertex_count), size=50, replace=False)
        mu = canonicalize(
            Molecule(tuple((int(v), c) for v, c in zip(verts, rng.uniform(-3, 3, 50)))),
            mesh.base_vertex,
        )
        start = time.monotonic()
        graph, _ = beckmann_graph(mesh, mu)
        assert time.monotonic() - start < 10.0
        dual, _ = dual_lp(mesh, mu)
        assert abs(dual - graph) <= 1e-6 * max(1.0, abs(dual))

    def test_torus_dipole_field_matches_wraparound_euclid(self):
        # diagonal dipole: graph, field, and flat-torus distance coincide
        mesh = generate_primitive("torus", nx=14)
        mu = Molecule(((30, 1.0), (150, -1.0)))
        dual, _ = dual_lp(mesh, mu)
        value, _, _ = beckmann_field(
            mesh, mu, params=FieldSolveParams(max_iter=3000)
        )
        pos = mesh.aux["positions"]
        diff = np.abs(pos[30] - pos[150])
        diff = np.minimum(diff, 1.0 - diff)
        lower = float(np.hypot(*diff))
        assert lower - 1e-6 <= value <= dual + 1e-6
        assert value == pytest.approx(lower, rel=1e-4)


class TestBeckmannField:
    def test_empty_molecule_zero_field(self, flat4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the bound must not divide 0 by 0
            value, g, diag = beckmann_field(flat4, Molecule(()))
        assert value == 0.0
        assert np.abs(g).max() == 0.0
        assert diag["lower"] == diag["upper"] == 0.0

    def test_requires_surface(self, interval10):
        with pytest.raises(MeshError):
            beckmann_field(interval10, Molecule(((3, 1.0),)))

    def test_field_value_consistent_with_graph_scale(self, flat4):
        mu = Molecule(((24, 1.0),))
        graph_value, _ = beckmann_graph(flat4, mu)
        value, g, _ = beckmann_field(
            flat4, mu, params=FieldSolveParams(max_iter=2000)
        )
        # face flows may cut corners, never beat the straight line
        d_euclid = np.linalg.norm(flat4.aux["positions"][24])
        assert d_euclid - 1e-6 <= value <= graph_value + 1e-6

    @pytest.mark.parametrize(
        "fixture, pin",
        [
            pytest.param(fixture, pin, id=fixture)
            for fixture, pin in (
                ("flat4", "d1251e02bab821adb0c6007111cfff23c2dba7f6d2e74a88bf078fa1f7bb9b75"),
                ("ico1", "47afd0e4404c41979dd1c14f41def04f6897a831725b958e48087882bb0461d7"),
                ("annulus", "1c425350b993ada198b951396604db7f471bd36362076d9e99a4e1fdd5cafa1f"),
                ("torus", "5b14ba022ad2bf9bc9a7a6f7fb6f1c1ab8c680143597386a9054882fcf53aa98"),
                ("poincare", "ab2e5d213424b65cd913c75e510bf8fab496d9ff18923691a8a07bdedf17af00"),
            )
        ],
    )
    def test_iterates_are_pinned(self, request, fixture, pin):
        # sha256 of the field bytes, the value's repr and the iteration
        # count after at most 200 iterations, so any change to the
        # projection, the shrinkage, the penalty schedule or the stop rule
        # shows
        mesh = request.getfixturevalue(fixture)
        mu = random_molecule(mesh, np.random.default_rng(47))
        value, g, diag = beckmann_field(mesh, mu, FieldSolveParams(max_iter=200))
        payload = g.tobytes() + repr(value).encode() + repr(diag["iterations"]).encode()
        assert hashlib.sha256(payload).hexdigest() == pin

    @pytest.mark.parametrize("fixture", ["flat4", "ico1", "annulus", "torus", "poincare"])
    def test_certified_bracket(self, request, fixture):
        # weak duality: the lower bound never passes the value or the graph
        # norm, and a solve that stops before the cap has closed the gap
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(61)
        params = FieldSolveParams()
        for _ in range(2):
            mu = random_molecule(mesh, rng)
            value, _, diag = beckmann_field(mesh, mu, params=params)
            dual, _ = dual_lp(mesh, mu)
            assert diag["upper"] == value
            assert diag["lower"] <= value
            assert diag["lower"] <= dual + 1e-6 * max(1.0, dual)
            if diag["iterations"] < params.max_iter:
                assert value - diag["lower"] <= params.tol * max(1.0, value)

    def test_divergence_feasibility(self, flat4):
        mu = Molecule(((18, 1.5), (7, -0.5)))
        params = FieldSolveParams(max_iter=1500, tol=1e-6)
        _, g, diag = beckmann_field(flat4, mu, params=params)
        from freeflow.calculus import divergence

        b = molecule_vector(flat4, mu)
        assert np.abs(divergence(flat4, g) - b).max() <= params.tol


class TestFreeNormReport:
    def test_all_methods(self, flat4):
        report = free_norm(flat4, Molecule(((12, 1.0), (20, -2.0))))
        assert report.dual_value is not None
        assert report.primal_graph_value is not None
        assert report.primal_field_value is not None
        assert abs(report.duality_gap) <= 1e-6 * max(1.0, report.dual_value)
        assert report.diagnostics["flow_non_unique"] is True

    def test_single_atom_report_on_icosphere(self, ico1):
        d = geodesic_distances(ico1, ico1.base_vertex)
        report = free_norm(ico1, Molecule(((25, 1.0),)))
        assert report.dual_value == pytest.approx(d[25], abs=1e-9)
        assert report.primal_graph_value == pytest.approx(d[25], abs=1e-9)
        # face flows genuinely cut corners relative to the edge graph, so
        # the field value sits below the graph distance but near it
        assert report.primal_field_value <= report.primal_graph_value + 1e-6
        assert report.primal_field_value == pytest.approx(d[25], rel=0.10)

    @pytest.mark.parametrize("fixture", ["flat4", "ico1", "torus"])
    def test_field_lower_bound_below_graph_norm(self, request, fixture):
        mesh = request.getfixturevalue(fixture)
        mu = random_molecule(mesh, np.random.default_rng(62))
        report = free_norm(mesh, mu)
        lower = report.diagnostics["field"]["lower"]
        assert 0.0 < lower <= report.primal_field_value
        assert lower <= report.dual_value + 1e-6 * max(1.0, report.dual_value)

    @pytest.mark.parametrize("fixture", ["flat4", "ico1", "torus"])
    def test_field_lower_bound_above_graph_norm_fails(self, request, monkeypatch,
                                                      fixture):
        mesh = request.getfixturevalue(fixture)
        mu = random_molecule(mesh, np.random.default_rng(62))
        dual, _ = dual_lp(mesh, mu)
        solve = freenorm.beckmann_field

        def overshooting(*args, **kwargs):
            value, g, diag = solve(*args, **kwargs)
            return value, g, {**diag, "lower": dual * 1.01 + 1e-3}

        monkeypatch.setattr(freenorm, "beckmann_field", overshooting)
        with pytest.raises(SolverFailure) as info:
            free_norm(mesh, mu)
        assert info.value.diagnostics == {
            "field_lower": dual * 1.01 + 1e-3,
            "dual_value": dual,
        }

    def test_dual_only(self, circle32):
        report = free_norm(circle32, Molecule(((5, 1.0),)), method="dual")
        assert report.primal_graph_value is None
        assert report.duality_gap is None

    def test_atom_out_of_range(self, flat4):
        with pytest.raises(MeshError):
            free_norm(flat4, Molecule(((10000, 1.0),)), method="dual")

    def test_dual_runtime_budget_on_thousand_vertices(self):
        mesh = generate_primitive("flat_rect", nx=32)
        assert mesh.vertex_count == 1089
        mu = Molecule(((500, 1.0), (700, -1.5), (45, 2.0)))
        start = time.monotonic()
        free_norm(mesh, mu, method="dual")
        assert time.monotonic() - start < 10.0

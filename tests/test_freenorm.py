import ast
import dataclasses
import hashlib
import inspect
import json
import math
import random
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from freeflow import calculus, freenorm, netsimplex, ssp, transport
from freeflow.cli import main
from freeflow.errors import MeshError, NotConverged, ParseError, SolverFailure, TooManyAtoms
from freeflow.freenorm import (
    CERTIFICATE_TOL,
    FieldSolveParams,
    Molecule,
    beckmann_field,
    beckmann_graph,
    canonicalize,
    check_field_bracket,
    dual_lp,
    free_norm,
    molecule_vector,
    transport_oracle,
)
from freeflow.io import molecule_from_dict
from freeflow.mesh import TriMesh, geodesic_distances
from freeflow.primitives import generate_primitive

from conftest import from_lengths, random_molecule, two_icospheres


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

    def test_merged_overflow_rejected(self):
        # each coefficient is finite; only their sum overflows
        with pytest.raises(MeshError, match="molecule has non-finite coefficients"):
            canonicalize(Molecule(((1, 1e308), (1, 1e308))))
        mu = canonicalize(Molecule(((5, 1e308), (2, -1e308), (5, -1e308))), 0)
        assert mu == Molecule(((2, -1e308),))
        assert [(type(v), type(c)) for v, c in mu.atoms] == [(int, float)]

    @pytest.mark.parametrize(
        "vertex", [1.9, math.nan, math.inf, Fraction(3, 2), Decimal("2.5"), "3"]
    )
    def test_non_integral_vertex_id_rejected(self, vertex):
        # 1.9 used to be truncated to vertex 1, and nan escaped as a
        # ValueError; a Fraction or a Decimal was truncated in the cast,
        # and "3" was parsed to vertex 3
        with pytest.raises(MeshError, match="is not an integer"):
            Molecule(((vertex, 1.0),))

    def test_vertex_id_beyond_int64_rejected(self):
        # used to escape as a raw OverflowError
        with pytest.raises(MeshError, match="beyond the int64 range"):
            Molecule(((2**70, 1.0),))

    def test_integer_vertex_ids_kept(self):
        mu = Molecule(((np.int64(4), 1.0), (np.int32(7), -2), (3.0, 0.5), (True, 1.0)))
        assert mu.atoms == ((4, 1.0), (7, -2.0), (3, 0.5), (1, 1.0))
        assert all(type(v) is int for v, _ in mu.atoms)
        # beyond int64 the JSON reader reports it, as it does for mesh ids
        with pytest.raises(ParseError):
            molecule_from_dict({"atoms": [[2**70, 1.0]]})


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
        mesh = TriMesh(base.triangles, base.edges, base.edge_lengths * factors)
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

    def test_chord_on_no_face(self, flat8_chord):
        # the chord 0 - 80 of length 0.5 beats every grid path (length 2)
        # between the corners, so the optimal flow runs along it
        chord = int(flat8_chord.edge_ids(0, 80))
        for mu, expected in [
            (Molecule(((80, 1.0),)), 0.5),
            (Molecule(((80, 1.5), (72, 0.5), (8, -0.75), (40, 0.25))), 1.75),
        ]:
            dual, _ = dual_lp(flat8_chord, mu)
            graph, flow = beckmann_graph(flat8_chord, mu)
            assert dual == graph == expected
            assert transport_oracle(flat8_chord, mu) == expected
            assert flow[chord] == 1.0


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

    @pytest.mark.parametrize("atoms", [(), ((0, 2.5),)], ids=["empty", "base_only"])
    def test_empty_molecule(self, flat4, atoms):
        # no source and no sink after canonicalization: an empty instance
        assert flat4.base_vertex == 0
        assert transport_oracle(flat4, Molecule(atoms)) == 0.0

    def test_against_brute_force(self, flat4, circle32):
        rng = np.random.default_rng(33)
        for mesh in (flat4, circle32):
            for _ in range(15):
                mu = random_molecule(mesh, rng, max_atoms=4)
                expected = brute_force_norm(mesh, mu)
                assert transport_oracle(mesh, mu) == pytest.approx(
                    expected, abs=1e-9
                )

    def test_fractions_are_pinned(self, monkeypatch):
        # 240 instances of 1-12 atoms on the five surfaces of the
        # exact_small benchmark; sha256 over the reprs of the Fractions
        # that the exact solver returns to the oracle
        values = []
        solve = transport.solve_transportation

        def recording_solve(*args):
            values.append(solve(*args))
            return values[-1]

        monkeypatch.setattr(freenorm, "solve_transportation", recording_solve)
        rng = np.random.default_rng(1601)
        for kind, params in [
            ("annulus", {"n_angular": 16, "n_radial": 4}),
            ("poincare_disk_patch", {"n_angular": 16, "n_radial": 5}),
            ("torus", {"nx": 12}),
            ("icosphere", {"level": 2}),
            ("flat_rect", {"nx": 12}),
        ]:
            mesh = generate_primitive(kind, **params)
            for n in list(range(1, 13)) * 4:
                verts = rng.choice(np.arange(1, mesh.vertex_count), size=n, replace=False)
                coeffs = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
                transport_oracle(mesh, Molecule(tuple(zip(verts.tolist(), coeffs.tolist()))))
        assert len(values) == 240
        assert all(type(v) is Fraction for v in values)
        digest = hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()
        assert digest == "6e48ead1445a5026de29ff5b5f2bacb12bcad14e6d93d3bc5c9421b0df173f8d"


def _degenerate_instances():
    """400 transportation instances up to 7x7 whose masses are the row and
    column sums of a random 0..2 matrix, so zero masses and zero-flow
    northwest cells are common, and whose costs in {0, 1, 2} tie for both
    of Bland's rules."""
    rng = random.Random(30)
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        flow = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        cost = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
        yield [sum(row) for row in flow], [sum(col) for col in zip(*flow)], cost


class TestTransportationSolver:
    @pytest.mark.parametrize(
        "supplies, demands, cost, value",
        [
            # the northwest corner leaves zero flow on basis cells (1, 0)
            # and (2, 1)
            ([1, 1, 2], [1, 1, 2], [[4, 1, 2], [1, 5, 3], [2, 3, 0.5]],
             Fraction(3)),
            # each of the three pivots has two losing cells at the minimum
            ([2, 3, 1], [1, 2, 3], [[5, 1, 3], [4, 5, 1], [1, 7, 7]],
             Fraction(6)),
            ([6], [1, 2, 3], [[0.25, 1.5, 2]], Fraction(37, 4)),
            # float costs are dyadic rationals and are taken exactly
            ([1, 2, 3], [6], [[0.1], [0.2], [0.3]],
             Fraction(50440315826549555, 36028797018963968)),
            ([0, 2, 1], [1, 0, 2], [[1, 2, 3], [4, 0.5, 1], [2, 7, 0]],
             Fraction(4)),
            ([Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2)] * 2,
             [[1, 2], [3, 1]], Fraction(4, 3)),
            ([], [], [], Fraction(0)),
            ([], [0, 0], [], Fraction(0)),
        ],
        ids=["northwest_zero_cells", "leaving_tie", "one_row", "one_column",
             "zero_masses", "fraction_masses", "empty", "no_rows"],
    )
    def test_values_are_pinned(self, supplies, demands, cost, value):
        result = transport.solve_transportation(supplies, demands, cost)
        assert type(result) is Fraction
        assert result == value

    def test_degenerate_values_are_pinned(self):
        values = [transport.solve_transportation(*instance)
                  for instance in _degenerate_instances()]
        assert all(type(v) is Fraction for v in values)
        digest = hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()
        assert digest == "b2ee16a37f22a518da5a4584bf93a9d49b70d886f486137d61a87d42ae712b6e"

    def test_degenerate_pivots_are_pinned(self, monkeypatch):
        # the optimal value is unique, so only the leaving cells show
        # Bland's rule: the one min over cells, recorded through the
        # module's global name; the other mins are over integer masses
        leaving = []

        def recorded_min(*args, **kwargs):
            result = min(*args, **kwargs)
            if type(result) is tuple:
                leaving[-1].append(result)
            return result

        monkeypatch.setattr(transport, "min", recorded_min, raising=False)
        for instance in _degenerate_instances():
            leaving.append([])
            transport.solve_transportation(*instance)
        assert sum(map(len, leaving)) == 1695
        digest = hashlib.sha256("\n".join(map(repr, leaving)).encode()).hexdigest()
        assert digest == "0f3d88ff8abb6e9a6badd7932e975be1be627f5fcab2c1339d71b8993b245835"

    @pytest.mark.parametrize(
        "supplies, demands, message",
        [
            ([1, 2], [2], "transportation instance is not balanced"),
            ([1, -1], [0], "negative supply or demand"),
        ],
        ids=["unbalanced", "negative"],
    )
    def test_bad_masses_are_solver_failures(self, supplies, demands, message):
        cost = [[1.0] * len(demands) for _ in supplies]
        with pytest.raises(SolverFailure) as info:
            transport.solve_transportation(supplies, demands, cost)
        assert str(info.value) == message

    def test_oracle_shares_no_code_with_the_routes(self):
        # the oracle checks the routes, so it may use only the standard
        # library and the package's error types
        tree = ast.parse(Path(transport.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert ".errors" in imported
        for name in imported - {".errors", "freeflow.errors"}:
            assert name.split(".")[0] not in {"", "freeflow", "numpy", "scipy"}


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
                    "7c543db58daf108e51dfc40fdfff143ca29cf5295a2fee83d58d255529976553",
                    "b6d947494df1250e14fad85a284bc885a1a4a525d3c13d9383d33b622054aefe",
                    "c6f9b405058df7ab22ba3056a92c5c483e0cde11cf3aabb1e1cbce04ded1c1e1",
                ),
            ),
            (
                "ico1",
                (
                    "64d5fdc8d23e0ce1047614ed336e60451533128bd88afe05eaac3007e9b496c3",
                    "6d339bda120e318652cfd64dec6ed29577e9497dcb51f915634512e1e568ecaa",
                    "953a8ee19a1c1c8b2af97c349c0d99f81943f0a9b113a3edd045621082524d6c",
                ),
            ),
            (
                "annulus",
                (
                    "d483f5f8cadcb0ce7de7427cbdb8fe2027bc31e7e6394547340ec697ce2bdefc",
                    "f5f4b7eeb716547cbde1cbdacbbd0b4baa49c467f9499e87288548bf79b7bff3",
                    "ee321cf40d59b83204dc4ce1181662e252f1285467fbe4e9d56e873f78fc772e",
                ),
            ),
            (
                "torus",
                (
                    "b5a6fe7f1d4fa544a8df8a8bfec88e95df2274f85b50bf151fdfe454d23e6cb0",
                    "3f0fe4e8b66d1cd86e2a9faeecc5f2c081c42cb255b74f0be88ed1b7131556af",
                    "264ad3aabd84c592737952f32934bf43ca58e0e54e08870d71139e2e63e86996",
                ),
            ),
            (
                "poincare",
                (
                    "f40a5e958ff488b0fccc6ef32e28b5ad931fdfe98b544ec0239e1ce84c1e45fc",
                    "ea52dd4396bfea8d7ebb944d70fdc9ddeaafe66fdb7b0bc0b94849c67ea7bfce",
                    "a82a4dac3b6d00faced4e99da7d98e989add35b1c8246a8c0b9040e880868d14",
                ),
            ),
            (
                "circle32",
                (
                    "c5931fdbaaee04f31be8f43858f95c270622aa13975f04cdfdd7f639c965e456",
                    "bb16b5943e0dec700dee11a26538536b4043a884d181ec5f430e58972d677575",
                    "d2cdd6609640bde873be7e92fb0108e3871a5bdaf299548c66ff4e9a03713b32",
                ),
            ),
            (
                "interval10",
                (
                    "492251832d3d77d544d04358f810aebd97072a55c4b2570fc4a705125e1997c9",
                    "5d3d203c30936576f4c54ad400a848a22757a17bf835a982c24f4923ebd092c7",
                    "99378a09ed119eb626a2fafbdf4e0473101fcd45ae620948da5b3ba1ce42f6a6",
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

    @pytest.mark.parametrize(
        "kind, params, seed, pin",
        [
            (
                "flat_rect",
                {"nx": 32},
                53,
                "fff35e667952fe6a78f72bb1b3b4f4d37db3cc7fc4cc100f2f4b747a248dca9c",
            ),
            (
                "icosphere",
                {"level": 3},
                54,
                "117e1c28ef8d2ed9c954a16c6b5fc81439b4fa79a4f30639f0081b27981bf7c4",
            ),
        ],
        ids=["flat_rect", "icosphere"],
    )
    def test_fifty_atom_flows_are_pinned(self, kind, params, seed, pin):
        # 50 atoms on tables of 7361 and 4482 arcs, solved in 1114 and 514
        # pivots from 24 and 14 pricing passes; sha256 of the simplex's
        # flow and potential
        mesh = generate_primitive(kind, **params)
        rng = np.random.default_rng(seed)
        verts = rng.choice(np.arange(1, mesh.vertex_count), size=50, replace=False)
        mu = canonicalize(
            Molecule(tuple((int(v), c) for v, c in zip(verts, rng.uniform(-3, 3, 50)))),
            mesh.base_vertex,
        )
        flow, potential = netsimplex.min_cost_flow(mesh, molecule_vector(mesh, mu))
        payload = flow.tobytes() + potential.tobytes()
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


def assert_simplex_matches_ssp(mesh, b):
    """The simplex pair certifies and its value is the SSP value."""
    flow, potential = netsimplex.min_cost_flow(mesh, b)
    numbers = freenorm.certify_graph_optimum(mesh, b, flow, potential)
    assert max(numbers["residual"], numbers["slack"], abs(numbers["gap"])) <= (
        CERTIFICATE_TOL / 100
    )
    reference, _ = ssp.min_cost_flow(mesh, b)
    value = float(np.sum(mesh.edge_lengths * np.abs(flow)))
    assert value == pytest.approx(
        float(np.sum(mesh.edge_lengths * np.abs(reference))), rel=1e-12, abs=1e-15
    )
    return flow, potential


class TestCrashBasis:
    """The simplex starts from the shortest-path forest of the demand
    vertices (b > 0); these cases reach the corners of that start."""

    @pytest.mark.parametrize("fixture", ["flat4", "circle32", "interval10"])
    def test_zero_imbalance(self, request, fixture):
        # no demand vertex: every vertex roots its own tree at zero flow
        mesh = request.getfixturevalue(fixture)
        flow, potential = assert_simplex_matches_ssp(mesh, np.zeros(mesh.vertex_count))
        assert not flow.any() and not potential.any()

    @pytest.mark.parametrize("fixture", ["flat4", "ico1", "annulus", "torus8"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_signed_molecules(self, request, fixture, sign):
        # positive atoms leave the base vertex the only supply vertex;
        # negative ones make it the only demand vertex, one tree's root
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(47)
        for _ in range(5):
            verts = rng.choice(np.arange(1, mesh.vertex_count), size=6, replace=False)
            mu = Molecule(tuple(zip(verts, sign * rng.uniform(0.1, 3.0, size=6))))
            b = molecule_vector(mesh, canonicalize(mu, mesh.base_vertex))
            assert np.flatnonzero(sign * b < 0).tolist() == [mesh.base_vertex]
            assert_simplex_matches_ssp(mesh, b)

    def test_forest_roots_with_zero_net_flow(self):
        # unit path 0 - 1 - 2 - 3 - 4: the trees of the demand vertices 1
        # and 3 each bring exactly their demand, and vertex 2 is at the
        # same distance from both
        mesh = generate_primitive("interval_graph", n=4, total_length=4.0)
        flow, _ = assert_simplex_matches_ssp(mesh, np.array([-1.0, 1.0, 0.0, 1.0, -1.0]))
        assert flow.tolist() == [1.0, 0.0, 0.0, -1.0]

    def test_vertices_at_equal_distance_from_two_demand_vertices(self, flat4, circle32):
        # flat4's vertex 12 sits midway along the row from 10 to 14, and
        # circle32's vertices 0 and 16 midway round from 8 and 24
        b = np.zeros(flat4.vertex_count)
        b[[10, 14, 12]] = 1.0, 1.0, -2.0
        assert_simplex_matches_ssp(flat4, b)
        b = np.zeros(circle32.vertex_count)
        b[[8, 24, 0, 16]] = 1.5, 0.5, -1.0, -1.0
        assert_simplex_matches_ssp(circle32, b)

    @pytest.mark.parametrize("fixture", ["circle32", "interval10"])
    def test_metric_graphs(self, request, fixture):
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(48)
        for _ in range(10):
            assert_simplex_matches_ssp(
                mesh, molecule_vector(mesh, random_molecule(mesh, rng, max_atoms=8))
            )

    def test_parent_and_child_at_equal_distance(self):
        # path 3 - 2 - 1 - 0 with a last edge 1e-20 long: vertex 0 hangs
        # under vertex 1 in the demand vertex 3's tree, at the same
        # floating-point distance, and carries the supply of vertex 0
        mesh = TriMesh([], [(0, 1), (1, 2), (2, 3)], [1e-20, 1.0, 1.0])
        distances = geodesic_distances(mesh, 3)
        assert distances[0] == distances[1] == 2.0
        flow, potential = assert_simplex_matches_ssp(mesh, np.array([-1.0, 0.0, 0.0, 1.0]))
        assert flow.tolist() == [1.0, 1.0, 1.0]
        assert potential.tolist() == [0.0, 0.0, 1.0, 2.0]

    def test_annulus_based_at_an_inner_vertex(self):
        mesh = generate_primitive("annulus", base_vertex=43, n_angular=16, n_radial=4)
        rng = np.random.default_rng(49)
        for _ in range(10):
            assert_simplex_matches_ssp(
                mesh, molecule_vector(mesh, random_molecule(mesh, rng, max_atoms=12))
            )


def _pricing_imbalances(mesh):
    """The molecules of ``test_degenerate_grid_tables_match_ssp``:
    six +-1 molecules of 1-40 atoms and six random 1-12-atom ones."""
    rng = np.random.default_rng(50)
    for n_atoms in (1, 2, 4, 8, 16, 40):
        verts = rng.choice(np.arange(1, mesh.vertex_count), size=n_atoms, replace=False)
        mu = Molecule(tuple(zip(verts, rng.choice([-1.0, 1.0], size=n_atoms))))
        yield molecule_vector(mesh, canonicalize(mu, mesh.base_vertex))
    for _ in range(6):
        yield molecule_vector(mesh, random_molecule(mesh, rng, max_atoms=12))


def _entering_reduced_costs(mesh, b):
    """The reduced cost of each arc the simplex enters for ``b``, over the
    solve's tolerance, read from the solver's frame at each pivot."""
    solve = netsimplex._min_cost_flow
    lines, first = inspect.getsourcelines(solve)
    pivot_line = first + [line.strip() for line in lines].index("pivots += 1")
    costs = []

    def trace_pivots(frame, event, arg):
        if event == "line" and frame.f_lineno == pivot_line:
            seen = frame.f_locals
            a, pi = seen["entering"], seen["pi"]
            cost = seen["priced"][a] + pi[seen["tails"][a]] - pi[seen["heads"][a]]
            costs.append(cost / seen["tol"])
        return trace_pivots

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace_pivots if frame.f_code is solve.__code__
                 else None)
    try:
        netsimplex.min_cost_flow(mesh, b)
    finally:
        sys.settrace(previous)
    return np.array(costs)


class TestPricing:
    @pytest.mark.parametrize("nx, arcs", [(16, 1889), (17, 2126)], ids=["nx16", "nx17"])
    def test_degenerate_grid_tables_match_ssp(self, nx, arcs):
        # tables of 1889 and 2126 arcs (2E + V), priced by the same rule.
        # +-1 atoms on a unit-spaced grid tie many path lengths, so pivots
        # are degenerate; a cycling solve would hit the pivot cap
        mesh = generate_primitive("flat_rect", width=nx, height=nx, nx=nx)
        assert len(mesh.arcs.tail) + mesh.vertex_count == arcs
        for b in _pricing_imbalances(mesh):
            assert_simplex_matches_ssp(mesh, b)

    @pytest.mark.parametrize("nx", [16, 17], ids=["nx16", "nx17"])
    def test_every_pivot_enters_a_negative_reduced_cost(self, nx):
        # one whole-table pass queues every negative arc, and a queued arc
        # enters only while neither endpoint has been re-hung since: its
        # priced reduced cost is then still its reduced cost
        mesh = generate_primitive("flat_rect", width=nx, height=nx, nx=nx)
        costs = np.concatenate([_entering_reduced_costs(mesh, b)
                                for b in _pricing_imbalances(mesh)])
        assert len(costs) and costs.max() < -1.0


def _pair_bytes(pair):
    return b"".join(x.tobytes() for x in pair)


def _negative_zeros(value):
    """The -0.0 entries anywhere in a parsed JSON value."""
    if isinstance(value, dict):
        return sum(_negative_zeros(v) for v in value.values())
    if isinstance(value, list):
        return sum(_negative_zeros(v) for v in value)
    return int(isinstance(value, float) and value == 0.0 and math.copysign(1.0, value) < 0)


class TestSmallerSide:
    """SSP searches from the sources (b < 0) and the simplex roots its
    start forest at the demands (b > 0). Where that side has more
    vertices than the other, the solver solves -b and returns
    0.0 - flow, 0.0 - potential; a tie keeps b."""

    # integral coefficients that sum to zero, so the base vertex stays at 0
    COEFFS = {
        "more_negative": (-1.0, -1.0, -2.0, -2.0, -3.0, -3.0, 3.0, 4.0, 5.0),
        "fewer_negative": (1.0, 1.0, 2.0, 2.0, 3.0, 3.0, -3.0, -4.0, -5.0),
        "as_many": (-1.0, -2.0, -3.0, -4.0, 4.0, 3.0, 2.0, 1.0),
    }

    def molecules(self, mesh, case):
        rng = np.random.default_rng(63)
        coeffs = self.COEFFS[case]
        for _ in range(3):
            verts = rng.choice(np.arange(1, mesh.vertex_count), size=len(coeffs), replace=False)
            yield Molecule(tuple(zip(verts, rng.permutation(coeffs))))

    @pytest.mark.parametrize("case", list(COEFFS))
    @pytest.mark.parametrize("fixture", ["flat4", "ico1", "annulus", "torus8"])
    def test_both_sides_of_the_switch(self, request, fixture, case):
        mesh = request.getfixturevalue(fixture)
        for mu in self.molecules(mesh, case):
            b = molecule_vector(mesh, mu)
            negative, positive = np.count_nonzero(b < 0), np.count_nonzero(b > 0)
            assert np.sign(negative - positive) == (
                {"more_negative": 1, "fewer_negative": -1, "as_many": 0}[case]
            )
            dual, _ = dual_lp(mesh, mu)
            assert beckmann_graph(mesh, mu)[0] == pytest.approx(dual, rel=1e-12)
            assert float(transport_oracle(mesh, mu)) == pytest.approx(dual, rel=1e-12)
            for solver, roots, others in ((ssp, negative, positive),
                                          (netsimplex, positive, negative)):
                pair = solver.min_cost_flow(mesh, b)
                mirrored = solver.min_cost_flow(mesh, 0.0 - b)
                if roots > others:
                    body = [0.0 - x for x in solver._min_cost_flow(mesh, 0.0 - b)]
                else:
                    body = solver._min_cost_flow(mesh, b)
                assert _pair_bytes(pair) == _pair_bytes(body)
                if roots != others:
                    assert _pair_bytes(pair) == _pair_bytes(0.0 - x for x in mirrored)
                for x in (*pair, *mirrored):
                    assert not np.signbit(x[x == 0.0]).any()

    @pytest.mark.parametrize("case", ["more_negative", "fewer_negative"])
    def test_mirrored_reports_hold_no_negative_zero(self, tmp_path, case):
        # each molecule turns one graph solver round, and its mirror the other
        mesh_path, mu_path, out = (tmp_path / name for name in ("m.json", "mu.json", "r.json"))
        assert main(["gen-mesh", "--kind", "flat_rect", "--nx", "4", "--out",
                     str(mesh_path)]) == 0
        mesh = generate_primitive("flat_rect", nx=4)
        for mu in self.molecules(mesh, case):
            for sign in (1.0, -1.0):
                atoms = [[int(v), sign * c] for v, c in mu.atoms]
                mu_path.write_text(json.dumps({"atoms": atoms}))
                assert main(["free-norm", "--mesh", str(mesh_path), "--molecule",
                             str(mu_path), "--method", "all", "--out", str(out)]) == 0
                report = json.loads(out.read_text())
                assert report["optimal_flow"] and report["optimal_potential"]
                assert _negative_zeros(report) == 0


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
        # 61 runs for 106 sinks; one augmentation per run needs 274
        assert len(calls) < sinks

    @pytest.mark.parametrize(
        "fixture, pin",
        [
            ("flat4", "01ad36dbfb9fd2282180332bfda1feec5f27d239f8ac96abe98ea2e1f3d46f21"),
            ("ico1", "558f1e13fb6dae9730d349785e593870b6b36d5a3fe3e1d5dcc8aa975ee5e213"),
            ("annulus", "a9c3cd7338c32ffd71dfdc27472ce8fb97b49eb984b514a82d0e86d5fc2bc664"),
            ("torus", "26878cae234ae0d615e696c5cb7ecb85cacaf9f36708e6c34c3d6af582928b69"),
            ("poincare", "efb616a5d5998957890c244b19a1aa8699f6882041e67ab04d97f33cafa234b5"),
        ],
        ids=["flat4", "ico1", "annulus", "torus", "poincare"],
    )
    def test_flows_and_potentials_are_pinned(self, request, fixture, pin):
        # sha256 of the flow and potential bytes of three molecules
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(61)
        digest = hashlib.sha256()
        for _ in range(3):
            b = molecule_vector(mesh, random_molecule(mesh, rng, max_atoms=12))
            flow, potential = ssp.min_cost_flow(mesh, b)
            digest.update(flow.tobytes())
            digest.update(potential.tobytes())
        assert digest.hexdigest() == pin

    def test_multi_phase_flow_is_pinned(self, monkeypatch):
        # 50 atoms on flat_rect nx32: 26 sources outnumber 25 sinks, so
        # the solve searches from the sinks of -b, in 25 phases (27 from
        # the sources)
        calls = []
        search = ssp.dijkstra

        def counting_dijkstra(*args, **kwargs):
            calls.append(None)
            return search(*args, **kwargs)

        monkeypatch.setattr(ssp, "dijkstra", counting_dijkstra)
        mesh = generate_primitive("flat_rect", nx=32)
        rng = np.random.default_rng(62)
        verts = rng.choice(np.arange(1, mesh.vertex_count), size=50, replace=False)
        mu = canonicalize(
            Molecule(tuple((int(v), c) for v, c in zip(verts, rng.uniform(-3, 3, 50)))),
            mesh.base_vertex,
        )
        flow, potential = ssp.min_cost_flow(mesh, molecule_vector(mesh, mu))
        assert len(calls) == 25
        payload = flow.tobytes() + potential.tobytes()
        assert (
            hashlib.sha256(payload).hexdigest()
            == "b45cecb191124c95244dd48fd33f114026d7585f9e0cfa9fb45dd3beda0db6fc"
        )

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


    @pytest.mark.parametrize("solver", [ssp, netsimplex])
    @pytest.mark.parametrize("shape", [(24,), (25, 1), ()])
    def test_wrong_shaped_imbalance_is_a_mesh_error(self, flat4, solver, shape):
        assert flat4.vertex_count == 25
        with pytest.raises(MeshError, match="imbalance has shape"):
            solver.min_cost_flow(flat4, np.zeros(shape))

    @pytest.mark.parametrize("solver", [ssp, netsimplex])
    def test_unbalanced_imbalance_is_rejected(self, flat4, solver):
        b = np.zeros(flat4.vertex_count)
        b[[3, 9]] = 1.0, -0.5
        with pytest.raises(SolverFailure, match="does not sum to zero: 0.5"):
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


# the diagnostics of a field solve, in the order their reprs are pinned
_FIELD_DIAGNOSTICS = (
    "iterations", "complementarity", "divergence_residual", "lower", "upper",
    "gap",
)


def _field_payload(value, g, diag):
    reprs = "".join(repr(diag[key]) for key in _FIELD_DIAGNOSTICS)
    return g.tobytes() + repr(value).encode() + reprs.encode()


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

    @pytest.mark.parametrize("mixed", ["pendant_edge", "joined_icospheres"])
    def test_faces_must_join_every_vertex(self, ico1, mixed):
        # a vertex on no face, or a second set of faces, leaves the pinned
        # normal matrix singular; the faces are checked before any factoring,
        # where SuperLU would raise "Factor is exactly singular"
        mesh = {
            "pendant_edge": lambda: from_lengths(
                [(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0, (2, 3): 1.0}
            ),
            "joined_icospheres": lambda: two_icospheres(ico1, pinched=False),
        }[mixed]()
        for method in ("all", "field"):
            with pytest.raises(MeshError) as info:
                free_norm(mesh, Molecule(((mesh.vertex_count - 1, 1.0),)), method=method)
            assert type(info.value) is MeshError
            assert "needs every vertex on a face" in str(info.value)

    def test_precondition_fails_before_the_graph_routes(self, monkeypatch):
        # --method all on a pendant edge raises the field route's error
        # without solving either graph problem first
        def unexpected(mesh, b):
            raise AssertionError("a graph route ran")

        monkeypatch.setattr(ssp, "min_cost_flow", unexpected)
        monkeypatch.setattr(netsimplex, "min_cost_flow", unexpected)
        mesh = from_lengths(
            [(0, 1, 2)], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0, (2, 3): 1.0}
        )
        with pytest.raises(MeshError) as info:
            free_norm(mesh, Molecule(((3, 1.0),)))
        assert type(info.value) is MeshError
        assert "needs every vertex on a face" in str(info.value)

    def test_one_support_check_per_solve(self, monkeypatch, flat4):
        # --method all checks the faces once, where the Newton matrix is
        # factored, and not again before the graph routes
        calls = []
        check = calculus.check_field_support

        def counted(mesh):
            calls.append(mesh)
            return check(mesh)

        monkeypatch.setattr(calculus, "check_field_support", counted)
        if hasattr(freenorm, "check_field_support"):
            monkeypatch.setattr(freenorm, "check_field_support", counted)
        report = free_norm(flat4, Molecule(((7, 1.0), (19, -2.0))), method="all")
        assert report.diagnostics["field"]["certified"]
        assert calls == [flat4]

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"max_iter": 0}, "field max_iter must be >= 1, got 0"),
            ({"max_iter": -1}, "field max_iter must be >= 1, got -1"),
            ({"tol": 0.0}, "field tol must be finite and positive, got 0.0"),
            ({"tol": math.nan}, "field tol must be finite and positive, got nan"),
            ({"tol": math.inf}, "field tol must be finite and positive, got inf"),
            # each used to construct, or fail with a raw TypeError
            ({"max_iter": 2.5}, "field max_iter is not an integer: 2.5"),
            ({"max_iter": math.inf}, "field max_iter is not an integer: inf"),
            ({"max_iter": "5"}, "field max_iter is not an integer: '5'"),
            ({"max_iter": True}, "field max_iter is not an integer: True"),
            # an array's type has __index__, and a later range() raised TypeError
            ({"max_iter": np.array(2.5)}, "field max_iter is not an integer: array(2.5)"),
            ({"tol": "x"}, "field tol must be finite and positive, got x"),
            ({"tol": None}, "field tol must be finite and positive, got None"),
            # True used to run as a tolerance of 1.0
            ({"tol": True}, "field tol must be finite and positive, got True"),
        ],
        ids=["zero", "negative", "tol_zero", "tol_nan", "tol_inf", "fraction",
             "infinite", "string", "bool", "array", "tol_string", "tol_none",
             "tol_bool"],
    )
    def test_field_params_are_checked(self, params, message):
        with pytest.raises(ParseError) as info:
            FieldSolveParams(**params)
        assert str(info.value) == message

    def test_checked_params_are_kept(self):
        # numpy scalars pass the checks, and no later assignment skips them
        params = FieldSolveParams(max_iter=np.int64(3), tol=np.float32(1e-3))
        assert params.max_iter == 3 and params.tol == np.float32(1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.max_iter = 2.5

    def test_pinched_icospheres_solve(self, ico1):
        mesh = two_icospheres(ico1, pinched=True)
        report = free_norm(mesh, Molecule(((mesh.vertex_count - 1, 1.0),)))
        params = FieldSolveParams()
        value = report.primal_field_value
        assert report.diagnostics["field"]["iterations"] < params.max_iter
        assert value <= report.primal_graph_value + params.tol * max(1.0, value)

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
                ("flat4", "8fdba4c405447d122a28abeb7eaf9cceb231c2483407ecf51fbe15192c509ebd"),
                ("ico1", "651fbcfe05e1075d1f4f1d8b71c037355261485dff6ff2377e23f79922d6428b"),
                ("annulus", "d24c03d253e8e25f15eec316f0bab345083a52e0df583a929cf74eb81e67f5f4"),
                ("torus", "99ac3655014d072fd8770dce76fee5f622b6079cc94ba8d3196d55dc982bda7e"),
                ("poincare", "7b92ea588f49707586c1c471627763e38af455612cff0694859bd5424f93ed17"),
            )
        ],
    )
    def test_iterates_are_pinned(self, request, fixture, pin):
        # sha256 of the field bytes, the value's repr and the Newton step
        # count, so any change to the scaling, the predictor-corrector, the
        # step length, the projection or the stop rule shows
        mesh = request.getfixturevalue(fixture)
        mu = random_molecule(mesh, np.random.default_rng(47))
        value, g, diag = beckmann_field(mesh, mu, FieldSolveParams(max_iter=200))
        payload = g.tobytes() + repr(value).encode() + repr(diag["iterations"]).encode()
        assert hashlib.sha256(payload).hexdigest() == pin

    def test_ladder_dipole_iterates_are_pinned(self):
        # the benchmark's flat_rect nx16 rung, uncapped: sha256 of the
        # field bytes, the value's repr and the reprs of the six numeric
        # diagnostics, so every step's roundoff must repeat exactly
        mesh = generate_primitive("flat_rect", nx=16)
        value, g, diag = beckmann_field(mesh, Molecule(((140, 1.0), (148, -1.0))))
        assert diag["iterations"] == 15
        assert hashlib.sha256(_field_payload(value, g, diag)).hexdigest() == (
            "bccb1a44f4fe46a214e55e52ecefc57f832c660c4183e1d6710e48af21c41492"
        )

    def test_newton_matrix_is_ordered_once(self, monkeypatch):
        # the ladder dipole's start and its 15 Newton steps make 16 factors,
        # all in the one band order computed when the solve starts
        calls = []

        def recording(name, function):
            def record(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            monkeypatch.setattr(calculus, name, record)

        recording("reverse_cuthill_mckee", calculus.reverse_cuthill_mckee)
        recording("dpbtrf", calculus.dpbtrf)
        mesh = generate_primitive("flat_rect", nx=16)
        _, _, diag = beckmann_field(mesh, Molecule(((140, 1.0), (148, -1.0))))
        assert diag["iterations"] == 15
        assert calls == ["reverse_cuthill_mckee"] + ["dpbtrf"] * 16

    def test_edge_on_no_face_moves_only_the_band_order(self):
        # the band is ordered from the mesh's edge graph, so a chord on no
        # face (vertex 1 to 80 across flat_rect nx8) changes the order; the
        # band is still sized from the faces' corners, and the dipole still
        # certifies in the same steps, to 1e-9 relative
        mesh = generate_primitive("flat_rect", nx=8)
        positions = mesh.aux["positions"]
        chord = TriMesh(
            mesh.triangles,
            np.vstack([mesh.edges, [[1, 80]]]),
            np.append(mesh.edge_lengths, np.linalg.norm(positions[1] - positions[80])),
        )
        mu = Molecule(((38, 1.0), (42, -1.0)))
        value, _, diag = beckmann_field(mesh, mu)
        chord_value, _, chord_diag = beckmann_field(chord, mu)
        assert diag["certified"] and chord_diag["certified"]
        assert chord_diag["iterations"] == diag["iterations"]
        assert chord_value == pytest.approx(value, rel=1e-9)

    def test_failed_factor_stops_with_the_best_iterate(self, monkeypatch):
        # a non-positive pivot at the third step (the fourth factor, after
        # the start's) ends the solve like a non-finite scaling does: the
        # best of the first two projected fields comes back with its
        # bracket, and no SolverFailure escapes
        factor, calls = calculus.dpbtrf, []

        def failing(band, **options):
            calls.append(len(calls) + 1)
            lower, info = factor(band, **options)
            return lower, 5 if len(calls) == 4 else info

        mesh = generate_primitive("annulus", base_vertex=43, n_angular=16, n_radial=4)
        mu = random_molecule(mesh, np.random.default_rng(41))
        two = beckmann_field(mesh, mu, FieldSolveParams(max_iter=2))
        monkeypatch.setattr(calculus, "dpbtrf", failing)
        value, g, diag = beckmann_field(mesh, mu)
        assert calls == [1, 2, 3, 4]
        assert diag["iterations"] == 3
        assert diag["certified"] is False
        assert 0.0 < diag["lower"] < diag["upper"] == value
        assert value == two[0]
        assert g.tobytes() == two[1].tobytes()
        with pytest.raises(NotConverged):
            check_field_bracket(diag)

    def test_inner_base_vertex_iterates_are_pinned(self):
        # the base vertex neither first nor last, so the pinned solve moves
        # it out of and back into the middle
        mesh = generate_primitive("annulus", base_vertex=43, n_angular=16, n_radial=4)
        mu = random_molecule(mesh, np.random.default_rng(41))
        assert len(mu.atoms) == 4
        value, g, diag = beckmann_field(mesh, mu, FieldSolveParams(max_iter=200))
        assert diag["iterations"] == 12
        assert diag["certified"] is True
        assert hashlib.sha256(_field_payload(value, g, diag)).hexdigest() == (
            "064cde3dd3708dce93fe06787a60cb24e9dcacf79c9917fc9b8f5c0dd6417e5e"
        )

    @pytest.mark.parametrize("fixture", ["flat4", "ico1", "annulus", "torus", "poincare"])
    def test_start_is_feasible_inside_the_cones(self, request, monkeypatch, fixture):
        # the first scaling sees the least-norm field g0, lifted strictly
        # inside every cone by the same mu = sum_T w_T |g0_T| / F in each
        # x_T . s_T, with A g0 = b to roundoff and s_T = (w_T, 0, 0); x is
        # C-ordered, as an F-ordered x made every step 1.4-1.7x slower
        starts, scaling = [], freenorm._nt_scaling

        def recording(x, s):
            if not starts:
                starts.append((x.flags.c_contiguous, x.copy(), s.copy()))
            return scaling(x, s)

        monkeypatch.setattr(freenorm, "_nt_scaling", recording)
        mesh = request.getfixturevalue(fixture)
        mu = random_molecule(mesh, np.random.default_rng(47))
        beckmann_field(mesh, mu)
        (ordered, x, s), = starts
        assert ordered
        weights = mesh.cell_weights
        rim = np.hypot(x[1], x[2])
        assert (x[0] > rim).all()
        b = molecule_vector(mesh, canonicalize(mu, mesh.base_vertex))
        residual = np.abs(calculus.divergence(mesh, np.column_stack(x[1:])) - b).max()
        assert residual <= 1e-12 * max(1.0, np.abs(b).max())
        assert (s[0] == weights).all() and not s[1:].any()
        centre = np.sum(weights * rim) / len(weights)
        assert (np.abs(x[0] * s[0] - weights * rim - centre) <= 1e-12 * x[0] * s[0]).all()

    @pytest.mark.parametrize(
        "kind, params, atoms, steps",
        [
            ("flat_rect", {"nx": 16}, (140, 148), 15),
            ("flat_rect", {"nx": 24}, (306, 318), 16),
            ("flat_rect", {"nx": 32}, (536, 552), 18),
            ("flat_rect", {"nx": 40}, (830, 850), 19),
            ("icosphere", {"level": 3}, (1, 2), 7),
            ("icosphere", {"level": 4}, (1, 2), 7),
        ],
        ids=["nx16", "nx24", "nx32", "nx40", "L3", "L4"],
    )
    def test_ladder_step_counts_are_pinned(self, kind, params, atoms, steps):
        # the field_ladder benchmark's dipoles, at the vertices nearest
        # (0.25, 0.5) and (0.75, 0.5), or at two antipodal icosahedron
        # corners; from the start (|b|_1 / sum w, 0, 0) they took
        # 18/20/20/20/9/9 steps
        mesh = generate_primitive(kind, **params)
        _, _, diag = beckmann_field(mesh, Molecule(((atoms[0], 1.0), (atoms[1], -1.0))))
        assert diag["certified"] is True
        assert diag["iterations"] == steps

    def test_failed_start_factor_raises(self, monkeypatch, flat4):
        # the start factors A A^T, which the support check makes definite,
        # so a non-positive pivot there is no roundoff near the cone
        # boundaries: it raises rather than ending the solve
        factor, calls = calculus.dpbtrf, []

        def failing(band, **options):
            calls.append(len(calls) + 1)
            lower, info = factor(band, **options)
            return lower, 5 if len(calls) == 1 else info

        monkeypatch.setattr(calculus, "dpbtrf", failing)
        with pytest.raises(SolverFailure) as info:
            beckmann_field(flat4, Molecule(((7, 1.0), (19, -2.0))))
        assert calls == [1]
        assert info.value.diagnostics["pivot"] == 5

    def test_open_bracket_raises(self):
        # two Newton steps leave the bracket open: free_norm reports it as
        # NotConverged rather than returning an uncertified value
        mesh = generate_primitive("annulus", base_vertex=43, n_angular=16, n_radial=4)
        mu = random_molecule(mesh, np.random.default_rng(41))
        params = FieldSolveParams(max_iter=2)
        _, _, diag = beckmann_field(mesh, mu, params)
        assert diag["certified"] is False
        for method in ("field", "all"):
            with pytest.raises(NotConverged) as info:
                free_norm(mesh, mu, method=method, field_params=params)
            residuals = info.value.residuals
            assert residuals == {key: diag[key] for key in ("lower", "upper", "gap")}
            assert residuals["gap"] > params.tol * max(1.0, residuals["upper"])
            assert 0.0 < residuals["lower"] < residuals["upper"]

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

    @pytest.mark.parametrize("fixture", ["flat4", "ico1", "annulus", "torus", "poincare"])
    def test_small_molecules_certify(self, request, fixture):
        # four seeded molecules per surface; under the splitting, the second
        # on poincare and the fourth on flat4 ended at the 5000 cap with
        # gaps of 4.0e-4 and 2.3e-6
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(61)
        params = FieldSolveParams()
        for _ in range(4):
            mu = random_molecule(mesh, rng)
            value, _, diag = beckmann_field(mesh, mu, params=params)
            graph, _ = beckmann_graph(mesh, mu)
            assert diag["certified"] is True
            assert diag["gap"] <= params.tol * max(1.0, value)
            assert value <= graph + params.tol * max(1.0, value)

    def test_nesterov_todd_scaling_identities(self, monkeypatch):
        # on points deep inside the cones and within 1e-6 of their
        # boundaries: W s = W^-1 x and W W^-1 = I, to roundoff (a few eps
        # times the norms that bound each product), with W^-1 = J W J / beta^2
        # for beta^4 = x^T J x / s^T J s, so W is beta times a Lorentz map
        # and maps each cone onto itself; the step lengths from x along dx
        # and from s along ds are those from lam = W s along W^-1 dx and
        # W ds, to 1e-6 relative; the closed forms returned with W are the
        # lower 2 x 2 block of W W and the Lorentz norm of lam = W s, each
        # to roundoff (100 eps times the norms that bound each product)
        rng = np.random.default_rng(23)

        def inside(n):
            u = rng.standard_normal((3, n))
            u[0] = np.hypot(u[1], u[2]) + 10.0 ** rng.uniform(-6.0, 1.0, n)
            return u

        x, s = inside(2000), inside(2000)
        J = np.diag([1.0, -1.0, -1.0])
        W, D, lam_norm = freenorm._nt_scaling(x, s)
        W = W.transpose(2, 0, 1)
        beta2 = freenorm._lorentz_norms(x) / freenorm._lorentz_norms(s)
        W_inv = J @ W @ J / beta2[:, None, None]
        norm, norm_inv = (np.linalg.norm(M, 2, axis=(1, 2)) for M in (W, W_inv))
        roundoff = 100 * np.finfo(float).eps

        identity = np.abs(W @ W_inv - np.eye(3)).max(axis=(1, 2))
        assert (identity <= roundoff * norm * norm_inv).all()
        ws = np.einsum("fij,jf->fi", W, s)
        w_inv_x = np.einsum("fij,jf->fi", W_inv, x)
        size = norm * np.linalg.norm(s, axis=0) + norm_inv * np.linalg.norm(x, axis=0)
        assert (np.abs(ws - w_inv_x).max(axis=1) <= roundoff * size).all()
        W2 = W @ W
        blocks = np.stack([W2[:, 1, 1], W2[:, 1, 2], W2[:, 2, 2]])
        assert (np.abs(D - blocks).max(axis=0) <= roundoff * norm**2).all()
        lam_form = ws[:, 0] ** 2 - ws[:, 1] ** 2 - ws[:, 2] ** 2
        bound = roundoff * (norm * np.linalg.norm(s, axis=0)) ** 2
        assert (np.abs(lam_norm**2 - lam_form) <= bound).all()
        x_norm, s_norm = freenorm._lorentz_norms(x), freenorm._lorentz_norms(s)
        assert (np.abs(lam_norm - np.sqrt(x_norm * s_norm)) <= roundoff * lam_norm).all()

        d = rng.standard_normal((3, 2000))
        scaled = {"x": np.einsum("fij,jf->if", W_inv, d), "s": np.einsum("fij,jf->if", W, d)}
        with np.errstate(divide="ignore"):  # a direction into the cone has no bound
            for f in range(500):
                lam = ws[f, :, None]
                for name, u in (("x", x), ("s", s)):
                    u_norm = freenorm._lorentz_norms(u[:, f, None])
                    alpha = freenorm._max_step(u[:, f, None], d[:, f, None], u_norm)
                    alpha_lam = freenorm._max_step(lam, scaled[name][:, f, None],
                                                   lam_norm[f, None])
                    assert np.isclose(alpha, alpha_lam, rtol=1e-6, atol=0.0), (f, name)

        # the start factors the identity blocks; after it, the factored
        # blocks are the lower 2 x 2 blocks of W^2 at every Newton step of a
        # solve, whose last iterates lie near the boundaries
        scalings, factored = [], []
        scaling, factorizer = freenorm._nt_scaling, freenorm.weighted_normal_factorizer

        def recording_scaling(x, s):
            scalings.append(scaling(x, s))
            return scalings[-1]

        def recording_factorizer(mesh):
            factor = factorizer(mesh)

            def record(blocks):
                factored.append(blocks.copy())
                return factor(blocks)
            return record

        monkeypatch.setattr(freenorm, "_nt_scaling", recording_scaling)
        monkeypatch.setattr(freenorm, "weighted_normal_factorizer", recording_factorizer)
        mesh = generate_primitive("flat_rect", nx=8)
        _, _, diag = beckmann_field(mesh, Molecule(((38, 1.0), (42, -1.0))))
        assert diag["certified"] and len(factored) == diag["iterations"] + 1
        assert (factored[0] == [[1.0], [0.0], [1.0]]).all()
        for (W, _, _), D in zip(scalings, factored[1:], strict=True):
            W = W.transpose(2, 0, 1)
            W2 = W @ W
            bound = roundoff * np.linalg.norm(W, 2, axis=(1, 2)) ** 2
            blocks = np.stack([W2[:, 1, 1], W2[:, 1, 2], W2[:, 2, 2]])
            assert (np.abs(D - blocks).max(axis=0) <= bound).all()

    def test_criterion_8_dipole_is_certified(self):
        mesh = generate_primitive("flat_rect", nx=52)
        positions = mesh.aux["positions"]
        atoms = tuple(
            (int(np.argmin(np.linalg.norm(positions - target, axis=1))), coeff)
            for target, coeff in (([0.25, 0.5], 1.0), ([0.75, 0.5], -1.0))
        )
        _, _, diag = beckmann_field(mesh, Molecule(atoms))
        assert diag["iterations"] < FieldSolveParams().max_iter
        assert diag["certified"] is True

    def test_returned_field_failing_the_tolerance_raises(self, flat4):
        # no projection reaches a residual of 1e-300; the error reports the
        # residual measured on the returned field, where it used to say inf
        params = FieldSolveParams(tol=1e-300, max_iter=5)
        with pytest.raises(NotConverged) as info:
            beckmann_field(flat4, Molecule(((7, 1.0), (19, -2.0))), params=params)
        residuals = info.value.residuals
        assert math.isfinite(residuals["divergence"])
        assert residuals["divergence"] > params.tol
        assert math.isfinite(residuals["complementarity"])

    def test_divergence_check_scales_with_the_molecule(self):
        # the projection's roundoff grows with the coefficients: at 1e11 the
        # residual is about 4.6e-5, which an absolute 1e-6 would reject
        mesh = generate_primitive("flat_rect", nx=12)
        mu = random_molecule(mesh, np.random.default_rng(3))
        unit_value, _, _ = beckmann_field(mesh, mu)
        value, _, diag = beckmann_field(mesh, mu.scale(1e11))
        b = molecule_vector(mesh, mu.scale(1e11))
        assert 1e-6 < diag["divergence_residual"] <= 1e-6 * np.abs(b).max()
        assert diag["certified"]
        assert value == pytest.approx(1e11 * unit_value, rel=1e-9)

    def test_divergence_feasibility(self, flat4):
        mu = Molecule(((18, 1.5), (7, -0.5)))
        params = FieldSolveParams(max_iter=1500, tol=1e-6)
        _, g, diag = beckmann_field(flat4, mu, params=params)
        from freeflow.calculus import divergence

        b = molecule_vector(flat4, mu)
        assert np.abs(divergence(flat4, g) - b).max() <= params.tol

    def test_lumped_density_on_the_square_tends_to_one_sixth(self):
        # density 2x against the uniform one on the unit square, each lumped
        # at vertex area / 3: the transport runs along x, and W1 =
        # integral of |x^2 - x| = 1/6. x is P1 of slope 1 on every face, so
        # <mu - nu, x> bounds the field value from below; the lumping's
        # error falls at second order (1.30e-3, 3.26e-4, 8.14e-5)
        errors = []
        for nx in (16, 32, 64):
            mesh = generate_primitive("flat_rect", nx=nx)
            x = mesh.aux["positions"][:, 0]
            area = np.bincount(mesh.triangles.ravel(), np.repeat(mesh.cell_weights, 3),
                               mesh.vertex_count) / 3
            b = 2 * x * area / (2 * x * area).sum() - area / area.sum()
            value, _, diag = beckmann_field(mesh, Molecule(tuple(enumerate(b))))
            assert diag["certified"]
            assert value >= b @ x
            errors.append(abs(value - 1 / 6))
        assert errors[0] >= 3.5 * errors[1] and errors[1] >= 3.5 * errors[2], errors


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


def relabelled(mesh, rng):
    """``mesh`` with its vertices permuted, its edges shuffled and some
    reversed, and its base vertex moved, with the permutation."""
    perm = rng.permutation(mesh.vertex_count)
    order = rng.permutation(len(mesh.edges))
    edges = perm[mesh.edges[order]]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    base = perm[(mesh.base_vertex + mesh.vertex_count // 2) % mesh.vertex_count]
    moved = TriMesh(perm[mesh.triangles].reshape(-1, 3), edges,
                    mesh.edge_lengths[order], base_vertex=base)
    return moved, perm


def scaled(mesh, factor):
    return TriMesh(mesh.triangles, mesh.edges, mesh.edge_lengths * factor,
                   base_vertex=mesh.base_vertex)


def zero_sum_molecule(mesh, rng, atoms=6):
    """Integer coefficients summing to exactly zero, so the norm does not
    depend on the base vertex."""
    verts = rng.choice(mesh.vertex_count, size=atoms, replace=False)
    coeffs = rng.choice([-3, -2, -1, 1, 2, 3], size=atoms).tolist()
    coeffs[-1] -= sum(coeffs)
    return Molecule(tuple(zip(verts.tolist(), coeffs)))


class TestInvariance:
    """The free norm does not see vertex or edge labels, the base vertex
    of a zero-sum molecule, or the unit of length (it scales with it).
    The 6-atom molecules fit the exact oracle's 12-atom bound."""

    @staticmethod
    def values(mesh, molecule):
        values = {"dual": dual_lp(mesh, molecule)[0],
                  "graph": beckmann_graph(mesh, molecule)[0],
                  "oracle": float(transport_oracle(mesh, molecule))}
        if mesh.dimension == 2:
            _, _, diagnostics = beckmann_field(mesh, molecule)
            values["field"] = (diagnostics["lower"], diagnostics["upper"])
        return values

    @pytest.mark.parametrize("fixture", ["flat4", "ico2", "annulus", "torus", "circle32"])
    def test_relabelled_and_scaled_meshes_give_the_same_norm(self, request, fixture):
        mesh = request.getfixturevalue(fixture)
        rng = np.random.default_rng(17)
        molecule = zero_sum_molecule(mesh, rng)
        assert sum(c for _, c in molecule.atoms) == 0
        reference = self.values(mesh, molecule)

        moved, perm = relabelled(mesh, rng)
        same = self.values(moved, Molecule(tuple((int(perm[v]), c)
                                                 for v, c in molecule.atoms)))
        for route in ("dual", "graph", "oracle"):
            assert same[route] == pytest.approx(reference[route], rel=1e-12, abs=0.0)

        for k in (-3, 5):
            factor = 2.0 ** k
            got = self.values(scaled(mesh, factor), molecule)
            # a power of two scales every length, sum and ratio exactly
            assert got["dual"] == reference["dual"] * factor
            assert got["graph"] == reference["graph"] * factor
            assert got["oracle"] == reference["oracle"] * factor
            if "field" in reference:
                # both brackets hold the true value, whatever the tolerance
                lower, upper = (bound / factor for bound in got["field"])
                assert lower <= reference["field"][1] and reference["field"][0] <= upper
        if "field" in reference:
            lower, upper = same["field"]
            assert lower <= reference["field"][1] and reference["field"][0] <= upper

import csv
import dataclasses
import json

import numpy as np
import pytest

from birktraj import (
    ConstraintKind,
    DegenerateWeightError,
    DualTrajectory,
    DualVariant,
    FormTag,
    NlpResult,
    NoConvergenceError,
    OcpDefinition,
    PrimalForm,
    PrimalSolution,
    ShapeError,
    SolveStatus,
    UnsupportedMappingError,
    UnsupportedProblemError,
    build_birkhoff,
    default_tolerance,
    ibp_defect_norm,
    initial_guess,
    load_problem,
    make_grid,
    map_covectors,
    prepared,
    registry,
    registry_solution,
    solve,
    solve_indirect,
    transcribe,
    verified_variant,
    verify_pontryagin,
)
from birktraj import dual as dual_module
from birktraj.ocp import pinned_endpoints
from birktraj.transcription import consecutive_slices


def system_for(name, N, kind="lgl"):
    ocp = prepared(registry(name))
    return ocp, build_birkhoff(make_grid(kind, N, ocp.horizon))


def solved(name, N=8, form="a", scaled=False, kind="lgl"):
    ocp, sys = system_for(name, N, kind)
    nlp = transcribe(ocp, sys, PrimalForm(form, scaled=scaled))
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, (name, form, scaled, res.status)
    return nlp, sys, res


def fake_result(interp, dyn):
    """A converged one-state result with the given interpolation and dynamics
    multipliers, a zero equivalency multiplier and no endpoint rows."""
    blocks = {"state_interpolation": interp, "dynamics": dyn, "grid_equivalency": [0.0],
              "endpoint": []}
    return NlpResult(
        z=np.zeros(1),
        status=SolveStatus.CONVERGED,
        iterations=1,
        kkt_residual=0.0,
        multipliers=np.concatenate([np.asarray(b, dtype=float) for b in blocks.values()]),
        rows=consecutive_slices({name: len(b) for name, b in blocks.items()}),
        log=[],
    )


# --- variant bookkeeping --------------------------------------------------------


def test_variant_parse_and_flags():
    v = DualVariant.parse("a,b_star")
    assert v.state_form is FormTag.A and v.costate_form is FormTag.B_STAR
    assert str(v) == "a,b_star"
    assert v.verified and not v.experimental
    assert DualVariant("a_star", "b_star").verified
    assert DualVariant("a", "b").verified
    assert DualVariant("b", "a").experimental
    assert DualVariant("b_star", "b_star").experimental
    with pytest.raises(ShapeError):
        DualVariant.parse("a")
    with pytest.raises(ValueError):
        DualVariant.parse("a,c")


def test_verified_variant_per_form():
    assert verified_variant(PrimalForm("a")) == DualVariant("a", "b_star")
    assert verified_variant(PrimalForm("a_star")) == DualVariant("a_star", "b_star")
    assert verified_variant(PrimalForm("a", scaled=True)) == DualVariant("a", "b")
    for form in (PrimalForm("b"), PrimalForm("b_star"), PrimalForm("b", scaled=True)):
        with pytest.raises(UnsupportedMappingError):
            verified_variant(form)


# --- mapping ---------------------------------------------------------------------


def test_mapping_identity_for_plain_form():
    # with unit weights the negated dynamics multipliers ARE the costates for
    # the plain left-anchored form
    sys = build_birkhoff(make_grid("lgl", 1, (-1.0, 1.0)))
    assert np.array_equal(sys.w_B, [1.0, 1.0])
    dual = map_covectors(fake_result(np.zeros(2), [-2.0, -3.0]), PrimalForm("a"), sys)
    assert np.array_equal(dual.costates, [[2.0], [3.0]])
    assert np.array_equal(dual.costate_derivs, np.zeros((2, 1)))
    assert np.array_equal(dual.costate_final, [0.0])
    assert np.array_equal(dual.costate_initial, [0.0])


def test_mapping_divides_by_weights_for_scaled_form():
    sys = build_birkhoff(make_grid("lgl", 1, (-1.0, 1.0)))
    sys = dataclasses.replace(sys, w_B=np.array([0.5, 2.0]))
    res = fake_result(np.zeros(2), [-1.0, -4.0])
    dual = map_covectors(res, PrimalForm("a", scaled=True), sys)
    assert np.array_equal(dual.costates, [[2.0], [2.0]])


def test_mapping_refuses_zero_weight_where_it_divides():
    sys = build_birkhoff(make_grid("lgl", 1, (-1.0, 1.0)))
    sys = dataclasses.replace(sys, w_B=np.array([0.0, 2.0]))
    res = fake_result(np.zeros(2), [-1.0, -4.0])
    for form in (PrimalForm("a"), PrimalForm("a", scaled=True)):
        with pytest.raises(DegenerateWeightError):
            map_covectors(res, form, sys)
    # the starred rows already carry w: nothing is divided, nothing refused
    dual = map_covectors(res, PrimalForm("a_star"), sys)
    assert np.array_equal(dual.costates, [[1.0], [4.0]])


@pytest.mark.parametrize(
    "form", [PrimalForm("a"), PrimalForm("a_star"), PrimalForm("a", scaled=True)], ids=str
)
def test_map_covectors_rule_per_route(form):
    # costates -mu_dyn/omega, derivatives mu_interp/omega, lam_b = -mu_equiv,
    # lam_a = lam_b - w^T Omega; omega = w except on the starred form, where
    # nothing is divided
    ocp, sys = system_for("double-integrator-energy", 5)
    nlp = transcribe(ocp, sys, form)
    mu = np.random.default_rng(9).normal(size=nlp.n_rows)
    res = NlpResult(
        z=np.zeros(nlp.n_z), status=SolveStatus.CONVERGED, iterations=1,
        kkt_residual=0.0, multipliers=mu, rows=nlp.rows,
    )
    dual = map_covectors(res, form, sys)
    m, w = nlp.n_nodes, sys.w_B[:, None]
    mu_i = mu[nlp.rows["state_interpolation"]].reshape(m, -1)
    mu_d = mu[nlp.rows["dynamics"]].reshape(m, -1)
    if form.starred:
        assert np.array_equal(dual.costates, -mu_d)
        assert np.array_equal(dual.costate_derivs, mu_i)
    else:
        assert np.array_equal(dual.costates, -mu_d / w)
        assert np.array_equal(dual.costate_derivs, mu_i / w)
    lam_b = -mu[nlp.rows["grid_equivalency"]]
    assert np.array_equal(dual.costate_final, lam_b)
    assert np.array_equal(dual.costate_initial, lam_b - sys.w_B @ dual.costate_derivs)
    assert np.array_equal(dual.endpoint, mu[nlp.rows["endpoint"]])


def test_mapping_preconditions():
    nlp, sys, res = solved("scalar-lq", N=6)
    with pytest.raises(UnsupportedMappingError):
        map_covectors(res, PrimalForm("b"), sys)
    bad = dataclasses.replace(res, status=SolveStatus.MAX_ITER)
    with pytest.raises(NoConvergenceError):
        map_covectors(bad, PrimalForm("a"), sys)
    no_rows = dataclasses.replace(res, rows={})
    with pytest.raises(ShapeError):
        map_covectors(no_rows, PrimalForm("a"), sys)


def test_mapping_refuses_another_grids_system():
    nlp, sys, res = solved("scalar-lq", N=8)
    _, other = system_for("scalar-lq", 6)
    with pytest.raises(ShapeError, match="9 nodes.* 7"):
        map_covectors(res, PrimalForm("a"), other)


def test_mapped_dual_satisfies_costate_equivalency():
    nlp, sys, res = solved("double-integrator-energy", N=10)
    dual = map_covectors(res, nlp.form, sys)
    gap = dual.costate_final - dual.costate_initial - sys.w_B @ dual.costate_derivs
    # the initial value is defined through this identity; only rounding remains
    assert np.max(np.abs(gap)) <= 1e-12


# --- verification against the adjoint system -------------------------------------


def zero_dynamics_point(N=6):
    ocp = registry("zero-dynamics")
    sys = build_birkhoff(make_grid("lgl", N, ocp.horizon))
    m = N + 1
    primal = PrimalSolution(
        X=np.ones((m, 1)),
        U=np.zeros((m, 0)),
        V=np.zeros((m, 1)),
        x_a=np.array([1.0]),
        x_b=np.array([1.0]),
        objective=1.0,
        feasibility=0.0,
    )
    dual = DualTrajectory(
        costates=2.0 * np.ones((m, 1)),
        costate_derivs=np.zeros((m, 1)),
        costate_initial=np.array([2.0]),
        costate_final=np.array([2.0]),
        endpoint=np.array([-2.0]),
    )
    return ocp, sys, primal, dual


def test_zero_dynamics_analytic_point_verifies():
    ocp, sys, primal, dual = zero_dynamics_point()
    report = verify_pontryagin(ocp, primal, dual, sys, DualVariant("a", "b_star"), tol=1e-10)
    assert report.passed
    assert all(v <= 1e-10 for v in report.blocks.values())
    assert report.hamiltonian_constancy <= 1e-12
    assert not report.experimental


def test_perturbed_costate_is_detected():
    ocp, sys, primal, dual = zero_dynamics_point()
    lam = dual.costates.copy()
    lam[3, 0] += 1e-2  # node with an O(1) quadrature weight
    bad = dataclasses.replace(dual, costates=lam)
    report = verify_pontryagin(ocp, primal, bad, sys, DualVariant("a", "b_star"), tol=1e-10)
    assert not report.passed
    assert report.blocks["costate_interpolation"] >= 1e-3
    name, value = report.worst_block()
    assert name == "costate_interpolation" and value >= 1e-3


def test_default_tolerance_tracks_defect():
    _, sys = system_for("scalar-lq", 8)
    assert default_tolerance(sys) == max(1e-6, 10.0 * ibp_defect_norm(sys))


def test_report_serialization(tmp_path):
    ocp, sys, primal, dual = zero_dynamics_point()
    report = verify_pontryagin(ocp, primal, dual, sys, DualVariant("b", "a"))
    assert report.experimental
    path = tmp_path / "report.json"
    report.dump(path)
    blob = json.loads(path.read_text())
    assert blob["variant"] == "b,a"
    assert blob["experimental"] is True
    assert set(blob["blocks"]) == {
        "state_interpolation",
        "dynamics",
        "state_equivalency",
        "costate_interpolation",
        "adjoint",
        "control_stationarity",
        "costate_equivalency",
        "endpoint_feasibility",
        "transversality_initial",
        "transversality_final",
        "complementarity",
    }
    assert blob["passed"] == report.passed


def test_shape_mismatch_rejected():
    ocp, sys, primal, dual = zero_dynamics_point(N=6)
    _, sys8 = registry("zero-dynamics"), build_birkhoff(make_grid("lgl", 8, (0.0, 1.0)))
    with pytest.raises(ShapeError):
        verify_pontryagin(ocp, primal, dual, sys8, DualVariant("a", "b_star"))


def test_double_integrator_verified_route_passes_at_1e6():
    nlp, sys, res = solved("double-integrator-energy", N=16)
    dual = map_covectors(res, nlp.form, sys)
    primal = nlp_extract(nlp, res)
    report = verify_pontryagin(nlp.ocp, primal, dual, sys, verified_variant(nlp.form), tol=1e-6)
    assert report.passed, report.blocks
    # mapped costates reproduce the analytic adjoint
    sol = registry_solution("double-integrator-energy")
    costates = sol.costate(sys.grid.nodes)
    assert np.max(np.abs(dual.costates[:, 0] - costates[0])) <= 1e-6
    assert np.max(np.abs(dual.costates[:, 1] - costates[1])) <= 1e-6
    assert np.max(np.abs(dual.costates[:, 2] - 1.0)) <= 1e-6


def nlp_extract(nlp, res):
    from birktraj import extract_primal

    return extract_primal(nlp, res.z)


@pytest.mark.parametrize(
    "name", ["zero-dynamics", "scalar-lq", "double-integrator-energy", "nonlinear-scalar"]
)
@pytest.mark.parametrize("form,scaled", [("a", False), ("a_star", False), ("a", True)])
def test_cmt_round_trip_all_routes(name, form, scaled):
    nlp, sys, res = solved(name, N=8, form=form, scaled=scaled)
    dual = map_covectors(res, nlp.form, sys)
    report = verify_pontryagin(
        nlp.ocp, nlp_extract(nlp, res), dual, sys, verified_variant(nlp.form)
    )
    assert report.passed, (name, form, scaled, report.blocks, report.tolerance)


def test_scaled_and_unscaled_routes_agree():
    for name in ("scalar-lq", "double-integrator-energy"):
        nlp_p, sys, res_p = solved(name, N=10)
        nlp_s, _, res_s = solved(name, N=10, scaled=True)
        lam_p = map_covectors(res_p, nlp_p.form, sys).costates
        lam_s = map_covectors(res_s, nlp_s.form, sys).costates
        assert np.max(np.abs(lam_p - lam_s)) <= 1e-6


# --- indirect solves --------------------------------------------------------------


def test_indirect_scalar_lq():
    ocp, sys = system_for("scalar-lq", 8)
    primal, dual = solve_indirect(registry("scalar-lq"), sys, DualVariant("a", "b_star"))
    t = sys.grid.nodes
    assert np.max(np.abs(primal.X[:, 0] - t)) <= 1e-10
    assert np.max(np.abs(primal.U[:, 0] - 1.0)) <= 1e-10
    assert np.max(np.abs(dual.costates[:, 0] + 2.0)) <= 1e-10
    assert np.max(np.abs(dual.costates[:, 1] - 1.0)) <= 1e-10
    assert primal.feasibility <= 1e-10


def test_indirect_double_integrator_costates():
    ocp, sys = system_for("double-integrator-energy", 16)
    primal, dual = solve_indirect(
        registry("double-integrator-energy"), sys, DualVariant("a", "b_star")
    )
    sol = registry_solution("double-integrator-energy")
    t = sys.grid.nodes
    costates = sol.costate(t)
    assert np.max(np.abs(dual.costates[:, 0] - costates[0])) <= 1e-8
    assert np.max(np.abs(dual.costates[:, 1] - costates[1])) <= 1e-8
    states = sol.state(t)
    assert np.max(np.abs(primal.X[:, 0] - states[0])) <= 1e-8
    assert primal.objective == pytest.approx(6.0, abs=1e-8)


def test_indirect_agrees_with_direct_mapping():
    for name in ("scalar-lq", "double-integrator-energy"):
        nlp, sys, res = solved(name, N=12)
        mapped = map_covectors(res, nlp.form, sys)
        primal_d = nlp_extract(nlp, res)
        primal_i, dual_i = solve_indirect(registry(name), sys, DualVariant("a", "b_star"))
        assert np.max(np.abs(primal_d.X - primal_i.X)) <= 1e-6
        assert np.max(np.abs(mapped.costates - dual_i.costates)) <= 1e-6


def test_indirect_warm_start_from_direct():
    nlp, sys, res = solved("nonlinear-scalar", N=10)
    mapped = map_covectors(res, nlp.form, sys)
    primal, dual = solve_indirect(
        registry("nonlinear-scalar"),
        sys,
        DualVariant("a", "b_star"),
        init=(nlp_extract(nlp, res), mapped),
    )
    assert np.max(np.abs(primal.X - nlp_extract(nlp, res).X)) <= 1e-5


def test_indirect_nonlinear_from_default_init():
    ocp, sys = system_for("nonlinear-scalar", 12)
    primal, dual = solve_indirect(registry("nonlinear-scalar"), sys, DualVariant("a", "b_star"))
    assert primal.feasibility <= 1e-10
    # the costate field solves the adjoint system it was built from
    report = verify_pontryagin(
        registry("nonlinear-scalar"), primal, dual, sys, DualVariant("a", "b_star"), tol=1e-9
    )
    assert report.passed, report.blocks


def test_indirect_experimental_variant_reaches_same_solution():
    ocp, sys = system_for("scalar-lq", 8)
    primal, _ = solve_indirect(registry("scalar-lq"), sys, DualVariant("b", "b_star"))
    t = sys.grid.nodes
    assert np.max(np.abs(primal.X[:, 0] - t)) <= 1e-8


def test_indirect_rejects_inequality_endpoints():
    base = registry("scalar-lq")
    con = base.constraints
    mixed = dataclasses.replace(
        con, kinds=(ConstraintKind.EQUALITY, ConstraintKind.INEQUALITY)
    )
    ocp = dataclasses.replace(base, constraints=mixed)
    _, sys = system_for("scalar-lq", 6)
    with pytest.raises(UnsupportedProblemError):
        solve_indirect(ocp, sys, DualVariant("a", "b_star"))


def test_indirect_rejects_irregular_hamiltonian():
    # control enters linearly and the endpoint cost forces a nonzero costate:
    # the stationarity condition has no u dependence to solve for
    ocp = OcpDefinition(
        name="linear-control",
        n_x=1,
        n_u=1,
        horizon=(0.0, 1.0),
        dynamics=lambda X, U: U.copy(),
        jac_fx=lambda X, U: np.zeros((len(X), 1, 1)),
        jac_fu=lambda X, U: np.ones((len(X), 1, 1)),
        endpoint_cost=lambda x_a, x_b: float(x_b[0]),
        grad_cost_xa=lambda x_a, x_b: np.zeros(1),
        grad_cost_xb=lambda x_a, x_b: np.ones(1),
        constraints=pinned_endpoints(1, x_a_fixed=[0.0]),
    )
    sys = build_birkhoff(make_grid("lgl", 6, (0.0, 1.0)))
    with pytest.raises(UnsupportedProblemError):
        solve_indirect(ocp, sys, DualVariant("a", "b_star"))


def test_indirect_singular_newton_matrix_raises(monkeypatch):
    monkeypatch.setattr(dual_module, "regularized_solve", lambda *args: None)
    _, sys = system_for("scalar-lq", 8)
    with pytest.raises(NoConvergenceError, match="singular Newton matrix"):
        solve_indirect(registry("scalar-lq"), sys, DualVariant("a", "b_star"))


@pytest.mark.parametrize("costate", ["a", "b", "a_star", "b_star"])
@pytest.mark.parametrize("state", ["a", "b", "a_star", "b_star"])
def test_indirect_jacobian_matches_finite_differences(state, costate):
    from birktraj.dual import _IndirectSystem, _default_indirect_init

    ocp = prepared(registry("double-integrator-energy"))
    sys = build_birkhoff(make_grid("lgl", 4, ocp.horizon))
    system = _IndirectSystem(ocp, sys, DualVariant(state, costate))
    rng = np.random.default_rng(21)
    y = _default_indirect_init(system) + 0.3 * rng.normal(size=system.n_y)
    jac = system.jacobian(y)
    h = 1e-6
    fd = np.zeros_like(jac)
    for j in range(system.n_y):
        yp, ym = y.copy(), y.copy()
        yp[j] += h
        ym[j] -= h
        fd[:, j] = (system.residual(yp) - system.residual(ym)) / (2 * h)
    err = np.max(np.abs(jac - fd)) / max(1.0, np.max(np.abs(fd)))
    assert err <= 1e-5


def test_callbacks_take_whole_node_tables():
    # one dynamics call per constraint evaluation, and a fixed number of
    # Jacobian calls per Hessian or indirect Jacobian, whatever the grid order
    from birktraj.dual import _IndirectSystem, _default_indirect_init

    jac_fx_calls = {}
    for N in (8, 64):
        calls = {"dynamics": 0, "jac_fx": 0}

        def counted(name, fn):
            def callback(X, U):
                calls[name] += 1
                return fn(X, U)

            return callback

        ocp, sys = system_for("nonlinear-scalar", N)
        ocp = dataclasses.replace(ocp, **{nm: counted(nm, getattr(ocp, nm)) for nm in calls})
        nlp = transcribe(ocp, sys, PrimalForm("a"))
        z = initial_guess(nlp, "linear-endpoint-interpolation")
        nlp.constraints(z)
        assert calls["dynamics"] == 1
        nlp.lagrangian_hessian(z, np.ones(nlp.n_rows))
        system = _IndirectSystem(ocp, sys, DualVariant("a", "b_star"))
        y = _default_indirect_init(system)
        after_hessian = calls["jac_fx"]
        system.jacobian(y)
        jac_fx_calls[N] = (after_hessian, calls["jac_fx"] - after_hessian)
    n_cols = ocp.n_x + ocp.n_u  # two Hamiltonian gradients per column
    assert jac_fx_calls[8] == jac_fx_calls[64] == (2 * n_cols, 1 + 2 * n_cols)


@pytest.mark.parametrize("form", ["a", "a_star"])
def test_verification_meets_inequality_endpoint_rows(form):
    # steer x from 0 to at least 1 (active row) and at most 5 (inactive row)
    ocp = prepared(
        load_problem(
            {
                "name": "scalar-lq-inequality",
                "n_x": 1,
                "n_u": 1,
                "horizon": [0.0, 1.0],
                "dynamics": {"A": [[0.0]], "B": [[1.0]]},
                "running_cost": {"R": [[1.0]]},
                "constraints": [
                    {"kind": "equality", "a": [1.0], "rhs": 0.0},
                    {"kind": "inequality", "b": [-1.0], "rhs": -1.0},
                    {"kind": "inequality", "b": [1.0], "rhs": 5.0},
                ],
            }
        )
    )
    sys = build_birkhoff(make_grid("lgl", 8, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm(form))
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged
    dual = map_covectors(res, nlp.form, sys)
    report = verify_pontryagin(
        ocp, nlp_extract(nlp, res), dual, sys, verified_variant(nlp.form)
    )
    assert report.passed, report.blocks
    active, inactive = dual.endpoint[1], dual.endpoint[2]
    assert active > 0.0 and inactive == 0.0


def test_dual_trajectory_csv(tmp_path):
    _, _, _, dual = zero_dynamics_point(N=4)
    path = tmp_path / "dual.csv"
    dual.write_csv(path)
    assert b"\r" not in path.read_bytes()
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node", "costate_0", "costate_deriv_0"]
    assert len(rows) == 1 + 5
    assert float(rows[1][1]) == 2.0

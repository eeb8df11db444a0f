import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from birktraj import (
    ConstraintKind,
    DegenerateWeightError,
    DomainMismatchError,
    DualTrajectory,
    DualVariant,
    FormTag,
    IncompleteDerivativesError,
    NlpResult,
    NoConvergenceError,
    OcpDefinition,
    PrimalForm,
    PrimalSolution,
    RunningCost,
    ShapeError,
    SolveStatus,
    UnsupportedMappingError,
    UnsupportedProblemError,
    build_birkhoff,
    default_tolerance,
    extract_primal,
    ibp_defect_norm,
    initial_guess,
    load_problem,
    make_grid,
    map_covectors,
    prepared,
    registry,
    registry_names,
    registry_solution,
    solve,
    solve_indirect,
    solve_with_fallback,
    transcribe,
    verified_variant,
    verify_pontryagin,
)
from birktraj import dual as dual_module
from birktraj.dual import _IndirectSystem, _default_indirect_init
from birktraj.ocp import pinned_endpoints
from birktraj.output import write_json
from birktraj.transcription import AnchoredBlock, consecutive_slices


def system_for(name, N, kind="lgl", prepare=True):
    ocp = prepared(registry(name)) if prepare else registry(name)
    return ocp, build_birkhoff(make_grid(kind, N, ocp.horizon))


def solved(name, N=8, form="a", scaled=False, kind="lgl", prepare=True):
    ocp, sys = system_for(name, N, kind, prepare)
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


def test_unknown_variant_tag_is_a_package_error():
    with pytest.raises(UnsupportedProblemError, match="unknown form tag 'zz'"):
        DualVariant("a", "zz")
    with pytest.raises(UnsupportedProblemError, match="unknown form tag 'zz'"):
        DualVariant.parse("a,zz")


def test_indirect_solve_refuses_a_grid_off_the_horizon():
    ocp = registry("scalar-lq")
    sys = build_birkhoff(make_grid("lgl", 8, (0.0, 2.0)))
    with pytest.raises(DomainMismatchError):
        solve_indirect(ocp, sys, DualVariant("a", "b_star"))


def test_verification_refuses_a_grid_off_the_horizon():
    ocp, variant = registry("scalar-lq"), DualVariant("a", "b_star")
    primal, dual = solve_indirect(ocp, build_birkhoff(make_grid("lgl", 8, ocp.horizon)), variant)
    sys = build_birkhoff(make_grid("lgl", 8, (0.0, 2.0)))
    with pytest.raises(DomainMismatchError):
        verify_pontryagin(ocp, primal, dual, sys, variant)


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
    if form.tag.starred:
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
    write_json(path, report.to_json_dict())
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
    assert primal.X.shape == dual.costates.shape == (9, 1)  # no cost-state column
    assert primal.objective == pytest.approx(1.0, abs=1e-10)
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
        nlp, sys, res = solved(name, N=12, prepare=False)
        mapped = map_covectors(res, nlp.form, sys)
        primal_d = nlp_extract(nlp, res)
        primal_i, dual_i = solve_indirect(nlp.ocp, sys, DualVariant("a", "b_star"))
        assert np.max(np.abs(primal_d.X - primal_i.X)) <= 1e-6
        assert np.max(np.abs(mapped.costates - dual_i.costates)) <= 1e-6


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


# the endpoint cost seeds a nonzero costate and L is quartic in the second
# control, so control recovery takes Newton steps
CUBIC_TWO_CONTROLS = {
    "name": "cubic-two-controls", "n_x": 2, "n_u": 2, "horizon": [0.0, 1.3],
    "dynamics": {"terms": [
        [{"coef": -0.7, "x": [3, 0], "u": [0, 0]}, {"coef": 0.5, "x": [0, 0], "u": [1, 0]}],
        [{"coef": -1.1, "x": [0, 3], "u": [0, 0]}, {"coef": 0.8, "x": [0, 0], "u": [0, 1]}],
    ]},
    "running_cost": {"terms": [
        {"coef": 0.5, "x": [2, 0], "u": [0, 0]}, {"coef": 0.7, "x": [0, 0], "u": [2, 0]},
        {"coef": 0.3, "x": [0, 0], "u": [0, 4]}, {"coef": 0.9, "x": [0, 0], "u": [0, 2]},
    ]},
    "endpoint_cost": {"terms": [{"coef": 2.0, "xb": [2, 0]}, {"coef": -1.5, "xb": [0, 1]}]},
    "constraints": [{"kind": "equality", "a": [1.0, 0.0], "rhs": 0.5},
                    {"kind": "equality", "a": [0.0, 1.0], "rhs": -0.4}],
}


def test_control_recovery_iterates_to_hamiltonian_stationarity(monkeypatch):
    ocp = load_problem(CUBIC_TWO_CONTROLS)
    sys = build_birkhoff(make_grid("lgl", 32, ocp.horizon))
    steps, curvatures = [], OcpDefinition.hamiltonian_curvatures
    monkeypatch.setattr(  # one curvature per Newton iteration of the recovery
        OcpDefinition, "hamiltonian_curvatures",
        lambda self, *args: steps.append(1) or curvatures(self, *args),
    )
    system = _IndirectSystem(ocp, sys, DualVariant("a", "b_star"))
    X, U, _, lam, *_ = system.split(_default_indirect_init(system))
    assert len(steps) > 1
    h_u = ocp.hamiltonian_gradient(X, U, lam)[:, ocp.n_x :]
    assert np.all(np.max(np.abs(h_u), axis=1) <= 1e-12)


def test_indirect_line_search_without_progress_raises(monkeypatch):
    # -dy raises |r| to first order, so no step length is accepted
    step = _IndirectSystem.newton_step
    monkeypatch.setattr(_IndirectSystem, "newton_step", lambda self, y, r: -step(self, y, r))
    _, sys = system_for("nonlinear-scalar", 8)
    with pytest.raises(NoConvergenceError, match="line search made no progress"):
        solve_indirect(registry("nonlinear-scalar"), sys, DualVariant("a", "b_star"))


def test_indirect_iteration_cap_raises(monkeypatch):
    # nonlinear-scalar takes four Newton steps from the default start
    monkeypatch.setattr(dual_module, "INDIRECT_MAX_ITER", 1)
    _, sys = system_for("nonlinear-scalar", 8)
    with pytest.raises(NoConvergenceError, match="did not reach 1e-10 in 1 iterations"):
        solve_indirect(registry("nonlinear-scalar"), sys, DualVariant("a", "b_star"))


def test_indirect_singular_newton_matrix_raises(monkeypatch):
    monkeypatch.setattr(dual_module, "regularized_solve", lambda *args: None)
    _, sys = system_for("scalar-lq", 8)
    with pytest.raises(NoConvergenceError, match="singular Newton matrix"):
        solve_indirect(registry("scalar-lq"), sys, DualVariant("a", "b_star"))


def test_indirect_zero_pivot_of_the_condensing_matrix_raises(monkeypatch):
    # nonlinear-scalar's sides each have a coupled block to factor
    orders = []

    def singular(self, blocks):
        orders.append(blocks.shape[0] * blocks.shape[1])
        return np.zeros((orders[-1],) * 2)

    monkeypatch.setattr(AnchoredBlock, "condensing_matrix", singular)
    ocp, sys = system_for("nonlinear-scalar", 8)
    with pytest.raises(NoConvergenceError, match="singular Newton matrix"):
        solve_indirect(registry("nonlinear-scalar"), sys, DualVariant("a", "b_star"))
    assert orders == [9]
    system = _IndirectSystem(ocp, sys, DualVariant("a", "b_star"))
    y = _default_indirect_init(system)
    r = system.residual(y)
    with pytest.raises(NoConvergenceError, match="singular Newton matrix"):
        system.newton_step(y, r)
    monkeypatch.undo()
    assert np.all(np.isfinite(system.newton_step(y, r)))  # the failed factor was not kept


def test_indirect_zero_pivot_on_the_costate_side_raises(monkeypatch):
    # F_x is zero but at one node j, where it is -g with b g = 1 exactly for
    # b = B_a[j, j]: M_s = I - (B_a (x) I) F_x has 1 + b g = 2 there, but
    # M_c = I + (B_a (x) I) F_x^T has 1 - b g = 0 and a zero row j
    ocp, sys = system_for("scalar-lq", 8, prepare=False)
    j = int(np.argmax(np.abs(np.diag(sys.B_a))))
    b = sys.B_a[j, j]
    g = next(g for g in 1.0 / b * (1.0 + 2.0**-52 * np.arange(-4, 5)) if b * g == 1.0)

    def jac_fx(X, U):
        out = np.zeros((len(X), 1, 1))
        out[j] = -g
        return out

    factors, factor = [], AnchoredBlock.factor
    monkeypatch.setattr(AnchoredBlock, "factor",
                        lambda self, G: factors.append(factor(self, G)) or factors[-1])
    system = _IndirectSystem(dataclasses.replace(ocp, jac_fx=jac_fx), sys, DualVariant("a", "a"))
    y = _default_indirect_init(system)
    with pytest.raises(NoConvergenceError, match="singular Newton matrix"):
        system.newton_step(y, system.residual(y))
    assert [f is None for f in factors] == [False, True]  # the state side, then the costate side


def factored_orders(monkeypatch, name, variant, N=32):
    """Solve ``name`` indirectly on LGL N; returns (Newton steps, the orders
    of the blocks each condensing factor LU-factored, one list per factor)."""
    calls, steps = [], []
    factor, newton_step = AnchoredBlock.factor, _IndirectSystem.newton_step

    def counted(self, G):
        out = factor(self, G)
        calls.append([lu.shape[0] for _, lu, *_ in out.groups if lu is not None])
        return out

    def counted_step(self, y, r):
        steps.append(1)
        return newton_step(self, y, r)

    monkeypatch.setattr(AnchoredBlock, "factor", counted)
    monkeypatch.setattr(_IndirectSystem, "newton_step", counted_step)
    ocp = registry(name)
    solve_indirect(ocp, build_birkhoff(make_grid("lgl", N, ocp.horizon)), DualVariant.parse(variant))
    return len(steps), calls


@pytest.mark.parametrize("variant", ["a,b_star", "a_star,b_star", "a,b"])
@pytest.mark.parametrize("name", ["double-integrator-energy", "scalar-lq", "zero-dynamics"])
def test_indirect_solve_factors_each_side_once_on_linear_dynamics(monkeypatch, name, variant):
    # each Newton step factors M_s and M_c once each, and nothing else; on
    # these F_x is zero or nilpotent, so neither factor LU-factors a block
    steps, calls = factored_orders(monkeypatch, name, variant)
    assert steps and calls == [[]] * (2 * steps)


@pytest.mark.parametrize("variant", ["a,b_star", "a_star,b_star", "a,b"])
def test_indirect_solve_factors_one_coupled_block_per_side(monkeypatch, variant):
    # on nonlinear-scalar only x reads itself: one block of order N + 1 a side
    steps, calls = factored_orders(monkeypatch, "nonlinear-scalar", variant)
    assert steps and calls == [[33]] * (2 * steps)


VARIANTS = ["a,b", "a,b_star", "a_star,b_star", "b,a_star", "b_star,b"]
RUNNING_COST_PROBLEMS = [nm for nm in registry_names() if registry(nm).running_cost is not None]


@pytest.mark.parametrize("N", [8, 32, 64])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["double-integrator-energy", "scalar-lq", "nonlinear-scalar"])
def test_indirect_lq_problems_take_one_newton_step(monkeypatch, name, variant, N):
    # L enters through H = L + lam . f, not through a cost state y' = L, so
    # an LQ problem's system is linear; nonlinear-scalar keeps its 4 steps
    steps, _ = factored_orders(monkeypatch, name, variant, N)
    assert steps == (4 if name == "nonlinear-scalar" else 1)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", RUNNING_COST_PROBLEMS)
def test_indirect_solve_of_the_problem_as_defined_matches_the_prepared_problem(name, variant):
    # every field against the base columns of the Mayer solve, whose cost
    # state is the last column and whose row y_a = 0 the last endpoint row
    ocp = registry(name)
    sys = build_birkhoff(make_grid("lgl", 16, ocp.horizon))
    variant = DualVariant.parse(variant)
    bolza = solve_indirect(ocp, sys, variant)
    mayer = solve_indirect(prepared(ocp), sys, variant)
    for got, want in zip(bolza, mayer):
        for field in dataclasses.fields(want):
            a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
            if field.name == "endpoint":
                b = b[: ocp.n_e]
            elif field.name != "U" and b.ndim:
                b = b[..., : ocp.n_x]
            assert a.shape == b.shape, field.name
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12, field.name
    for problem, (primal, dual) in ((ocp, bolza), (prepared(ocp), mayer)):
        report = verify_pontryagin(problem, primal, dual, sys, variant, tol=default_tolerance(sys))
        assert report.passed, report.blocks


@pytest.mark.parametrize("form, scaled", [("a", False), ("a_star", False), ("a", True)],
                         ids=["a", "a_star", "a+scaled"])
@pytest.mark.parametrize("name", RUNNING_COST_PROBLEMS)
def test_hamiltonian_constancy_counts_the_running_cost(name, form, scaled):
    # H = L + lam . f is constant along an autonomous optimum; lam . f alone
    # is not once there is no cost state to carry L
    nlp, sys, res = solved(name, N=32, form=form, scaled=scaled, prepare=False)
    dual = map_covectors(res, nlp.form, sys)
    report = verify_pontryagin(
        nlp.ocp, nlp_extract(nlp, res), dual, sys, verified_variant(nlp.form)
    )
    assert report.passed, report.blocks
    assert report.hamiltonian_constancy <= 1e-10


def test_indirect_solve_needs_the_running_cost_gradients():
    # refused when the cost is built, before any problem or solve
    ocp = registry("scalar-lq")
    with pytest.raises(IncompleteDerivativesError):
        dataclasses.replace(ocp, running_cost=RunningCost(ocp.running_cost.fun))


def test_indirect_step_failing_the_backward_error_test_raises(monkeypatch):
    # a reduced solution that is not one leaves the rows it should meet unmet
    monkeypatch.setattr(dual_module, "regularized_solve", lambda m, rhs, signs: np.ones(rhs.size))
    _, sys = system_for("scalar-lq", 8)
    with pytest.raises(NoConvergenceError, match="singular Newton matrix"):
        solve_indirect(registry("scalar-lq"), sys, DualVariant("a", "b_star"))


FORMS = ["a", "b", "a_star", "b_star"]


def perturbed_point(name, N, state, costate):
    """An indirect system and a point off its default initial guess, with
    the generator that drew the perturbation."""
    ocp = prepared(registry(name))
    sys = build_birkhoff(make_grid("lgl", N, ocp.horizon))
    system = _IndirectSystem(ocp, sys, DualVariant(state, costate))
    rng = np.random.default_rng(21)
    return system, _default_indirect_init(system) + 0.3 * rng.normal(size=system.n_y), rng


def central_difference(system, y, d, h=1e-4):
    return (system.residual(y + h * d) - system.residual(y - h * d)) / (2 * h)


@pytest.mark.parametrize("costate", FORMS)
@pytest.mark.parametrize("state", FORMS)
def test_indirect_jacobian_matches_finite_differences(state, costate):
    # the node-block product J dy against central differences of the
    # residual along random directions
    for name in ("double-integrator-energy", "nonlinear-scalar"):
        system, y, rng = perturbed_point(name, 4, state, costate)
        blocks = system.derivatives(y)
        dirs = rng.normal(size=(system.n_y, 3))
        for d in dirs.T:
            fd = central_difference(system, y, d)
            err = np.max(np.abs(system.jvp(blocks, d) * system.row_scale - fd))
            assert err <= 1e-6 * max(1.0, np.max(np.abs(fd))), name
        # the columns of a 2-D direction are taken one by one
        np.testing.assert_allclose(
            system.jvp(blocks, dirs)[:, 1], system.jvp(blocks, dirs[:, 1]),
            rtol=1e-14, atol=1e-14,
        )


@pytest.mark.parametrize("costate", FORMS)
@pytest.mark.parametrize("state", FORMS)
@pytest.mark.parametrize("N", [4, 6, 8])
def test_condensed_indirect_step_solves_the_finite_difference_jacobian(N, state, costate):
    # the residual is at most bilinear here, so central differences give its
    # Jacobian to rounding
    system, y, _ = perturbed_point("double-integrator-energy", N, state, costate)
    r = system.residual(y)
    jac = np.column_stack([central_difference(system, y, e) for e in np.eye(system.n_y)])
    expected = np.linalg.solve(jac, -r)
    dy = system.newton_step(y, r)
    assert np.max(np.abs(dy - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("state, costate", [("a", "b_star"), ("b_star", "a")])
@pytest.mark.parametrize("name", ["double-integrator-energy", "nonlinear-scalar"])
def test_memo_warm_indirect_step_gives_the_bits_of_a_fresh_system(name, state, costate):
    # steps at alternating y, where F_x moves with y (nonlinear-scalar) and
    # where it does not: the system keeps no state from one step to the next
    system, y1, rng = perturbed_point(name, 8, state, costate)
    y2 = y1 + 0.1 * rng.normal(size=system.n_y)
    for y in (y1, y2, y1, y2):
        r = system.residual(y)
        fresh = _IndirectSystem(system.ocp, system.sys, DualVariant(state, costate))
        assert np.array_equal(system.newton_step(y, r), fresh.newton_step(y, r))


def test_indirect_newton_step_builds_no_square_jacobian():
    system, y, _ = perturbed_point("double-integrator-energy", 128, "a", "b_star")
    r = system.residual(y)
    tracemalloc.start()
    try:
        system.newton_step(y, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense n_y x n_y Jacobian alone would take 8 n_y^2 bytes
    assert peak < 8 * system.n_y**2 / 2


@pytest.mark.parametrize("variant", ["a_star,b", "a,b_star", "b_star,a_star"])
def test_indirect_system_refuses_a_zero_weight_on_a_starred_side(variant):
    ocp, sys = system_for("scalar-lq", 6)
    w = sys.w_B.copy()
    w[3] = 0.0
    degenerate = dataclasses.replace(sys, w_B=w)
    with pytest.raises(DegenerateWeightError):
        solve_indirect(registry("scalar-lq"), degenerate, DualVariant.parse(variant))
    # with no starred side no row carries a weight, so nothing is refused
    _IndirectSystem(ocp, degenerate, DualVariant("a", "b"))


def test_callbacks_take_whole_node_tables():
    # one dynamics call per constraint evaluation, and a fixed number of
    # Jacobian calls per Hessian or indirect Newton step, whatever the grid order
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
        r = system.residual(y)
        before_step = calls["jac_fx"]
        system.newton_step(y, r)
        jac_fx_calls[N] = (after_hessian, calls["jac_fx"] - before_step)
    # one Hamiltonian gradient per curvature, a complex step of every column
    # at once, and one more: the control recovery's H_u in the first count,
    # the step's own F_x in the second
    assert jac_fx_calls[8] == jac_fx_calls[64] == (2, 2)


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


# --- problem shapes: no controls, no endpoint rows, one inequality row -----------

SHAPES = {
    # x_a[1] is free, so the endpoint cost and L decide it
    "no-controls": {
        "name": "no-controls", "n_x": 2, "n_u": 0, "horizon": [0.0, 1.0],
        "dynamics": {"A": [[0.0, 1.0], [-1.0, -0.5]]},
        "running_cost": {"Q": [[1.0, 0.0], [0.0, 0.5]]},
        "endpoint_cost": {"terms": [{"coef": 1.0, "xb": [2, 0]}]},
        "constraints": [{"kind": "equality", "a": [1.0, 0.0], "rhs": 1.0}],
    },
    # both ends free: E = (x_a - 1)^2 + 2 (x_b + 1/2)^2, up to a constant
    "free-ends": {
        "name": "free-ends", "n_x": 1, "n_u": 1, "horizon": [0.0, 1.0],
        "dynamics": {"terms": [[{"coef": -0.5, "x": [3]}, {"coef": 1.0, "u": [1]}]]},
        "running_cost": {"Q": [[0.5]], "R": [[1.0]]},
        "endpoint_cost": {"terms": [
            {"coef": 1.0, "xa": [2]}, {"coef": -2.0, "xa": [1]},
            {"coef": 2.0, "xb": [2]}, {"coef": 2.0, "xb": [1]},
        ]},
    },
    # x_a >= 1 is active: x = cosh(1 - t) / cosh(1), cost tanh(1)
    "one-inequality": {
        "name": "one-inequality", "n_x": 1, "n_u": 1, "horizon": [0.0, 1.0],
        "dynamics": {"A": [[0.0]], "B": [[1.0]]},
        "running_cost": {"Q": [[1.0]], "R": [[1.0]]},
        "constraints": [{"kind": "inequality", "a": [-1.0], "rhs": -1.0}],
    },
}


@pytest.mark.parametrize("kind", ["lgl", "cgl"])
@pytest.mark.parametrize("form,scaled", [("a", False), ("a_star", False), ("a", True)])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_problem_shapes_solve_map_and_verify(shape, form, scaled, kind):
    ocp = load_problem(SHAPES[shape])
    sys = build_birkhoff(make_grid(kind, 16, ocp.horizon))
    nlp = transcribe(ocp, sys, PrimalForm(form, scaled=scaled))
    res = solve_with_fallback(nlp)
    assert res.converged, res.status
    primal = nlp_extract(nlp, res)
    dual = map_covectors(res, nlp.form, sys)
    assert primal.U.shape == (17, ocp.n_u) and dual.endpoint.shape == (ocp.n_e,)
    report = verify_pontryagin(ocp, primal, dual, sys, verified_variant(nlp.form))
    assert report.passed, report.blocks
    if shape == "one-inequality":
        # within the CGL quadrature error at N = 16 (1.5e-9 and 3.0e-9; LGL's is 0)
        assert primal.objective == pytest.approx(np.tanh(1.0), abs=1e-8)
        # lam_a = nu for the row 1 - x_a <= 0, and lam(0) = -2 u(0) = 2 tanh(1)
        assert dual.endpoint[0] == pytest.approx(2.0 * np.tanh(1.0), abs=1e-8)


@pytest.mark.parametrize("shape", ["no-controls", "free-ends"])
def test_indirect_solves_problem_shapes(shape):
    ocp = load_problem(SHAPES[shape])
    sys = build_birkhoff(make_grid("lgl", 16, ocp.horizon))
    variant = DualVariant("a", "b_star")
    primal, dual = solve_indirect(ocp, sys, variant)
    assert primal.U.shape == (17, ocp.n_u) and dual.endpoint.shape == (ocp.n_e,)
    assert verify_pontryagin(ocp, primal, dual, sys, variant).passed
    nlp = transcribe(ocp, sys, PrimalForm("a"))
    direct = nlp_extract(nlp, solve_with_fallback(nlp))
    assert primal.objective == pytest.approx(direct.objective, abs=1e-9)
    assert np.max(np.abs(primal.X - direct.X)) <= 1e-8


def test_solution_records_compare_and_hash_by_identity():
    # frozen records of arrays: == is identity and hash works, where a field
    # by field comparison would ask an array for its single truth value
    nlp, sys, res = solved("scalar-lq")
    twin_sys = build_birkhoff(sys.grid)
    primal, twin_primal = (extract_primal(nlp, res.z) for _ in range(2))
    dual, twin_dual = (map_covectors(res, PrimalForm("a"), sys) for _ in range(2))
    for record, twin in ((sys, twin_sys), (primal, twin_primal), (dual, twin_dual)):
        assert record == record and record != twin
        assert len({record, twin, record}) == 2

"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Each test computes its own measured quantities, prints a single summary line
(visible with ``pytest -rA`` or on failure), and asserts at the stated
tolerance.  Thresholds frozen from oracle runs are marked in comments.
"""

import time

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as poly
from scipy.integrate import quad

from birktraj import (
    DualVariant,
    PrimalForm,
    build_birkhoff,
    cond_study,
    default_tolerance,
    extract_primal,
    ibp_defect_norm,
    initial_guess,
    loglog_slope,
    make_grid,
    map_covectors,
    quadrature,
    registry,
    registry_names,
    registry_solution,
    solve,
    solve_indirect,
    transcribe,
    verified_variant,
    verify_pontryagin,
)
from birktraj.cli import main as cli_main


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _solved(name, N, form):
    ocp = registry(name)
    system = build_birkhoff(make_grid("lgl", N, ocp.horizon))
    nlp = transcribe(ocp, system, form)
    res = solve(nlp, initial_guess(nlp, "constant-midpoint"))
    assert res.converged, (name, N, form, res.status)
    return ocp, system, nlp, res


def test_criterion_1_birkhoff_identities():
    worst_ident = 0.0
    worst_modal = 0.0
    for kind in ("lgl", "cgl"):
        for N in (4, 8, 16, 32, 64, 128):
            sys_ = build_birkhoff(make_grid(kind, N))
            one = np.ones(N + 1)
            worst_ident = max(
                worst_ident,
                np.max(np.abs(sys_.B_a - sys_.B_b - np.outer(one, sys_.w_B))),
                np.max(np.abs(sys_.B_a[-1] - sys_.w_B)),
                np.max(np.abs(sys_.B_b[0] + sys_.w_B)),
                abs(sys_.w_B.sum() - 2.0),
            )
            s = np.asarray(sys_.to_reference_coord(sys_.grid.nodes))
            deriv = cheb.chebder(sys_.modal.antiderivative_coeffs, m=1, axis=0)
            vals = cheb.chebval(s, deriv).T
            worst_modal = max(worst_modal, np.max(np.abs(vals - np.eye(N + 1))))
    ok = worst_ident <= 1e-12 and worst_modal <= 1e-11
    assert _line(
        1, "Birkhoff identities", ok,
        f"matrix identities {worst_ident:.2e} (gate 1e-12), "
        f"interpolation condition {worst_modal:.2e} (gate 1e-11)",
    )


def test_criterion_2_quadrature_exactness():
    rng = np.random.default_rng(42)
    worst_rel = 0.0
    for kind in ("lgl", "cgl"):
        for N in (4, 8, 16, 32):
            sys_ = build_birkhoff(make_grid(kind, N))
            t = sys_.grid.nodes
            for _ in range(100):
                coeffs = rng.uniform(-1.0, 1.0, size=N + 1)
                got = quadrature(sys_.w_B, poly.polyval(t, coeffs))
                ref = poly.polyval(1.0, poly.polyint(coeffs)) - poly.polyval(
                    -1.0, poly.polyint(coeffs)
                )
                worst_rel = max(worst_rel, abs(got - ref) / max(1.0, abs(ref)))
    sys20 = build_birkhoff(make_grid("lgl", 20))
    ref_exp = quad(np.exp, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    exp_err = abs(quadrature(sys20.w_B, np.exp(sys20.grid.nodes)) - ref_exp)
    ok = worst_rel <= 1e-10 and exp_err <= 1e-10
    assert _line(
        2, "quadrature exactness", ok,
        f"worst polynomial error {worst_rel:.2e} over 800 draws (gate 1e-10), "
        f"exp at N=20 {exp_err:.2e} (gate 1e-10)",
    )


def test_criterion_3_integration_by_parts_defect():
    # gate frozen from the oracle run: the provisional 1e-6 target is not
    # attainable at N=32 (the defect decays ~N^-2 and measures 1.47e-3);
    # frozen threshold 2e-3 plus strict monotone decay
    norms = {
        N: ibp_defect_norm(build_birkhoff(make_grid("lgl", N)))
        for N in (4, 8, 16, 32)
    }
    decreasing = all(norms[a] > norms[b] for a, b in ((4, 8), (8, 16), (16, 32)))
    ok = decreasing and norms[32] <= 2e-3
    assert _line(
        3, "integration-by-parts defect", ok,
        "measured " + ", ".join(f"N={n}: {v:.3e}" for n, v in norms.items())
        + " (gate: monotone decrease, <= 2e-3 at N=32)",
    )


def test_criterion_4_conditioning_trend():
    start = time.perf_counter()
    rows = cond_study("lgl", [8, 16, 32, 64, 128, 256, 512])
    elapsed = time.perf_counter() - start
    orders = [r.N for r in rows]
    slope_D = loglog_slope(orders, [r.cond_D for r in rows])
    slope_B = loglog_slope(orders, [r.cond_B_a for r in rows])
    ok = slope_D >= 1.8 and slope_B <= 0.8 and elapsed <= 120.0
    assert _line(
        4, "conditioning trend", ok,
        f"slope D {slope_D:+.3f} (gate >= 1.8), B_a core {slope_B:+.3f} "
        f"(gate <= 0.8), runtime {elapsed:.1f}s (gate 120s)",
    )


def test_criterion_5_analytic_optimum():
    ocp, system, nlp, res = _solved("double-integrator-energy", 16, PrimalForm("a"))
    primal = extract_primal(nlp, res.z)
    t = system.grid.nodes
    sol = registry_solution("double-integrator-energy")
    cost_err = abs(primal.objective - 6.0)
    state_err = float(np.max(np.abs(primal.X - sol.state(t).T)))
    dual = map_covectors(res, nlp.form, system)
    lam1_err = float(np.max(np.abs(dual.costates[:, 0] + 12.0)))
    lam2_err = float(np.max(np.abs(dual.costates[:, 1] - (12.0 * t - 6.0))))
    ok = cost_err <= 1e-6 and state_err <= 1e-6 and lam1_err <= 1e-5 and lam2_err <= 1e-5
    assert _line(
        5, "analytic optimum", ok,
        f"cost error {cost_err:.2e} (gate 1e-6), state {state_err:.2e} (gate 1e-6), "
        f"costates {max(lam1_err, lam2_err):.2e} (gate 1e-5)",
    )


def test_criterion_6_covector_mapping_routes():
    routes = (
        PrimalForm("a"),
        PrimalForm("a_star"),
        PrimalForm("a", scaled=True),
    )
    worst_margin = 0.0
    worst_case = ""
    ok = True
    for name in registry_names():
        for N in (8, 16, 32):
            for form in routes:
                ocp, system, nlp, res = _solved(name, N, form)
                dual = map_covectors(res, form, system)
                report = verify_pontryagin(
                    ocp, extract_primal(nlp, res.z), dual, system,
                    verified_variant(form), tol=default_tolerance(system),
                )
                ok = ok and report.passed
                _, value = report.worst_block()
                margin = value / report.tolerance
                if margin > worst_margin:
                    worst_margin = margin
                    worst_case = f"{name} N={N} form {form.tag.value}" + (
                        " scaled" if form.scaled else ""
                    )
    assert _line(
        6, "covector mapping routes", ok,
        f"36 route checks, worst residual/tolerance {worst_margin:.2e} "
        f"({worst_case}); gate max(1e-6, 10*defect)",
    )


def test_criterion_7_direct_indirect_equivalence():
    worst = 0.0
    for name in ("double-integrator-energy", "scalar-lq"):
        ocp, system, nlp, res = _solved(name, 12, PrimalForm("a"))
        primal = extract_primal(nlp, res.z)
        dual = map_covectors(res, nlp.form, system)
        ind_primal, ind_dual = solve_indirect(ocp, system, DualVariant("a", "b_star"))
        worst = max(
            worst,
            float(np.max(np.abs(primal.X - ind_primal.X))),
            float(np.max(np.abs(dual.costates - ind_dual.costates))),
        )
    ok = worst <= 1e-6
    assert _line(
        7, "direct/indirect equivalence", ok,
        f"worst state/costate gap {worst:.2e} (gate 1e-6)",
    )


def test_criterion_8_form_equivalence():
    worst = 0.0
    worst_name = ""
    for name in registry_names():
        costs = []
        for tag in ("a", "b", "a_star", "b_star"):
            _, _, nlp, res = _solved(name, 12, PrimalForm(tag))
            costs.append(extract_primal(nlp, res.z).objective)
        spread = max(costs) - min(costs)
        if spread > worst:
            worst, worst_name = spread, name
    ok = worst <= 1e-8
    assert _line(
        8, "form equivalence", ok,
        f"worst objective spread {worst:.2e} ({worst_name}; gate 1e-8)",
    )


def test_criterion_9_deterministic_outputs(tmp_path):
    def produce(out):
        assert cli_main(["solve", "--problem", "double-integrator-energy",
                         "--N", "16", "--out", str(out)]) == 0
        assert cli_main(["bench", "--study", "cond", "--orders", "4,8,16",
                         "--out", str(out)]) == 0
        assert cli_main(["bench", "--study", "convergence", "--problem",
                         "scalar-lq", "--orders", "4,8", "--out", str(out)]) == 0
        assert cli_main(["grids", "--grid", "cgl", "--N", "8",
                         "--out", str(out)]) == 0
        assert cli_main(["verify", "--problem", "double-integrator-energy",
                         "--N", "16", "--out", str(out)]) == 0
        # no analytic solution: the errors are read against the indirect oracle
        assert cli_main(["bench", "--study", "convergence", "--problem",
                         "nonlinear-scalar", "--orders", "4,8",
                         "--out", str(out / "oracle")]) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    produce(a)
    produce(b)
    files = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
    diffs = [
        name for name in files if (a / name).read_bytes() != (b / name).read_bytes()
    ]
    ok = not diffs and len(files) >= 10
    assert _line(
        9, "deterministic outputs", ok,
        f"{len(files)} files byte-compared across two runs"
        + (f"; differing: {diffs}" if diffs else ", none differ"),
    )

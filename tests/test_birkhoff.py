import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad

from birktraj import (
    DomainError,
    IllConditionedBasisError,
    ShapeError,
    UnsupportedGridError,
    birkhoff,
    build_birkhoff,
    build_diff_matrix,
    eval_costate_interpolant,
    eval_state_interpolant,
    ibp_defect,
    ibp_defect_norm,
    make_grid,
    quadrature,
)
from birktraj.grid import Grid, GridKind

KINDS = ("cgl", "lgl")
ORDERS = (4, 8, 16, 32, 64, 128)


# --- closed forms at N=1 -------------------------------------------------


def test_n1_closed_forms():
    sys = build_birkhoff(make_grid("lgl", 1))
    np.testing.assert_allclose(sys.w_B, [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(sys.B_a, [[0.0, 0.0], [1.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(sys.B_b, [[-1.0, -1.0], [0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(sys.D, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)


def test_lgl_n4_weights_closed_form():
    sys = build_birkhoff(make_grid("lgl", 4))
    np.testing.assert_allclose(
        sys.w_B, [0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1], atol=1e-14
    )


# --- matrix identities ----------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", ORDERS)
def test_identity_suite(kind, n):
    sys = build_birkhoff(make_grid(kind, n))
    one = np.ones(n + 1)
    np.testing.assert_allclose(sys.B_a - sys.B_b, np.outer(one, sys.w_B), atol=1e-12)
    np.testing.assert_allclose(sys.B_a[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(sys.B_b[-1], 0.0, atol=1e-12)
    np.testing.assert_allclose(sys.B_a[-1], sys.w_B, atol=1e-12)
    np.testing.assert_allclose(sys.B_b[0], -sys.w_B, atol=1e-12)
    assert abs(sys.w_B.sum() - 2.0) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
def test_interpolation_conditions_derivative_series(kind):
    # the derivative series of column j reproduces the cardinal property
    for n in (4, 16, 64, 256):
        sys = build_birkhoff(make_grid(kind, n))
        s = np.asarray(sys.to_reference_coord(sys.grid.nodes), dtype=float)
        deriv = cheb.chebder(sys.modal.antiderivative_coeffs, m=1, axis=0)
        vals = cheb.chebval(s, deriv).T
        assert np.max(np.abs(vals - np.eye(n + 1))) < 1e-11


def test_diff_matrix_basics():
    for kind in KINDS:
        g = make_grid(kind, 12, domain=(0.0, 2.0))
        d = build_diff_matrix(g)
        np.testing.assert_allclose(d @ np.ones(13), 0.0, atol=1e-12)
        np.testing.assert_allclose(d @ g.nodes, np.ones(13), atol=1e-11)


# --- Vandermonde evaluation against a Clenshaw reference ---------------------


def _clenshaw_reference(sys):
    # the antiderivative series summed by Clenshaw's recurrence, node by node
    s = np.asarray(sys.to_reference_coord(sys.grid.nodes), dtype=float)
    b_a = cheb.chebval(s, sys.modal.antiderivative_coeffs).T
    b_a[0] = 0.0
    w = sys.scale * cheb.chebval(1.0, sys.modal.antiderivative_coeffs)
    b_a = sys.scale * b_a
    return b_a, b_a - w[None, :], w


@pytest.mark.parametrize(
    "kind, n, rel",
    [(k, n, False) for k in KINDS for n in (1, 4, 16, 64, 256)]
    + [("uniform", n, True) for n in (8, 16, 24, 32)],
)
def test_vandermonde_matches_clenshaw(kind, n, rel):
    sys = build_birkhoff(make_grid(kind, n))
    b_a, b_b, w = _clenshaw_reference(sys)
    tol = 1e-15 * (np.max(np.abs(w)) if rel else 1.0)
    assert np.max(np.abs(sys.B_a - b_a)) <= tol
    assert np.max(np.abs(sys.B_b - b_b)) <= tol
    assert np.max(np.abs(sys.w_B - w)) <= tol


def test_moment_crosscheck_fires_on_corrupted_antiderivative(monkeypatch):
    chebint = cheb.chebint

    def corrupted(*args, **kwargs):
        anti = chebint(*args, **kwargs)
        anti[3, 2] += 1e-9
        return anti

    grid = make_grid("lgl", 16)
    build_birkhoff(grid)
    monkeypatch.setattr(birkhoff.cheb, "chebint", corrupted)
    with pytest.raises(IllConditionedBasisError, match="cross-check"):
        build_birkhoff(grid)


@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_interpolants_keep_the_shape_of_tau(shape):
    sys = build_birkhoff(make_grid("lgl", 10, domain=(0.0, 2.0)))
    v = np.cos(sys.grid.nodes)
    tau = np.linspace(0.0, 2.0, int(np.prod(shape))).reshape(shape)
    if not shape:
        tau = float(tau)
    x = eval_state_interpolant(0.5, v, sys, tau)
    lam = eval_costate_interpolant(-0.5, v, sys, tau)
    assert np.shape(x) == shape and np.shape(lam) == shape
    flat = np.ravel(tau)
    np.testing.assert_allclose(
        np.ravel(x), [eval_state_interpolant(0.5, v, sys, t) for t in flat], atol=1e-14
    )
    np.testing.assert_allclose(
        np.ravel(lam), [eval_costate_interpolant(-0.5, v, sys, t) for t in flat], atol=1e-14
    )


# --- quadrature -----------------------------------------------------------


def test_quadrature_trivial_cases():
    assert quadrature(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 2.0
    assert quadrature(np.array([1.0, 1.0]), np.array([-1.0, 1.0])) == 0.0
    with pytest.raises(ShapeError):
        quadrature(np.ones(3), np.ones(4))


def test_quadrature_exp_against_adaptive_oracle():
    # oracle: scipy adaptive quadrature of exp over [-1, 1]
    exact, _ = quad(np.exp, -1.0, 1.0)
    assert abs(exact - 2.3504023872876028) < 1e-13
    sys = build_birkhoff(make_grid("cgl", 16))
    assert abs(quadrature(sys.w_B, np.exp(sys.grid.nodes)) - exact) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=128),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_quadrature_polynomial_exactness(kind, n, seed):
    # weights integrate the degree-N interpolatory basis exactly
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n + 1)
    sys = build_birkhoff(make_grid(kind, n))
    vals = np.polynomial.polynomial.polyval(sys.grid.nodes, c)
    exact = sum(ck * ((1.0 - (-1.0) ** (k + 1)) / (k + 1)) for k, ck in enumerate(c))
    assert abs(quadrature(sys.w_B, vals) - exact) <= 1e-10 * (1.0 + abs(exact))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_endpoint_growth_equivalence(kind, n, seed):
    # y(b) - y(a) == sum w_j ydot(tau_j) for polynomials of degree <= N+1
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n + 2)
    poly = np.polynomial.Polynomial(c)
    sys = build_birkhoff(make_grid(kind, n))
    lhs = poly(1.0) - poly(-1.0)
    rhs = quadrature(sys.w_B, poly.deriv()(sys.grid.nodes))
    assert abs(lhs - rhs) <= 1e-10


# --- integration-by-parts defect -------------------------------------------


def test_ibp_defect_frozen_lgl_values():
    # frozen from the oracle run; decays ~ N^-2, not spectrally
    frozen = {4: 7.934e-2, 8: 2.172e-2, 16: 5.719e-3, 32: 1.473e-3}
    values = {}
    for n, expect in frozen.items():
        got = ibp_defect_norm(build_birkhoff(make_grid("lgl", n)))
        values[n] = got
        assert got == pytest.approx(expect, rel=1e-3)
    norms = [values[n] for n in (4, 8, 16, 32)]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert values[32] <= 2e-3


def test_ibp_defect_symmetric():
    for kind in KINDS:
        d = ibp_defect(build_birkhoff(make_grid(kind, 12)))
        np.testing.assert_allclose(d, d.T, atol=1e-15)


# --- interpolant evaluation -------------------------------------------------


def test_state_interpolant_anchor_and_nodes():
    sys = build_birkhoff(make_grid("lgl", 9, domain=(0.0, 2.0)))
    rng = np.random.default_rng(7)
    v = rng.standard_normal(10)
    x_a = 0.37
    assert eval_state_interpolant(x_a, v, sys, 0.0) == pytest.approx(x_a, abs=1e-14)
    at_nodes = np.array([eval_state_interpolant(x_a, v, sys, t) for t in sys.grid.nodes])
    np.testing.assert_allclose(at_nodes, x_a + sys.B_a @ v, atol=1e-12)


def test_state_interpolant_unit_derivative():
    sys = build_birkhoff(make_grid("cgl", 6, domain=(0.5, 2.5)))
    # interpolant of ydot = 1 anchored at zero is y = tau - tau_a
    assert eval_state_interpolant(0.0, np.ones(7), sys, 2.5) == pytest.approx(2.0, abs=1e-13)
    assert eval_state_interpolant(0.0, np.ones(7), sys, 1.0) == pytest.approx(0.5, abs=1e-13)


def test_costate_interpolant_mirror():
    sys = build_birkhoff(make_grid("lgl", 8, domain=(0.0, 1.0)))
    rng = np.random.default_rng(3)
    om = rng.standard_normal(9)
    lam_b = -0.8
    assert eval_costate_interpolant(lam_b, om, sys, 1.0) == pytest.approx(lam_b, abs=1e-14)
    at_nodes = np.array(
        [eval_costate_interpolant(lam_b, om, sys, t) for t in sys.grid.nodes]
    )
    np.testing.assert_allclose(at_nodes, lam_b + sys.B_b @ om, atol=1e-12)
    # interpolant of lamdot = 1 anchored at the right end
    assert eval_costate_interpolant(0.0, np.ones(9), sys, 0.0) == pytest.approx(
        -1.0, abs=1e-13
    )


def test_interpolant_rejects_outside_domain():
    sys = build_birkhoff(make_grid("lgl", 4))
    with pytest.raises(DomainError):
        eval_state_interpolant(0.0, np.ones(5), sys, 1.5)
    with pytest.raises(DomainError):
        eval_costate_interpolant(0.0, np.ones(5), sys, -1.0001)


def test_vector_evaluation_points():
    sys = build_birkhoff(make_grid("cgl", 8))
    taus = np.linspace(-1.0, 1.0, 33)
    v = np.sin(sys.grid.nodes)
    out = eval_state_interpolant(0.0, v, sys, taus)
    assert out.shape == (33,)


# --- failure modes ----------------------------------------------------------


def test_uniform_builds_then_fails():
    for n in (8, 16, 24, 32):
        assert build_birkhoff(make_grid("uniform", n)).modal.residual <= 1e-10
    for n in (40, 48, 64):
        with pytest.raises(IllConditionedBasisError):
            build_birkhoff(make_grid("uniform", n))


def test_interior_grid_rejected():
    g = Grid(GridKind.UNIFORM, np.array([-0.5, 0.0, 0.5]), (-1.0, 1.0))
    with pytest.raises(UnsupportedGridError):
        build_birkhoff(g)


# --- physical-domain scaling -------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=1, max_value=48),
    a=st.floats(min_value=-5.0, max_value=4.0),
    width=st.floats(min_value=0.1, max_value=10.0),
)
def test_scaling_invariants(kind, n, a, width):
    sys = build_birkhoff(make_grid(kind, n, domain=(a, a + width)))
    one = np.ones(n + 1)
    assert abs(sys.w_B.sum() - width) < 1e-11 * max(1.0, width)
    np.testing.assert_allclose(sys.B_a - sys.B_b, np.outer(one, sys.w_B), atol=1e-11)
    np.testing.assert_allclose(sys.D @ sys.grid.nodes, one, atol=1e-9)


def test_system_json_dict():
    sys = build_birkhoff(make_grid("lgl", 3))
    blob = sys.to_json_dict()
    assert blob["grid"]["kind"] == "lgl"
    np.testing.assert_allclose(np.array(blob["B_a"])[-1], blob["w_B"], atol=1e-14)

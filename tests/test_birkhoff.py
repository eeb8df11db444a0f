import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb
from scipy.integrate import quad

from birktraj import (
    DomainError,
    IllConditionedBasisError,
    InvalidOrderError,
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
from birktraj.grid import MAX_ORDER, Grid, GridKind

KINDS = ("cgl", "lgl")
EPS = np.finfo(float).eps
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


@pytest.mark.parametrize("kind", KINDS)
def test_diff_matrix_finite_past_the_weight_product_overflow(kind):
    # taken directly, the row products of node differences overflow in their
    # partial products from N ~ 1100, though the products themselves are
    # moderate
    g = make_grid(kind, 1200)
    d = build_diff_matrix(g)
    s = g.nodes
    assert np.all(np.isfinite(d))
    assert np.all(np.abs(d @ np.ones(s.size)) <= 1e-13 * np.abs(d).sum(axis=1))
    assert np.all(np.abs(d @ s - 1.0) <= 1e-13 * (np.abs(d) @ np.abs(s)))


# --- LGL cardinal coefficients in closed form ---------------------------------


@pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
def test_lgl_closed_form_matches_vandermonde_solve(n):
    sys = build_birkhoff(make_grid("lgl", n))
    s = sys.grid.nodes
    coef = np.linalg.solve(cheb.chebvander(s, n), np.eye(n + 1))
    anti = cheb.chebint(coef, m=1, k=0, lbnd=-1.0, axis=0)
    b_a = cheb.chebvander(s, n + 1) @ anti
    b_a[0] = 0.0
    assert np.max(np.abs(sys.B_a - b_a)) <= 1e-14
    assert np.max(np.abs(sys.w_B - b_a[-1])) <= 1e-14


def test_lgl_weights_exact_on_chebyshev_to_degree_2n_minus_1():
    n = 1024
    sys = build_birkhoff(make_grid("lgl", n))
    got = cheb.chebvander(sys.grid.nodes, 2 * n - 1).T @ sys.w_B
    assert np.max(np.abs(got - birkhoff._cheb_moments(2 * n - 1))) <= 1e-13


# --- Vandermonde evaluation against a Clenshaw reference ---------------------


def _clenshaw_reference(sys):
    # the antiderivative series summed by Clenshaw's recurrence, node by node
    s = np.asarray(sys.to_reference_coord(sys.grid.nodes), dtype=float)
    b_a = cheb.chebval(s, sys.modal.antiderivative_coeffs).T
    b_a[0] = 0.0
    w = sys.scale * cheb.chebval(1.0, sys.modal.antiderivative_coeffs)
    b_a = sys.scale * b_a
    return b_a, b_a - w[None, :], w


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 1.7)])
@pytest.mark.parametrize(
    "kind, n, rel",
    [(k, n, False) for k in KINDS for n in (1, 4, 16, 64, 256)]
    + [("uniform", n, True) for n in (8, 16, 24, 32)],
)
def test_vandermonde_matches_clenshaw(kind, n, rel, domain):
    sys = build_birkhoff(make_grid(kind, n, domain))
    b_a, b_b, w = _clenshaw_reference(sys)
    tol = 1e-15 * (np.max(np.abs(w)) if rel else 1.0)
    assert np.max(np.abs(sys.B_a - b_a)) <= tol
    assert np.max(np.abs(sys.B_b - b_b)) <= tol
    assert np.max(np.abs(sys.w_B - w)) <= tol


# --- the mirrored build against the plain products it replaces ----------------

MIRROR_CASES = (
    [(k, n) for k in KINDS for n in (1, 2, 3, 16, 17, 256, 257)]
    + [("uniform", n) for n in (1, 2, 8, 15, 32)]
)


def _product_bound(a, b):
    # two evaluations of each inner product of length K differ by at most
    # 2 gamma_K |a| |b| <= 2 K eps |a| |b| entrywise
    return 2 * a.shape[1] * EPS * (np.abs(a) @ np.abs(b))


@pytest.mark.parametrize("domain", [(-1.0, 1.0), (0.0, 1.7)])
@pytest.mark.parametrize("kind, n", MIRROR_CASES)
def test_mirrored_products_match_the_plain_products(kind, n, domain):
    grid = make_grid(kind, n, domain)
    sys = build_birkhoff(grid)
    s, _ = birkhoff._reference_nodes(grid)
    assert np.array_equal(s, -s[::-1])
    half = birkhoff._half_vandermonde(s)
    vander = cheb.chebvander(s, n + 1)
    assert np.array_equal(birkhoff._mirrored_product(half, np.eye(n + 2), n), vander)

    # B_a: every row but the pinned ends is the mirrored product, scaled
    anti = sys.modal.antiderivative_coeffs
    mirrored = birkhoff._mirrored_product(half, anti, n)
    assert np.all(np.abs(mirrored - vander @ anti) <= _product_bound(vander, anti))
    assert np.array_equal(sys.B_a[1:-1], sys.scale * mirrored[1:-1])
    assert np.all(np.abs(sys.w_B / sys.scale - (vander @ anti)[-1])
                  <= _product_bound(vander, anti)[-1])

    # the residual: every entry of T c - I, and its root mean square
    coef, resid = birkhoff._modal_basis(grid.kind, s, half)
    assert resid == sys.modal.residual
    assert np.array_equal(anti, birkhoff._antiderivative_coeffs(coef))
    t_mat = vander[:, : n + 1]
    plain = t_mat @ coef - np.eye(n + 1)
    got = birkhoff._mirrored_product(half, coef, n) - np.eye(n + 1)
    bound = _product_bound(t_mat, coef)
    assert np.all(np.abs(got - plain) <= bound)
    rms = float(np.sqrt(np.mean(plain**2)))
    assert abs(sys.modal.residual - rms) <= float(np.sqrt(np.mean(bound**2))) + 4 * EPS * rms


@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
@pytest.mark.parametrize("n", range(1, 34))
def test_cardinal_coeffs_are_mirrored_bit_for_bit(kind, n):
    # what the half-column residual stands on: column N - j is column j
    # with its odd degrees negated.  An even N's middle column is its own
    # mirror and is evaluated itself, so its odd degrees may hold roundoff.
    s, _ = birkhoff._reference_nodes(make_grid(kind, n))
    coef, _ = birkhoff._modal_basis(GridKind(kind), s, birkhoff._half_vandermonde(s))
    sign = (-1.0) ** np.arange(n + 1)[:, None]
    cols = np.array([j for j in range(n + 1) if 2 * j != n])
    bits = np.uint64
    assert np.array_equal(coef[:, n - cols].view(bits), (sign * coef[:, cols]).view(bits))


CARDINAL_ROUTES = {
    "lgl": "_lgl_cardinal_coeffs",
    "cgl": "_cgl_cardinal_coeffs",
    "uniform": "_solved_cardinal_coeffs",
}


@pytest.mark.parametrize("kind", sorted(CARDINAL_ROUTES))
@pytest.mark.parametrize("n", [8, 9])
def test_residual_gate_fires_on_a_corrupted_left_column(kind, n, monkeypatch):
    route = getattr(birkhoff, CARDINAL_ROUTES[kind])
    delta = 1e-6

    def corrupted(*args):
        left = route(*args)
        left[2, -1] += delta  # the middle column of an even N, else its left neighbour
        return left

    grid = make_grid(kind, n)
    build_birkhoff(grid)
    monkeypatch.setattr(birkhoff, CARDINAL_ROUTES[kind], corrupted)
    with pytest.raises(IllConditionedBasisError, match="modal transform residual .* exceeds") as info:
        build_birkhoff(grid)
    # the corrupted column's defect is delta T_2(s_i) at every node; it
    # counts for its mirror too, but for an even N's middle column, which is
    # its own mirror
    s, _ = birkhoff._reference_nodes(grid)
    copies = 1.0 if n % 2 == 0 else 2.0
    want = math.sqrt(copies) * delta * np.linalg.norm(2 * s**2 - 1) / (n + 1)
    got = float(str(info.value).split()[3])  # printed to 3 significant digits
    assert got == pytest.approx(want, rel=5e-3)


@pytest.mark.parametrize("kind, n", MIRROR_CASES + [("lgl", 1024), ("cgl", 513)])
def test_antiderivative_coeffs_are_chebint(kind, n):
    grid = make_grid(kind, n)
    s, _ = birkhoff._reference_nodes(grid)
    coef, _ = birkhoff._modal_basis(grid.kind, s, birkhoff._half_vandermonde(s))
    got = birkhoff._antiderivative_coeffs(coef)
    assert np.array_equal(build_birkhoff(grid).modal.antiderivative_coeffs, got)
    want = cheb.chebint(coef, m=1, k=0, lbnd=-1.0, axis=0)
    assert np.array_equal(got[1:], want[1:])
    # the constant row -sum_r T_r(-1) a_r: a dot product of n+1 terms here,
    # within 2 gamma_(n+1) sum|a| of the exact sum, and a Clenshaw sum at
    # s = -1 in chebint, whose error grows like n^2
    terms = (-1.0) ** np.arange(2, n + 3)[:, None] * got[1:]
    size = np.sum(np.abs(terms), axis=0)
    exact = np.array([math.fsum(col) for col in terms.T])
    assert np.all(np.abs(got[0] - exact) <= (n + 1) * EPS * size)
    assert np.all(np.abs(got[0] - want[0]) <= (n + 2) ** 2 * EPS * size)


@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
def test_b_form_and_diff_matrix_are_derived_on_read(kind):
    sys = build_birkhoff(make_grid(kind, 16, (0.0, 1.7)))
    assert [f.name for f in dataclasses.fields(sys)] == ["grid", "B_a", "w_B", "modal"]
    assert [f.name for f in dataclasses.fields(sys.modal)] == ["antiderivative_coeffs", "residual"]
    assert np.array_equal(sys.B_b, sys.B_a - sys.w_B[None, :])
    assert np.array_equal(sys.D, build_diff_matrix(sys.grid))
    w2 = np.linspace(0.5, 1.5, sys.N + 1)
    assert np.array_equal(dataclasses.replace(sys, w_B=w2).B_b, sys.B_a - w2[None, :])


@pytest.mark.parametrize("kind", KINDS)
def test_build_keeps_two_matrices_and_d_is_built_in_place(kind):
    n = 512
    grid = make_grid(kind, n, (0.0, 1.7))
    build_birkhoff(make_grid(kind, 8))  # lazy imports stay out of the trace
    unit = 8 * (n + 1) ** 2  # one (N+1)^2 float64 matrix
    tracemalloc.start()
    try:
        sys = build_birkhoff(grid)
        live, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        d = sys.D
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # B_a and the antiderivative coefficients stay; at the build's peak the
    # B_a product's result, its odd half and the half Vandermonde are live
    # besides the antiderivative coefficients (3.04 units measured)
    assert peak <= 3.1 * unit
    assert live <= 2.1 * unit
    # D itself, the half-row differences and a few vectors (1.57 measured)
    assert read_peak - live <= 1.6 * unit
    assert d.shape == (n + 1, n + 1)


def _plain_diff_matrix(s):
    # the barycentric formula on every row, weights as sums of logarithms
    diff = s[:, None] - s[None, :]
    np.fill_diagonal(diff, 1.0)
    logs = np.log(np.abs(diff))
    log_prod = np.sum(logs, axis=1)
    sign = (-1.0) ** np.arange(s.size)
    d = np.exp(np.subtract.outer(log_prod, log_prod)) * np.outer(sign, sign) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d, np.max(np.sum(np.abs(logs), axis=1))


@pytest.mark.parametrize("kind, n", MIRROR_CASES)
def test_mirrored_diff_matrix_matches_the_plain_formula(kind, n):
    grid = make_grid(kind, n)
    d = build_diff_matrix(grid)
    # exact mirror, but for the middle diagonal entry of an even N: there
    # the row sum of an antisymmetric row is rounding, not 0
    mirror = np.ones((n + 1, n + 1), dtype=bool)
    mirror[n // 2, n // 2] = n % 2 == 1
    assert np.array_equal(d[::-1, ::-1][mirror], -d[mirror])
    want, log_size = _plain_diff_matrix(birkhoff._reference_nodes(grid)[0])
    # each log-sum is within (n+1) eps log_size of exact, so each
    # off-diagonal entry within twice that, relative, plus a few roundings
    rel = (2 * (n + 1) * log_size + 8) * EPS
    off = ~np.eye(n + 1, dtype=bool)
    assert np.all(np.abs(d - want)[off] <= rel * np.abs(want)[off])
    row = np.sum(np.abs(want) * off, axis=1)
    assert np.all(np.abs(np.diag(d) - np.diag(want)) <= (rel + (n + 1) * EPS) * row)


@pytest.mark.parametrize("kind", list(GridKind))
def test_asymmetric_grid_is_refused(kind):
    # only a hand-made grid can be asymmetric; make_grid's never are
    grid = Grid(kind, np.array([0.0, 0.3, 0.55, 1.0]), (0.0, 1.0))
    for build in (build_birkhoff, build_diff_matrix):
        with pytest.raises(UnsupportedGridError, match="not symmetric"):
            build(grid)


def test_hand_made_grid_past_the_order_cap_is_refused():
    # make_grid refuses such an order itself; a hand-made grid reaches the build
    n = MAX_ORDER + 1
    grid = Grid(GridKind.UNIFORM, np.linspace(-1.0, 1.0, n + 1), (-1.0, 1.0))
    with pytest.raises(InvalidOrderError, match=f"N = {n} exceeds the build cap"):
        build_birkhoff(grid)


@pytest.mark.parametrize("kind", ["lgl", "cgl", "uniform"])
def test_symmetric_grid_made_by_hand_builds(kind):
    # the nodes of make_grid mapped by hand onto a far-off domain are
    # symmetric only up to the roundoff of the map; they build, and the
    # same as make_grid's own nodes there, while one node moved by 1e-9
    # breaks the symmetry
    n, domain = 12, (1000.0, 1000.5)
    s = make_grid(kind, n).nodes
    tau = 1000.25 + 0.25 * s
    tau[0], tau[-1] = domain
    ref = build_birkhoff(make_grid(kind, n, domain))
    sys = build_birkhoff(Grid(GridKind(kind), tau, domain))
    assert np.max(np.abs(sys.B_a - ref.B_a)) <= 1e-12
    moved = tau.copy()
    moved[3] += 1e-9
    with pytest.raises(UnsupportedGridError, match="not symmetric"):
        build_birkhoff(Grid(GridKind(kind), moved, domain))


def test_moment_crosscheck_fires_on_corrupted_antiderivative(monkeypatch):
    antiderivative = birkhoff._antiderivative_coeffs

    def corrupted(coef):
        anti = antiderivative(coef)
        anti[3, 2] += 1e-9
        return anti

    grid = make_grid("lgl", 16)
    build_birkhoff(grid)
    monkeypatch.setattr(birkhoff, "_antiderivative_coeffs", corrupted)
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


def test_interpolants_refuse_node_values_of_another_shape():
    sys = build_birkhoff(make_grid("lgl", 4))
    with pytest.raises(ShapeError, match=r"V must have shape \(5,\)"):
        eval_state_interpolant(0.0, np.zeros(4), sys, 0.5)
    with pytest.raises(ShapeError, match=r"Omega must have shape \(5,\)"):
        eval_costate_interpolant(0.0, np.zeros((5, 1)), sys, 0.5)


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

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birktraj import (
    Grid,
    GridKind,
    InvalidDomainError,
    InvalidOrderError,
    UnsupportedGridError,
    make_grid,
    to_reference,
)
from birktraj import grid as grid_module
from birktraj.grid import MAX_ORDER, _lgl_reference_nodes

EPS = np.finfo(float).eps


def test_lgl_closed_forms():
    np.testing.assert_allclose(make_grid("lgl", 1).nodes, [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(make_grid("lgl", 2).nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    r = 1.0 / np.sqrt(5.0)
    np.testing.assert_allclose(
        make_grid("lgl", 3).nodes, [-1.0, -r, r, 1.0], atol=1e-15
    )


def test_lgl_n4_interior_nodes():
    # roots of P_4' are 0 and +-sqrt(3/7)
    r = np.sqrt(3.0 / 7.0)
    np.testing.assert_allclose(
        make_grid("lgl", 4).nodes, [-1.0, -r, 0.0, r, 1.0], atol=1e-15
    )


def recurrence_newton_lgl_nodes(n):
    """Reference: Newton on all nodes from Chebyshev seeds, P_n and P_{n-1}
    by the three-term recurrence in Python."""
    if n == 1:
        return np.array([-1.0, 1.0])
    s = -np.cos(np.pi * np.arange(n + 1) / n)
    for _ in range(100):
        p_prev, p = np.ones_like(s), s
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * s * p - k * p_prev) / (k + 1)
        step = (s * p - p_prev) / ((n + 1) * p)
        s = s - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    return s


@pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 255, 256, 1023, 1024, 4096])
def test_lgl_nodes_match_the_recurrence_newton(n):
    got = _lgl_reference_nodes(n)
    assert np.array_equal(got, -got[::-1])  # the right half is the exact mirror
    assert np.max(np.abs(got - recurrence_newton_lgl_nodes(n))) <= 2 * EPS


@pytest.mark.parametrize("n", [*range(2, 65), 255, 256, 1023, 1024, 4095, 4096])
def test_lgl_newton_takes_at_most_three_passes(n, monkeypatch):
    calls, eval_legendre = [], grid_module.eval_legendre

    def counted(degree, s):
        calls.append(degree)
        return eval_legendre(degree, s)

    monkeypatch.setattr(grid_module, "eval_legendre", counted)
    _lgl_reference_nodes(n)
    assert 2 <= len(calls) <= 6  # P_n and P_{n-1} once per pass


def test_cgl_closed_forms():
    np.testing.assert_allclose(make_grid("cgl", 2).nodes, [-1.0, 0.0, 1.0], atol=1e-16)
    half = 0.5
    np.testing.assert_allclose(
        make_grid("cgl", 3).nodes, [-1.0, -half, half, 1.0], atol=1e-15
    )


def test_uniform_unit_interval():
    g = make_grid("uniform", 4, domain=(0.0, 1.0))
    np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_kind_aliases():
    assert make_grid("lgl", 3).kind is GridKind.LEGENDRE_GAUSS_LOBATTO
    assert make_grid("CGL", 3).kind is GridKind.CHEBYSHEV_GAUSS_LOBATTO
    assert make_grid(GridKind.UNIFORM, 3).kind is GridKind.UNIFORM
    for name in ("radau", "legendre-gauss-lobatto"):
        with pytest.raises(UnsupportedGridError):
            make_grid(name, 3)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["cgl", "lgl", "uniform"]),
    n=st.integers(min_value=1, max_value=200),
    a=st.floats(min_value=-50.0, max_value=49.0),
    width=st.floats(min_value=1e-3, max_value=100.0),
)
def test_nodes_strictly_increasing_and_inside(kind, n, a, width):
    g = make_grid(kind, n, domain=(a, a + width))
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] == a and g.nodes[-1] == a + width
    assert g.endpoint_inclusive


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["cgl", "lgl"]), n=st.integers(min_value=1, max_value=128))
def test_lobatto_symmetry(kind, n):
    # node sets symmetric about the domain midpoint
    g = make_grid(kind, n, domain=(-2.0, 5.0))
    mid = 1.5
    np.testing.assert_allclose(g.nodes + g.nodes[::-1], 2 * mid, atol=1e-14)


def test_large_order_build():
    g = make_grid("lgl", 1024)
    assert np.all(np.diff(g.nodes) > 0)
    with pytest.raises(InvalidOrderError):
        make_grid("lgl", MAX_ORDER + 1)
    with pytest.raises(InvalidOrderError):
        make_grid("cgl", 0)
    with pytest.raises(InvalidOrderError):  # a bool is an int, but no order
        make_grid("lgl", True)


def test_domain_validation():
    with pytest.raises(InvalidDomainError):
        make_grid("cgl", 4, domain=(1.0, 1.0))
    with pytest.raises(InvalidDomainError):
        make_grid("cgl", 4, domain=(2.0, -1.0))
    with pytest.raises(InvalidDomainError):
        make_grid("cgl", 4, domain=(0.0, np.inf))


def test_explicit_grid_validation():
    with pytest.raises(InvalidDomainError):
        Grid(GridKind.UNIFORM, np.array([0.0, 0.5, 0.25]), (0.0, 1.0))
    with pytest.raises(InvalidDomainError):
        Grid(GridKind.UNIFORM, np.array([0.0, 2.0]), (0.0, 1.0))
    with pytest.raises(InvalidDomainError, match="must be finite with a < b"):
        Grid(GridKind.UNIFORM, np.array([0.0, 1.0]), (1.0, 0.0))
    with pytest.raises(InvalidOrderError, match="at least two nodes"):
        Grid(GridKind.UNIFORM, np.array([0.5]), (0.0, 1.0))
    with pytest.raises(InvalidDomainError, match="nodes must be finite"):
        Grid(GridKind.UNIFORM, np.array([0.0, np.nan, 1.0]), (0.0, 1.0))
    # strictly interior nodes are constructible (transcription rejects later)
    g = Grid(GridKind.UNIFORM, np.array([0.25, 0.5, 0.75]), (0.0, 1.0))
    assert not g.endpoint_inclusive


def test_nodes_read_only():
    g = make_grid("lgl", 4)
    with pytest.raises(ValueError):
        g.nodes[0] = 0.0


def test_json_round_trip():
    g = make_grid("cgl", 5, domain=(0.0, 3.0))
    blob = json.loads(json.dumps(g.to_json_dict()))
    assert blob["kind"] == "cgl"
    assert blob["N"] == 5
    assert blob["domain"] == [0.0, 3.0]
    assert blob["nodes"] == g.nodes.tolist()


def test_to_reference_exact_endpoints():
    g = make_grid("lgl", 7, domain=(0.1, 2.7))
    ref, amap = to_reference(g)
    assert ref.nodes[0] == -1.0 and ref.nodes[-1] == 1.0
    np.testing.assert_allclose(amap.center + amap.scale * ref.nodes, g.nodes, atol=1e-14)
    np.testing.assert_allclose(amap.to_reference(g.nodes)[1:-1], ref.nodes[1:-1], atol=1e-15)

"""The mapped basis: one node validation, one node order, one weight build."""

import numpy as np
import pytest

from graspa import (
    ExperimentConfig,
    Interval,
    PiecewiseDomain,
    build_interpolant,
    equispaced_nodes,
    lagrange_matrix,
    lebesgue_constant,
    lebesgue_function,
    lebesgue_grid,
    lebesgue_max,
    method_chain,
    run_comparison,
    sgibbs_chain,
)
from graspa import interpolation
from graspa.exceptions import EvaluationError
from graspa.experiments import DEFAULT_KAPPA, FUNCTIONS
from graspa.interpolation import mapped_basis

DOM1 = PiecewiseDomain(Interval(-1, 1), (0.0,))
DOM_F2 = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))

# each entry point that takes raw nodes, with the chain and domain given
ENTRY_POINTS = {
    "build_interpolant": lambda x, chain, dom: build_interpolant(x, np.ones(np.shape(x)),
                                                                 chain),
    "lebesgue_function": lambda x, chain, dom: lebesgue_function(x, chain, 0.3),
    "lebesgue_max": lambda x, chain, dom: lebesgue_max(x, chain, dom),
    "lagrange_matrix": lambda x, chain, dom: lagrange_matrix(x, chain, [0.3]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("nodes, message", [
    (0.5, "nonempty 1-D"),
    ([], "nonempty 1-D"),
    ([[-1.0, 0.0], [0.5, 1.0]], "nonempty 1-D"),
    ([-1.0, np.nan, 1.0], "finite"),
    ([-1.0, 0.0, np.inf], "finite"),
], ids=["scalar", "empty", "2-D", "nan", "inf"])
def test_raw_nodes_are_checked_as_node_sets_are(entry, nodes, message):
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](nodes, None, DOM1)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_finite_node_whose_image_overflows_is_a_numerical_failure(entry):
    # (tau - 1) kappa leaves the float range on f2's last two subintervals
    with pytest.raises(EvaluationError):
        ENTRY_POINTS[entry](equispaced_nodes(7).nodes, sgibbs_chain(1e308, DOM_F2), DOM_F2)


@pytest.mark.parametrize("function, n", [("f1", 23), ("f1", 51), ("f2", 29)])
@pytest.mark.parametrize("method", ["classical", "sgibbs", "graspa"])
def test_results_do_not_depend_on_the_node_order(function, n, method):
    fn, cuts = FUNCTIONS[function]
    dom = PiecewiseDomain(Interval(-1, 1), cuts)
    chain = method_chain(method, dom, DEFAULT_KAPPA, n)
    x = equispaced_nodes(n).nodes
    perm = np.random.default_rng(n).permutation(x.size)
    y = x[perm]
    basis = mapped_basis(y, chain)
    np.testing.assert_array_equal(basis.nodes, y[basis.order])
    np.testing.assert_array_equal(basis.nodes, x)
    grid = lebesgue_grid(dom, x)
    np.testing.assert_array_equal(lebesgue_function(y, chain, grid),
                                  lebesgue_function(x, chain, grid))
    assert lebesgue_max(y, chain, dom) == lebesgue_max(x, chain, dom)
    shuffled, ordered = lebesgue_constant(y, chain, dom), lebesgue_constant(x, chain, dom)
    np.testing.assert_array_equal(shuffled.lebesgue_values, ordered.lebesgue_values)
    assert shuffled.lebesgue_constant == ordered.lebesgue_constant
    np.testing.assert_array_equal(lagrange_matrix(y, chain, grid[::40]),
                                  lagrange_matrix(x, chain, grid[::40])[perm])
    shuffled, ordered = build_interpolant(y, fn(y), chain), build_interpolant(x, fn(x), chain)
    for name in ("nodes", "mapped_nodes", "weights", "values"):
        np.testing.assert_array_equal(getattr(shuffled, name), getattr(ordered, name))
    np.testing.assert_array_equal(shuffled(grid), ordered(grid))


@pytest.mark.parametrize("spec", ["auto", 50])
def test_grid_midpoints_are_those_of_neighbours_on_the_line(spec):
    x = equispaced_nodes(23).nodes
    y = np.random.default_rng(5).permutation(x)
    grid = lebesgue_grid(DOM1, y, spec)
    assert grid.tobytes() == lebesgue_grid(DOM1, x, spec).tobytes()
    assert np.isin((x[:-1] + x[1:]) / 2.0, grid).all()


@pytest.mark.parametrize("entry, expected", [
    (lambda x: mapped_basis(x, method_chain("graspa", DOM1, 1e4)),
     ["_node_array", "_node_factor"]),
    (interpolation.barycentric_weights, ["_node_array", "_node_factor"]),
    (lambda x: interpolation.vandermonde_coefficients(x, np.ones(x.size)), ["_node_array"]),
], ids=["mapped_basis", "barycentric_weights", "vandermonde_coefficients"])
def test_each_entry_checks_its_nodes_and_forms_their_factor_once(monkeypatch, entry,
                                                                 expected):
    calls = []
    for name in ("_node_array", "_node_factor"):
        real = getattr(interpolation, name)
        monkeypatch.setattr(interpolation, name, lambda x, name=name, real=real:
                            calls.append(name) or real(x))
    entry(equispaced_nodes(11).nodes)
    assert calls == expected


def test_a_two_field_sweep_forms_each_cells_weights_once(monkeypatch):
    calls = []
    real = interpolation._weights  # what barycentric_weights and mapped_basis run
    monkeypatch.setattr(interpolation, "_weights",
                        lambda s, factor: calls.append(s.size) or real(s, factor))
    cfg = ExperimentConfig(function="f1", n_values=(11, 23), methods=("sgibbs", "graspa"))
    res = run_comparison(cfg, ("rmae", "lebesgue"))
    assert all(c.ok and c.rmae > 0 and c.lebesgue > 1 for c in res.cells)
    assert sorted(calls) == [12, 12, 24, 24]

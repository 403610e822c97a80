import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graspa import (
    ExperimentConfig,
    Interval,
    PiecewiseDomain,
    bg_chebyshev_nodes,
    build_figure,
    build_interpolant,
    equispaced_nodes,
    f1,
    f2,
    kte,
    method_chain,
    affine_to_reference,
    partition_nodes,
    rmae,
    run_comparison,
    vn_correction,
)
from graspa import experiments
from graspa.cli import main
from graspa.exceptions import NodeCollisionError
from graspa.experiments import F2_SWEEP, ODD_SWEEP, sweep_table
from graspa.interpolation import barycentric_weights, mapped_basis

DOM1 = PiecewiseDomain(Interval(-1, 1), (0.0,))


def test_f1_spot_values():
    assert f1(-0.5) == 0.5                      # the quadratic vanishes there
    assert_allclose(f1(0.0), -6.0 / 13.0, rtol=1e-15)   # left branch at the jump
    assert_allclose(f1(0.5), np.sin(1.0) * np.cos(1.5) + 0.5, rtol=1e-15)
    assert_allclose(f1(0.5), 0.5595233027498767, rtol=1e-12)


def test_f2_spot_values():
    assert f2(-0.75) == 0.5
    assert f2(0.25) == 0.0
    assert_allclose(f2(0.75), np.sin(1.5) * np.cos(2.25) + 0.5, rtol=1e-15)
    assert_allclose(f2(0.75), -0.12660003938283904, rtol=1e-12)
    # branch selection at the jumps follows the left-closed rule
    assert_allclose(f2(-0.5), 1.0 / 26.0 - 0.5, rtol=1e-15)
    assert f2(0.0) == 0.5
    assert f2(0.5) == 1.0


def test_f1_jump_at_zero():
    eps = 1e-12
    assert abs(f1(0.0) - f1(eps)) > 0.9


def test_rmae_trivial_cases():
    grid = np.linspace(-1, 1, 50)
    exact = build_interpolant(equispaced_nodes(3), f1(equispaced_nodes(3).nodes))
    assert rmae(lambda x: np.asarray(f1(x)), f1(grid), grid) == 0.0
    assert_allclose(rmae(lambda x: np.full_like(np.asarray(x), 0.9),
                         np.ones_like(grid), grid), 0.1, rtol=1e-15)
    with pytest.raises(ValueError):
        rmae(exact, np.zeros_like(grid), grid)


@pytest.mark.parametrize("compute, error, message", [
    (lambda: rmae(np.sin, [], []), ValueError, "empty evaluation grid"),
    (lambda: rmae(np.sin, np.ones(3), np.linspace(-1, 1, 4)), ValueError, "sizes differ"),
    (lambda: rmae(np.sin, [1.0, np.nan], [0.0, 1.0]), ValueError, "must be finite"),
    (lambda: ExperimentConfig(rmae_grid=1), ValueError, "at least 2 points"),
    (lambda: run_comparison(ExperimentConfig(n_values=(3,), methods=("classical",)),
                            ("rmae",)).cell("graspa", 3), KeyError, "no cell"),
], ids=["rmae-empty-grid", "rmae-sizes-differ", "rmae-non-finite-truth",
        "rmae-grid-below-2", "cell-not-in-the-sweep"])
def test_malformed_rmae_inputs_and_cell_lookups_are_refused(compute, error, message):
    with pytest.raises(error, match=message):
        compute()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(function="f3")
    with pytest.raises(ValueError):
        ExperimentConfig(kappa=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(methods=())
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("classical", "resample"))
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(0,))
    for bad in ({"n_values": 5}, {"n_values": (5.7,)}, {"n_values": (True,)},
                {"cuts": 0.0}, {"kappa": None}, {"kappa": True},
                {"kappa": float("inf")}, {"kappa": "inf"},
                {"methods": "graspa"}, {"rmae_grid": 33.5}, {"lebesgue_grid": "x"}):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    with pytest.raises(ValueError, match="^n must be a flat list"):
        ExperimentConfig(n_values=[1, [2]])  # ragged: numpy's own text named no key
    # a repeated cell ran twice and wrote two rows or two equal columns
    for key, bad in (("n", {"n_values": (11, 11)}), ("n", {"n_values": (11, "11.0")}),
                     ("methods", {"methods": ("graspa", "classical", "graspa")})):
        with pytest.raises(ValueError, match=f"^{key} lists a value twice"):
            ExperimentConfig(function="f1", **bad)
    cfg = ExperimentConfig(n_values=(11.0, "23"), kappa=500, lebesgue_grid="300")
    assert cfg.n_values == (11, 23) and cfg.lebesgue_grid == 300
    assert cfg.kappa == 500.0 and isinstance(cfg.kappa, float)
    cfg = ExperimentConfig(function="f2")
    assert cfg.cuts == (-0.5, 0.0, 0.5)
    assert cfg.n_values == (13, 29, 41)   # the 4j+1 schedule is the default
    assert ExperimentConfig(function="f1").n_values == (11, 23, 51)


def test_config_json_roundtrip():
    cfg = ExperimentConfig(function="f2", n_values=(13, 29), kappa=500.0,
                           methods=("sgibbs", "graspa"), rmae_grid=100)
    again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict({"function": "f1", "grid": 10})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict([])


def test_vn_misuse_is_a_hard_error():
    cfg = ExperimentConfig(function="f1", n_values=(11,), methods=("graspa+vn",))
    with pytest.raises(ValueError):
        run_comparison(cfg)  # odd degree
    with pytest.raises(ValueError):
        run_comparison(ExperimentConfig(function="f2", n_values=(8,),
                                        methods=("graspa+vn",)))  # three cuts


def test_comparison_f1_ordering_and_exactness():
    cfg = ExperimentConfig(function="f1", n_values=(23,),
                           methods=("classical", "sgibbs", "graspa"))
    res = run_comparison(cfg)
    errs = {m: res.cell(m, 23).rmae for m in cfg.methods}
    assert errs["graspa"] < errs["sgibbs"] < errs["classical"]


def test_interpolation_conditions_survive_pipeline():
    for fn, function, n in ((f1, "f1", 23), (f2, "f2", 29)):
        cfg = ExperimentConfig(function=function, n_values=(n,),
                               methods=("sgibbs", "graspa"))
        nodes = equispaced_nodes(n)
        values = fn(nodes.nodes)
        for m in cfg.methods:
            chain = method_chain(m, cfg.domain(), cfg.kappa, n)
            interp = build_interpolant(nodes, values, chain)
            assert np.max(np.abs(interp(nodes.nodes) - values)) == 0.0


def test_comparison_is_deterministic():
    cfg = ExperimentConfig(function="f1", n_values=(11, 23),
                           methods=("classical", "graspa"))
    a = run_comparison(cfg)
    b = run_comparison(cfg)
    assert a.cells == b.cells
    for key in a.samples:
        assert np.array_equal(a.samples[key], b.samples[key])


def test_graspa_rmae_improves_monotonically_f1():
    cfg = ExperimentConfig(function="f1", n_values=(11, 23, 51), methods=("graspa",))
    res = run_comparison(cfg)
    e11, e23, e51 = (res.cell("graspa", n).rmae for n in (11, 23, 51))
    assert e51 < e23 < e11


def test_odd_sweep_node_images_follow_bg_chebyshev():
    # mapped node images per side sit on the (0, 2/n) and (2/n, 0) families
    for n in (11, 23, 51):
        part = partition_nodes(equispaced_nodes(n), DOM1)
        m = part.cardinalities[0]
        offs = 2.0 / n
        u1 = np.sort(kte(1.0, affine_to_reference(part.parts[0], 1, DOM1)))
        u2 = np.sort(kte(1.0, affine_to_reference(part.parts[1], 2, DOM1)))
        assert_allclose(u1, bg_chebyshev_nodes(m - 1, 0.0, offs).nodes, atol=1e-12)
        assert_allclose(u2, bg_chebyshev_nodes(m - 1, offs, 0.0).nodes, atol=1e-12)


def test_even_split_node_correction_offsets():
    # the correction halves the first gap: the realized left offset drops from
    # 4/n to exactly 2/(n-1) (the right endpoint stays pinned at 1)
    for n in (8, 16, 32):
        part = partition_nodes(equispaced_nodes(n), DOM1)
        x2 = part.parts[1]
        u_plain = np.sort(kte(1.0, affine_to_reference(x2, 2, DOM1)))
        u_vn = np.sort(kte(1.0, affine_to_reference(
            vn_correction(n, DOM1, x2), 2, DOM1)))
        assert_allclose(u_plain, bg_chebyshev_nodes(n // 2 - 1, 4.0 / n, 0.0).nodes,
                        atol=1e-12)
        assert_allclose(u_vn, bg_chebyshev_nodes(n // 2 - 1, 2.0 / (n - 1), 0.0).nodes,
                        atol=1e-12)


def test_overflowing_cells_are_flagged_not_fatal():
    # a shift so large that the mapped nodes collapse in floating point
    cfg = ExperimentConfig(function="f1", n_values=(11,), methods=("sgibbs",),
                           kappa=1e300)
    res = run_comparison(cfg)
    cell = res.cell("sgibbs", 11)
    assert not cell.ok and np.isnan(cell.rmae) and np.isnan(cell.lebesgue)
    assert cell.note


@pytest.mark.parametrize("name", ["mapped_basis", "_cell_search_max"])
def test_a_plain_value_error_inside_a_cell_propagates(monkeypatch, tmp_path, name):
    # only numerical failures flag a cell; a bug that raises a plain
    # ValueError inside it (here the basis build or the search) is not one,
    # and the CLI exits 2 on it instead of writing a NaN cell
    def broken(*args, **kwargs):
        raise ValueError("a config bug")

    monkeypatch.setattr(experiments, name, broken)
    cfg = ExperimentConfig(function="f1", n_values=(11,), methods=("graspa",))
    with pytest.raises(ValueError, match="a config bug"):
        run_comparison(cfg)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg.to_json_dict()))
    assert main(["experiment", str(path), "--out-dir", str(tmp_path)]) == 2
    assert not (tmp_path / "sweep.csv").exists()


def test_colliding_nodes_raise_the_value_error_subclass():
    # what the sweep flags as a numerical cell failure
    with pytest.raises(NodeCollisionError, match="mapped nodes collide"):
        mapped_basis(equispaced_nodes(11), method_chain("sgibbs", DOM1, 1e300))
    with pytest.raises(NodeCollisionError, match="points must be distinct"):
        barycentric_weights([0.0, 1.0, 1.0])
    assert issubclass(NodeCollisionError, ValueError)


def test_sweeps_compute_only_the_fields_asked_for(monkeypatch):
    calls = {"search": 0, "grid": 0, "interpolant": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in (("search", "_cell_search_max"), ("grid", "_constant_grid"),
                      ("interpolant", "_interpolant")):
        monkeypatch.setattr(experiments, name, counted(key, getattr(experiments, name)))
    cfg = ExperimentConfig(function="f1", n_values=(11, 23), methods=("sgibbs", "graspa"))
    res = run_comparison(cfg, ("rmae",))
    assert calls == {"search": 0, "grid": 0, "interpolant": 4}
    assert all(c.ok and c.lebesgue is None and c.rmae > 0 for c in res.cells)
    assert len(res.samples) == 4
    res = run_comparison(cfg, ("lebesgue",))
    assert calls == {"search": 4, "grid": 2, "interpolant": 4}
    assert all(c.ok and c.rmae is None and c.lebesgue > 1 for c in res.cells)
    assert res.samples == {}
    # a field that was not computed is None, one that failed is NaN
    cell = run_comparison(ExperimentConfig(function="f1", n_values=(11,),
                                           methods=("sgibbs",), kappa=1e300),
                          ("lebesgue",)).cell("sgibbs", 11)
    assert not cell.ok and cell.rmae is None and np.isnan(cell.lebesgue)
    with pytest.raises(ValueError, match="unknown sweep fields"):
        run_comparison(cfg, ("rmae", "lambda"))


@pytest.mark.parametrize("function, sweep", [("f1", ODD_SWEEP), ("f2", F2_SWEEP)])
def test_field_selected_columns_equal_the_full_sweeps(function, sweep):
    cfg = ExperimentConfig(function=function, n_values=sweep,
                           methods=("classical", "sgibbs", "graspa"))
    full = run_comparison(cfg)
    for fieldname in ("rmae", "lebesgue"):
        alone = run_comparison(cfg, (fieldname,))
        assert (sweep_table("t", alone, (fieldname,)).rows.tobytes()
                == sweep_table("t", full, (fieldname,)).rows.tobytes()), fieldname


def test_fixed_shift_divergence_onset_f2():
    # with the shift held at 1e4, the growth of the cross-subinterval factors
    # eventually beats the shift suppression: per-step growth jumps from a few
    # percent to nearly 3x past the onset
    cfg = ExperimentConfig(function="f2", n_values=(41, 77, 81, 85, 89, 93),
                           methods=("graspa",))
    res = run_comparison(cfg)
    lam = {n: res.cell("graspa", n).lebesgue for n in cfg.n_values}
    assert lam[81] / lam[77] < 1.1
    assert lam[89] / lam[85] > 2.0
    assert lam[93] > 10.0 * lam[41]


_LAMBDA = ("lambda_classical", "lambda_sgibbs", "lambda_graspa")
_RMAE = ("rmae_classical", "rmae_sgibbs", "rmae_graspa")
_CURVES = ("x", "f", "r_classical", "r_sgibbs", "r_graspa")
_MATRIX = tuple(experiments.FLOAT_FORMAT % x for x in np.linspace(-1.0, 1.0, 100))
# figure id -> (name, header, row count) of each table it builds
_FIGURE_TABLES = {
    "fig1": [("fig1", ("x",) + _LAMBDA, 4821)],
    "fig2": [("fig2", ("n",) + _LAMBDA, 11)],
    "fig3": [("fig3", _CURVES, 332)],
    "fig3bis": [("fig3bis", ("n",) + _RMAE, 11)],
    "fig4": [("fig4", _MATRIX, 51), ("fig4_vn", _MATRIX, 51)],
    "fig5": [("fig5", ("n", "lambda_classical", "lambda_sgibbs", "lambda_graspa_vn",
                       "rmae_classical", "rmae_sgibbs", "rmae_graspa_vn"), 11)],
    "fig6": [("fig6", ("x",) + _LAMBDA, 12025)],
    "fig7": [("fig7", _CURVES, 332)],
    "fig8": [("fig8", ("n",) + _LAMBDA, 10)],
    "fig8bis": [("fig8bis", ("n",) + _RMAE, 10)],
    "fig9": [("fig9", ("n", "lambda_graspa"), 20)],
}


def test_figure_tables_schema():
    # every figure id: the tables' names, headers and shapes, finite values,
    # and Lebesgue values of at least 1
    assert tuple(_FIGURE_TABLES) == experiments.FIGURE_IDS
    built = {fig_id: build_figure(fig_id) for fig_id in _FIGURE_TABLES}
    for fig_id, want in _FIGURE_TABLES.items():
        assert [(t.name, t.header, t.rows.shape) for t in built[fig_id]] == [
            (name, header, (rows, len(header))) for name, header, rows in want]
        for t in built[fig_id]:
            assert np.isfinite(t.rows).all(), t.name
            lam = [i for i, h in enumerate(t.header) if h.startswith("lambda_")]
            assert (t.rows[:, lam] >= 1.0).all(), t.name
    assert built["fig4"][0].kind == "matrix"
    assert built["fig9"][0].rows[-1, 0] == 89.0
    with pytest.raises(ValueError):
        build_figure("fig10")

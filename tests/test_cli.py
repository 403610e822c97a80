import argparse
import csv
import io
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from graspa.cli import _CSV_BLOCK_VALUES, _write_figure_outputs, main
from graspa.experiments import FigureOutput

GOLDEN_EQUISPACED_N10 = 29.899955440644437


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def test_nodes_equispaced(tmp_path):
    assert main(["nodes", "--n", "2", "--kind", "equispaced",
                 "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "nodes.csv")
    assert header == ["node"]
    assert [r[0] for r in rows] == [-1.0, 0.0, 1.0]


def test_nodes_bgcheb(tmp_path):
    assert main(["nodes", "--n", "3", "--kind", "bgcheb", "--beta", "0",
                 "--gamma", "0", "--out-dir", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "nodes.csv")
    np.testing.assert_allclose([r[0] for r in rows], [-1.0, -0.5, 0.5, 1.0],
                               atol=1e-15)


def test_nodes_mapped_graspa(tmp_path):
    assert main(["nodes", "--n", "23", "--kind", "equispaced", "--map", "graspa",
                 "--cuts", "0", "--kappa", "10000", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "nodes.csv")
    assert header == ["node", "mapped"]
    mapped = np.array([r[1] for r in rows])
    assert mapped.size == 24
    assert int(np.sum(mapped > 5000.0)) == 12


def test_map_command(tmp_path):
    assert main(["map", "--map", "kte", "--grid", "11",
                 "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "map.csv")
    assert header == ["x", "mapped"]
    assert len(rows) == 11


def test_interp_schema(tmp_path):
    assert main(["interp", "--function", "f1", "--method", "graspa", "--n", "23",
                 "--cuts", "0", "--grid", "332", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "interp.csv")
    assert header == ["x", "f", "r"]
    assert len(rows) == 332


def test_lebesgue_golden(tmp_path, capsys):
    assert main(["lebesgue", "--method", "classical", "--n", "10",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("lebesgue_constant")][0]
    value = float(line.split("=")[1])
    assert abs(value - GOLDEN_EQUISPACED_N10) <= 1e-3 * GOLDEN_EQUISPACED_N10


def test_lagmatrix_shape(tmp_path):
    assert main(["lagmatrix", "--n", "51", "--grid", "100", "--method", "graspa",
                 "--cuts", "0", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "lagmatrix.csv")
    assert len(header) == 100
    assert len(rows) == 52 and len(rows[0]) == 100


def test_invalid_flags_exit_2(tmp_path):
    assert main(["nodes", "--n", "not-a-number"]) == 2
    assert main(["nodes"]) == 2
    assert main(["interp", "--function", "f9", "--n", "5"]) == 2
    assert main(["lebesgue", "--n", "0", "--out-dir", str(tmp_path)]) == 2


def test_strict_escalates_balance_warning(tmp_path, capsys):
    args = ["interp", "--function", "f1", "--method", "graspa", "--n", "10",
            "--cuts", "0.9", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert "balance" in capsys.readouterr().err
    assert main(args + ["--strict"]) == 2


def test_experiment_figure_and_determinism(tmp_path):
    assert main(["experiment", "fig2", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fig2.csv")
    assert header == ["n", "lambda_classical", "lambda_sgibbs", "lambda_graspa"]
    assert [r[0] for r in rows] == list(range(11, 52, 4))
    first = (tmp_path / "fig2.csv").read_bytes()
    assert main(["experiment", "fig2", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fig2.csv").read_bytes() == first


def test_experiment_fig9_shows_late_increase(tmp_path):
    assert main(["experiment", "fig9", "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "fig9.csv")
    assert header == ["n", "lambda_graspa"]
    assert rows[-1][0] == 89.0
    lam = {int(r[0]): r[1] for r in rows}
    assert lam[89] > 3.0 * lam[81]  # the late fixed-shift increase


def test_experiment_svg_output(tmp_path):
    assert main(["experiment", "fig3bis", "--svg", "--out-dir", str(tmp_path)]) == 0
    svg = (tmp_path / "fig3bis.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_experiment_json_config(tmp_path):
    cfg = {"function": "f1", "cuts": [0.0], "kappa": 10000, "n": [11, 23],
           "methods": ["classical", "graspa"], "rmae_grid": 332,
           "lebesgue_grid": "auto"}
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", str(cfg_path), "--svg",
                 "--out-dir", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["n", "rmae_classical", "rmae_graspa",
                      "lambda_classical", "lambda_graspa"]
    assert len(rows) == 2
    assert (tmp_path / "sweep.svg").read_text().startswith("<svg")


def test_experiment_numerical_failure_exits_3(tmp_path):
    cfg = {"function": "f1", "n": [11, 23], "methods": ["sgibbs"],
           "kappa": 1e300}
    cfg_path = tmp_path / "collapse.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", str(cfg_path), "--svg",
                 "--out-dir", str(tmp_path)]) == 3
    header, rows = read_csv(tmp_path / "collapse.csv")
    assert all(np.isnan(v) for row in rows for v in row[1:])
    assert not (tmp_path / "collapse.svg").exists()


def test_experiment_rejects_bad_target(tmp_path):
    assert main(["experiment", "fig99", "--out-dir", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    for text in ('{"function": "f1", "unknown_key": 1}', '{"n": 5}', '{"cuts": 0.0}',
                 '{"kappa": null}', '{"n": [5.7]}', '{"n": [true]}', '[]',
                 '{"methods": "graspa"}', '{"rmae_grid": null}', '{"n": [1, [2]]}',
                 '{"kappa": "inf"}', '{"kappa": Infinity}'):
        bad.write_text(text)
        assert main(["experiment", str(bad), "--out-dir", str(tmp_path)]) == 2, text
        assert not (tmp_path / "bad.csv").exists()


def test_experiment_coarse_lebesgue_grid_exits_2(tmp_path, capsys):
    # a per-subinterval count that resolves below the 1000-point floor is a
    # config error, not a numerical failure of the cells; 480 per side passes
    # at degree 51 (1010 points) but not at 11 (969), so every degree's grid
    # is checked, not only the first one's
    cfg_path = tmp_path / "coarse.json"
    for text in ('{"function": "f1", "n": [11], "lebesgue_grid": 300}',
                 '{"function": "f1", "n": [51, 11], "lebesgue_grid": 480}'):
        cfg_path.write_text(text)
        assert main(["experiment", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        assert "need at least 1000" in capsys.readouterr().err
        assert not (tmp_path / "coarse.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["--kind", "bgcheb", "--interval", "0,2"], "--interval"),
    (["--kind", "bgcheb", "--interval=-1,2", "--map", "sgibbs", "--cuts", "0"],
     "--interval"),
    (["--beta", "0.1"], "--beta"),
    (["--kind", "equispaced", "--gamma", "0.1"], "--gamma"),
])
def test_nodes_refuses_options_its_family_ignores(tmp_path, capsys, argv, flag):
    assert main(["nodes", "--n", "8"] + argv + ["--out-dir", str(tmp_path)]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "nodes.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--kind", "bgcheb", "--beta", "0.1", "--gamma", "0.1"],
    ["--kind", "bgcheb", "--interval=-1.0,1"],  # [-1, 1], however spelled
])
def test_nodes_accepts_the_options_its_family_takes(tmp_path, argv):
    assert main(["nodes", "--n", "8"] + argv + ["--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv", [
    ["map", "--map", "sgibbs", "--cuts", "0"],
    ["interp", "--n", "11"],
    ["nodes", "--n", "11", "--map", "graspa", "--cuts", "0"],
])
def test_infinite_kappa_exits_2(tmp_path, capsys, argv):
    assert main(argv + ["--kappa", "inf", "--out-dir", str(tmp_path)]) == 2
    assert "kappa must be positive and finite" in capsys.readouterr().err


def test_shift_past_float_range_exits_3(tmp_path, capsys):
    # (tau - 1) kappa overflows on f2's third and fourth subintervals; the
    # chain reports it as an EvaluationError, and no overflow warning (an
    # error under this suite's warning filter) escapes first
    assert main(["interp", "--function", "f2", "--method", "graspa", "--n", "29",
                 "--kappa", "1e308", "--out-dir", str(tmp_path)]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GRASPA_OUT_DIR", str(tmp_path))
    assert main(["nodes", "--n", "2"]) == 0
    assert (tmp_path / "nodes.csv").exists()


def test_out_dir_env_var_read_on_every_call(tmp_path, monkeypatch):
    # the parser is built once per process; the environment is not baked in
    for sub in ("a", "b"):
        monkeypatch.setenv("GRASPA_OUT_DIR", str(tmp_path / sub))
        assert main(["nodes", "--n", "2"]) == 0
        assert (tmp_path / sub / "nodes.csv").exists()


def test_alpha_refused_where_the_chain_ignores_it(tmp_path, capsys):
    for argv in (["map", "--map", "graspa", "--cuts", "0"],
                 ["map", "--map", "graspa+vn", "--cuts", "0", "--n", "10"],
                 ["map", "--map", "sgibbs", "--cuts", "0"],
                 ["nodes", "--n", "9", "--map", "graspa", "--cuts", "0"]):
        assert main(argv + ["--alpha", "0.5", "--out-dir", str(tmp_path)]) == 2, argv
        assert "--alpha" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert main(argv + ["--alpha", "1", "--out-dir", str(tmp_path)]) == 0, argv
        for path in tmp_path.iterdir():
            path.unlink()
    assert main(["map", "--map", "mkte", "--cuts", "0", "--alpha", "0.5",
                 "--out-dir", str(tmp_path)]) == 0


def test_cuts_refused_where_the_chain_ignores_them(tmp_path, capsys):
    for argv in (["map", "--map", "kte"], ["map", "--map", "identity"],
                 ["nodes", "--n", "9", "--map", "kte"],
                 ["nodes", "--n", "9", "--map", "identity"]):
        assert main(argv + ["--cuts", "0.5", "--out-dir", str(tmp_path)]) == 2, argv
        assert "--cuts" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0, argv
        for path in tmp_path.iterdir():
            path.unlink()
    for name in ("mkte", "sgibbs", "graspa"):
        assert main(["map", "--map", name, "--cuts", "0.5",
                     "--out-dir", str(tmp_path)]) == 0, name


def test_kappa_refused_where_the_chain_has_no_shift(tmp_path, capsys):
    for argv in (["map", "--map", "identity"], ["map", "--map", "kte"],
                 ["map", "--map", "mkte", "--cuts", "0"],
                 ["nodes", "--n", "9", "--map", "mkte", "--cuts", "0"]):
        assert main(argv + ["--kappa", "5", "--out-dir", str(tmp_path)]) == 2, argv
        assert "--kappa" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert main(argv + ["--out-dir", str(tmp_path)]) == 0, argv
        for path in tmp_path.iterdir():
            path.unlink()
    for name in ("sgibbs", "graspa"):
        assert main(["map", "--map", name, "--cuts", "0", "--kappa", "5",
                     "--out-dir", str(tmp_path)]) == 0, name


@pytest.mark.parametrize("command", ["interp", "lebesgue", "lagmatrix"])
def test_kappa_refused_on_the_classical_method(command, tmp_path, capsys):
    argv = [command, "--n", "10", "--method", "classical", "--out-dir", str(tmp_path)]
    assert main(argv + ["--kappa", "5"]) == 2
    assert "--kappa" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert main(argv) == 0
    assert main([command, "--n", "10", "--method", "sgibbs", "--kappa", "5",
                 "--out-dir", str(tmp_path)]) == 0


def test_floats_roundtrip_through_csv(tmp_path):
    assert main(["nodes", "--n", "7", "--kind", "bgcheb", "--beta", "0.1",
                 "--gamma", "0.2", "--out-dir", str(tmp_path)]) == 0
    from graspa import bg_chebyshev_nodes
    _, rows = read_csv(tmp_path / "nodes.csv")
    np.testing.assert_array_equal([r[0] for r in rows],
                                  bg_chebyshev_nodes(7, 0.1, 0.2).nodes)


def test_csv_bytes_match_the_csv_module_contract(tmp_path, capsys):
    # the one output path writes what csv.writer with 17-digit fields wrote:
    # CRLF line ends, a header field holding a comma or a quote quoted, and
    # nan, infinities, signed zero, subnormals and the range ends as Python
    # formats them
    header = ("x", "a,b", 'say "hi"')
    rows = np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1e308],
                     [0.1, 3.0, -2.5]])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") for v in row])
    expected = buf.getvalue().encode()
    assert b'"a,b"' in expected and expected.endswith(b"\r\n")
    _write_figure_outputs(argparse.Namespace(out_dir=str(tmp_path)),
                          (FigureOutput("contract", header, rows),))
    assert (tmp_path / "contract.csv").read_bytes() == expected
    assert capsys.readouterr().out == f"{tmp_path / 'contract.csv'}\n"
    # rows are formatted a block at a time: one row short of a block, a
    # whole block and one row past it, with the special values on both
    # sides of the first block edge
    rng = np.random.default_rng(3)
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    for width in (1, 100):
        per_block = _CSV_BLOCK_VALUES // width
        for count in (per_block - 1, per_block, per_block + 1):
            rows = rng.standard_normal((count, width)) * 10.0 ** rng.integers(
                -300, 300, (count, width))
            edge = min(per_block, count) * width  # flat index of the first edge
            rows.flat[edge - 5:edge] = specials
            after = min(5, rows.size - edge)
            rows.flat[edge:edge + after] = specials[::-1][:after]
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow([f"c{j}" for j in range(width)])
            for row in rows:
                writer.writerow([format(float(v), ".17g") for v in row])
            _write_figure_outputs(
                argparse.Namespace(out_dir=str(tmp_path)),
                (FigureOutput("block", tuple(f"c{j}" for j in range(width)), rows),))
            assert (tmp_path / "block.csv").read_bytes() == buf.getvalue().encode(), \
                (width, count)


@pytest.mark.parametrize("argv", [
    ["nodes", "--n", "6", "--interval=0,3", "--map", "kte"],
    ["map", "--map", "kte", "--interval=-3,3"],
])
def test_kte_off_its_domain_exits_2(tmp_path, capsys, argv):
    # the stretch is injective on [-1, 1] only: on [0, 3] it would send 0.5
    # and 1.5 to the same point
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "outside the domain" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_svg_text_is_escaped(tmp_path):
    # the config's file name becomes the plot title, and sweep_table's
    # column names the series labels
    cfg = {"function": "f1", "cuts": [0.0], "n": [11, 23], "methods": ["graspa"],
           "rmae_grid": 332, "lebesgue_grid": "auto"}
    cfg_path = tmp_path / "r&d<1>.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", str(cfg_path), "--svg", "--out-dir", str(tmp_path)]) == 0
    root = ElementTree.parse(tmp_path / "r&d<1>.svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "r&d<1>" in texts

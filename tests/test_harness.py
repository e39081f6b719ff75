"""Experiment harness and CLI: scheme dispatch, sweep artifacts, timing
rows, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from edgemarket import cli
from edgemarket.cli import main
from edgemarket.harness import (SchemeSpec, run_scheme,
                                run_sensitivity_sweep, run_timing_benchmark)
from edgemarket.lp_core import MilpConfig
from edgemarket.model import Instance, LeaderDecision, leader_profit
from edgemarket.oracle import brute_force_bilevel
from edgemarket.scenario import ScenarioConfig, sample_instance

from conftest import TINY_PRICES, tiny_config, tiny_instance

CFG = MilpConfig(backend="highs")


def test_scheme_spec_validation():
    SchemeSpec("dyn", "kkt")
    with pytest.raises(ValueError):
        SchemeSpec("bogus", "dual")
    with pytest.raises(ValueError):
        SchemeSpec("dyn", "bogus")
    with pytest.raises(ValueError):
        SchemeSpec("flat", "oracle")
    with pytest.raises(ValueError):
        SchemeSpec("avg", "single-en")


def test_run_scheme_methods_agree():
    inst = tiny_instance(0)
    results = {}
    for method in ("kkt", "dual", "oracle"):
        profit, decisions, report = run_scheme(inst, SchemeSpec("dyn", method),
                                               CFG)
        assert report.status == "optimal"
        results[method] = profit
    ref = results["oracle"]
    assert results["kkt"] == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))
    assert results["dual"] == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))


def test_run_scheme_certifies_milp_methods():
    inst = tiny_instance(0)
    _, _, report = run_scheme(inst, SchemeSpec("dyn", "dual"), CFG)
    assert report.bilevel_certified is True
    assert report.bigm_escalations == 0
    parsed = json.loads(report.to_json())
    assert parsed["method"] == "dual" and parsed["status"] == "optimal"


def test_run_scheme_dominance():
    inst = tiny_instance(0)
    dyn, _, _ = run_scheme(inst, SchemeSpec("dyn", "dual"), CFG)
    flat, _, _ = run_scheme(inst, SchemeSpec("flat", "dual"), CFG)
    avg, _, _ = run_scheme(inst, SchemeSpec("avg", "dual"), CFG)
    assert dyn >= flat - 1e-6 >= avg - 2e-6


def test_avg_scheme_requires_grid_mean_on_grid():
    inst = tiny_instance(0, price_levels=(0.01, 0.02, 0.05))
    with pytest.raises(ValueError, match="mean"):
        run_scheme(inst, SchemeSpec("avg", "dual"), CFG)


def test_run_scheme_single_en():
    cfg = ScenarioConfig(seed=1, num_aps=2, num_ens=1, num_services=1,
                         price_levels=TINY_PRICES)
    inst = sample_instance(cfg)
    profit, (leader, followers), report = run_scheme(
        inst, SchemeSpec("dyn", "single-en"), CFG)
    assert report.status == "optimal"
    assert report.detail.startswith("case ")
    assert isinstance(leader, LeaderDecision)
    assert leader.placed.shape == (1, inst.num_services)
    assert leader_profit(inst, leader, followers) == pytest.approx(profit)


def test_sweep_rows_and_csv(tmp_path):
    cfg = ScenarioConfig(seed=1, num_aps=2, num_ens=1, num_services=1,
                         price_levels=TINY_PRICES)
    result = run_sensitivity_sweep(cfg, "rho", [1.0, 1.5], schemes=("dyn",),
                                   config=CFG, out_dir=tmp_path)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.axis == "rho" and row.scheme == "dyn"
        assert row.status == "optimal"
        assert row.edge_workload is not None
    with open(tmp_path / "sweep_rho.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["axis", "value", "scheme"]
    assert len(rows) == 3


def test_sweep_profit_rederivable():
    cfg = ScenarioConfig(seed=1, num_aps=2, num_ens=1, num_services=1,
                         price_levels=TINY_PRICES)
    inst = sample_instance(cfg)
    profit, (leader, followers), _ = run_scheme(inst, SchemeSpec("dyn", "dual"),
                                                CFG)
    assert profit == pytest.approx(leader_profit(inst, leader, followers),
                                   abs=1e-6)


def test_sweep_captures_errors_per_row():
    cfg = ScenarioConfig(seed=1, num_aps=2, num_ens=1, num_services=1,
                         price_levels=TINY_PRICES)
    result = run_sensitivity_sweep(cfg, "m", [2, -1, 2.5], schemes=("dyn",),
                                   config=CFG)
    ok = [r for r in result.rows if r.status == "optimal"]
    bad = [r for r in result.rows if r.status.startswith("error")]
    assert len(ok) == 1 and len(bad) == 2
    assert [r.value for r in bad] == [-1, 2.5]
    assert "whole number" in bad[1].status


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        run_sensitivity_sweep(ScenarioConfig(seed=0), "bogus", [1.0])


def test_timing_benchmark_rows():
    rows = run_timing_benchmark([(2, 1, 1)], methods=("dual",),
                                time_limit=120.0, seed=1, config=CFG)
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "optimal"
    assert isinstance(row["wall_time"], float)


# -- CLI ---------------------------------------------------------------


def test_cli_bench_writes_one_csv_to_stdout_and_out(tmp_path, capsys,
                                                   monkeypatch):
    rows = [{"M": 2, "N": 2, "K": 2, "method": "kkt", "wall_time": 0.5,
             "status": "optimal"},
            {"M": 2, "N": 2, "K": 2, "method": "dual", "wall_time": "NA",
             "status": "time-limit"}]
    monkeypatch.setattr(cli, "run_timing_benchmark",
                        lambda grid, time_limit: rows)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == out.read_bytes().decode("utf-8")
    assert list(csv.reader(printed.splitlines())) == [
        ["M", "N", "K", "method", "wall_time", "status"],
        ["2", "2", "2", "kkt", "0.5", "optimal"],
        ["2", "2", "2", "dual", "NA", "time-limit"]]


def _gen(tmp_path, name="inst.json", m=2, n=1, k=1):
    path = tmp_path / name
    rc = main(["gen", "--seed", "1", "--m", str(m), "--n", str(n),
               "--k", str(k), "--out", str(path)])
    assert rc == 0
    return path


def test_cli_gen_solve_round_trip(tmp_path, capsys):
    path = _gen(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(["solve", "--instance", str(path), "--method", "dual",
               "--report", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["status"] == "optimal"
    assert report["scheme"] == "dyn"


def test_cli_solve_usage_error_exit_4(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", "x.json", "--method", "bogus"])
    assert exc.value.code == 4


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "x.json", "--gap", "-1"],
    ["solve", "--instance", "x.json", "--gap", "nan"],
    ["solve", "--instance", "x.json", "--time-limit", "-5"],
    ["solve", "--instance", "x.json", "--time-limit", "inf"],
    ["bench", "--time-limit", "-1"],
    ["bench", "--time-limit", "nan"],
])
def test_cli_rejects_bad_limits_exit_4(argv, capsys):
    """A negative or non-finite ``--gap`` or ``--time-limit`` is a usage
    error, caught before any instance is read or model solved."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    assert "finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--m", "0"), ("--n", "0"),
                                        ("--k", "0"), ("--m", "-1")])
def test_cli_gen_empty_dimension_exit_4(tmp_path, capsys, flag, value):
    """A dimension below 1 is refused before any file is written."""
    path = tmp_path / "inst.json"
    rc = main(["gen", flag, value, "--out", str(path)])
    assert rc == 4
    assert not path.exists()
    assert "must be at least 1" in capsys.readouterr().err


def test_cli_missing_file_exit_4(tmp_path, capsys):
    rc = main(["solve", "--instance", str(tmp_path / "nope.json")])
    assert rc == 4


def _drop_budget(doc):
    del doc["budget"]
    return doc


def _fractional_eligible(doc):
    """Every eligible entry at 0.7, which a cast to int would load as an
    instance with no eligible EN."""
    doc["eligible"] = np.where(np.array(doc["eligible"]) == 1, 0.7,
                               0.0).tolist()
    return doc


@pytest.mark.parametrize("malform, message", [
    pytest.param(_drop_budget, "lacks field(s): budget", id="missing-field"),
    pytest.param(lambda doc: {**doc, "numAps": None},
                 "bad value for numAps: None", id="null-count"),
    pytest.param(lambda doc: [doc], "must be a JSON object, not list",
                 id="top-level-list"),
    pytest.param(lambda doc: {**doc, "numAps": 2.5},
                 "numAps must be a whole number, got 2.5",
                 id="fractional-count"),
    pytest.param(_fractional_eligible,
                 "eligible must be a whole number, got 0.7",
                 id="fractional-eligible"),
    pytest.param(lambda doc: {**doc, "cloudPrice": 0.0},
                 "invalid instance: cloudPrice must be > 0",
                 id="free-cloud"),
])
def test_cli_malformed_instance_exit_4(tmp_path, capsys, malform, message):
    """A malformed instance file is refused with exit 4 and one
    ``error: ...`` line on stderr naming the fault, not a traceback."""
    path = _gen(tmp_path)
    path.write_text(json.dumps(malform(json.loads(path.read_text()))))
    capsys.readouterr()
    rc = main(["solve", "--instance", str(path)])
    out, err = capsys.readouterr()
    assert rc == 4
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_cli_time_limit_hit_exit_3(tmp_path, capsys):
    """A solve stopped by ``--time-limit`` exits 3 and reports the limit."""
    path = _gen(tmp_path)
    capsys.readouterr()
    for method in ("dual", "kkt"):
        rc = main(["solve", "--instance", str(path), "--time-limit", "0",
                   "--method", method])
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "time-limit"
        assert report["relative_gap"] is None   # no incumbent, no gap


def _write_single_en(tmp_path, seed, **overrides):
    """The one-EN tiny instance of ``seed`` with storage that cannot bind."""
    inst = sample_instance(tiny_config(seed, **overrides))
    inst = dataclasses.replace(
        inst, storage_cap=np.full(1, inst.service_size.sum() + 1))
    path = tmp_path / f"single_en_{seed}.json"
    path.write_text(inst.to_json())
    return path


def test_cli_single_en_finds_the_one_service_optimum(tmp_path, capsys):
    """Both services of tiny seed 29 would overfill the EN together; the
    optimum places one of them and earns 0.13."""
    path = _write_single_en(tmp_path, 29, delay_cap_range=(70.0, 100.0))
    rc = main(["solve", "--instance", str(path), "--method", "single-en"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert report["profit"] == pytest.approx(0.13, abs=1e-9)


def test_cli_single_en_matches_oracle_below_cloud_delay(tmp_path, capsys):
    """Tiny seed 3 draws a delay cap of 48.7 below the cloud delay of 60,
    so each AP must send about 6 of its workload to the EN, which has
    room for 16 of the 18: the closed form answers infeasible, as the
    oracle does, and the CLI exits 2."""
    path = _write_single_en(tmp_path, 3)
    assert not brute_force_bilevel(Instance.from_json(path.read_text()),
                                   keep_log=False).feasible
    rc = main(["solve", "--instance", str(path), "--method", "single-en"])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "infeasible" and report["profit"] is None


def test_cli_single_en_out_of_scope_exit_4(tmp_path, capsys):
    """The closed form covers one EN only: a two-EN instance is an
    error, not an answer."""
    path = _gen(tmp_path, n=2)
    capsys.readouterr()
    rc = main(["solve", "--instance", str(path), "--method", "single-en"])
    assert rc == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "requires N=1" in err


def test_cli_infeasible_exit_2(tmp_path, capsys):
    path = _gen(tmp_path)
    doc = json.loads(path.read_text())
    doc["budget"] = [1e-9] * len(doc["budget"])
    path.write_text(json.dumps(doc))
    rc = main(["solve", "--instance", str(path), "--method", "dual"])
    assert rc == 2


def test_cli_mps_export_and_import(tmp_path, capsys):
    """Each MILP method's model goes out through ``--mps-out``, and its
    embedded optimum comes back through ``--import-solution``."""
    from edgemarket.lp_core import mps_names, solve_milp
    from edgemarket.model import Instance
    from edgemarket.reform_dual import build_p2
    from edgemarket.reform_kkt import build_p1
    path = _gen(tmp_path)
    inst = Instance.from_json(path.read_text())
    for method, build in (("dual", build_p2), ("kkt", build_p1)):
        mps = tmp_path / f"{method}.mps"
        rc = main(["solve", "--instance", str(path), "--method", method,
                   "--mps-out", str(mps), "--solver", "external"])
        assert rc == 0
        text = mps.read_text()
        assert text.startswith("NAME") and "ENDATA" in text

        # solve embedded, then feed the values back through
        # --import-solution
        model, _ = build(inst)
        sol = solve_milp(model, CFG)
        var_names, _ = mps_names(model)
        sol_file = tmp_path / f"{method}.sol"
        sol_file.write_text("\n".join(
            f"{var_names[vid]} {val!r}"
            for vid, val in enumerate(sol.x.tolist())))
        rc = main(["solve", "--instance", str(path), "--method", method,
                   "--import-solution", str(sol_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "imported solution: status optimal" in out


def test_cli_import_rejects_a_value_that_is_not_finite(tmp_path, capsys):
    """A ``nan`` in a solution file exits 4 naming its line, instead of
    reporting an optimal objective of nan."""
    path = _gen(tmp_path)
    from edgemarket.lp_core import mps_names
    from edgemarket.model import Instance
    from edgemarket.reform_dual import build_p2
    var_names, _ = mps_names(build_p2(Instance.from_json(path.read_text()))[0])
    sol_file = tmp_path / "model.sol"
    sol_file.write_text("\n".join(f"{name} {'nan' if i == 0 else 0.0}"
                                  for i, name in enumerate(var_names)))
    rc = main(["solve", "--instance", str(path), "--method", "dual",
               "--import-solution", str(sol_file)])
    assert rc == 4
    assert "line 1:" in capsys.readouterr().err


def test_cli_external_solver_requires_mps_out(tmp_path, capsys):
    path = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["solve", "--instance", str(path), "--method", "dual",
               "--solver", "external"])
    assert rc == 4
    out, err = capsys.readouterr()
    assert "--mps-out" in err
    assert out == ""   # nothing was solved or reported


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--axis", "rho", "--values", "1.0",
               "--schemes", "dyn", "--seeds", "0", "--out", str(out_dir)])
    files = list(out_dir.glob("*.csv"))
    assert rc in (0, 2, 3)
    assert len(files) == 1
    header = files[0].read_text().splitlines()[0]
    assert header.startswith("axis,value,scheme")

import csv
import json

import pytest

from granusim.analysis import fit_visibility_logistic, load_results, recommend_tg
from granusim.cli import build_parser, main
from granusim.experiment import ScenarioConfig


@pytest.fixture(scope="module")
def results_csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("exp") / "results.csv"
    code = main(["experiment", "--out", str(path), "--jobs", "4"])
    assert code == 0
    return path


def test_generate_writes_all_artifacts(tmp_path):
    out = tmp_path / "nets"
    assert main(["generate", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["business.json", "interdependencies.json",
                     "power.json", "water.json"]
    doc = json.loads((out / "water.json").read_text())
    assert doc["node_count"] == 22
    assert len(doc["edges"]) == 77


def test_generate_is_idempotent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--out", str(a)]) == 0
    assert main(["generate", "--out", str(b)]) == 0
    for name in ("water.json", "power.json", "business.json",
                 "interdependencies.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_sub_granularity_example(capsys):
    # A one-step disruption between sync points goes unseen.
    assert main(["run", "--tg", "10", "--rt", "1", "--ds", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["visible"] is False
    assert doc["tg"] == 10 and doc["rt"] == 1 and doc["ds"] == 8


def test_run_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["run", "--tg", "5", "--rt", "10", "--ds", "8",
                 "--trace", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["visible"] is True
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,mop_water,mop_power,mop_business"
    assert len(lines) == 402  # header + t = 0..400


def test_experiment_emits_125_rows(results_csv_path):
    lines = results_csv_path.read_text().splitlines()
    assert len(lines) == 126
    assert lines[0].startswith("run_id,tg,rt,ds,")


def test_analyze_is_byte_identical(results_csv_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "--in", str(results_csv_path), "--out", str(a)]) == 0
    assert main(["analyze", "--in", str(results_csv_path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert "visibility_logistic" in doc


def test_analyze_plot_data(results_csv_path, tmp_path):
    plots = tmp_path / "plots"
    assert main(["analyze", "--in", str(results_csv_path),
                 "--out", str(tmp_path / "r.json"),
                 "--plot-data", str(plots)]) == 0
    assert (plots / "visibility_curve.csv").exists()
    assert (plots / "ratio_scatter.csv").exists()


def test_recommend_prints_integer(results_csv_path, capsys):
    assert main(["recommend", "--in", str(results_csv_path),
                 "--expected-rt", "22"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.isdigit()
    assert int(out) >= 1


def test_every_call_parses_with_one_parser():
    assert build_parser() is build_parser()


def test_an_option_does_not_carry_into_the_next_call(results_csv_path, capsys):
    recommend = ["recommend", "--in", str(results_csv_path), "--expected-rt", "22"]
    assert main([*recommend, "--target-p", "0.9"]) == 0
    assert main(recommend) == 0
    at_09, at_default = capsys.readouterr().out.splitlines()
    model = fit_visibility_logistic(load_results(results_csv_path))
    assert int(at_default) == recommend_tg(model, 22.0, 0.5) != int(at_09)


def test_plot_data_does_not_carry_into_the_next_analyze(results_csv_path, tmp_path):
    plots = tmp_path / "plots"
    analyze = ["analyze", "--in", str(results_csv_path), "--out", str(tmp_path / "r.json")]
    assert main([*analyze, "--plot-data", str(plots)]) == 0
    for written in plots.iterdir():
        written.unlink()
    assert main(analyze) == 0
    assert list(plots.iterdir()) == []


def test_a_usage_error_leaves_the_next_call_as_a_fresh_one(results_csv_path, capsys):
    recommend = ["recommend", "--in", str(results_csv_path), "--expected-rt", "22"]
    # Fails after --target-p has been read.
    assert main([*recommend, "--target-p", "0.9", "--expected-rt"]) == 1
    capsys.readouterr()
    assert main(recommend) == 0
    after_error = capsys.readouterr()
    build_parser.cache_clear()
    assert main(recommend) == 0
    assert capsys.readouterr() == after_error


@pytest.mark.parametrize("expected_rt", ["inf", "nan", "0", "-3"])
def test_recommend_rejects_a_bad_expected_recovery_time(results_csv_path, capsys,
                                                         expected_rt):
    assert main(["recommend", "--in", str(results_csv_path),
                 "--expected-rt", expected_rt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: expected recovery time must be a positive finite number, "
        f"got {float(expected_rt)}"]


@pytest.mark.parametrize("command", [
    ["experiment", "--jobs", "1", "--out"],
    ["run", "--tg", "5", "--rt", "2", "--ds", "8", "--trace"],
])
def test_missing_output_directory_fails_before_any_run(tmp_path, monkeypatch, capsys,
                                                       command):
    # The RuntimeError would escape main, not exit 2; counting the calls
    # names the fault if a run ever comes before the check.
    calls = []

    def no_run(*args):
        calls.append(args)
        raise RuntimeError("simulated a row before checking the output path")

    monkeypatch.setattr("granusim.experiment.run_single", no_run)
    missing = tmp_path / "missing_dir"
    assert main([*command, str(missing / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory {missing} does not exist (for {missing / 'r.csv'})\n"
    assert calls == [] and not missing.exists()


@pytest.mark.parametrize("levels, named, level", [
    (["--tg", "0", "--rt", "2", "--ds", "8"], "tg", 0),
    (["--tg", "-3", "--rt", "2", "--ds", "8"], "tg", -3),
    (["--tg", "2", "--rt", "0", "--ds", "8"], "rt", 0),
    (["--tg", "2", "--rt", "2", "--ds", "0"], "ds", 0),
])
def test_run_with_a_factor_below_one_exits_2(tmp_path, capsys, levels, named, level):
    # An onset aligned to the sync instants divides by tg, so the factor
    # check must come first.
    aligned = tmp_path / "scenario.json"
    aligned.write_text('{"align_sync": true}')
    assert main(["run", "--scenario", str(aligned), *levels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {named}: must be a positive integer, got {level}"]


def test_usage_error_exits_1(capsys):
    assert main(["run", "--rt", "1", "--ds", "8"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_with_fewer_than_one_job_exits_1(tmp_path, capsys, jobs):
    out = tmp_path / "results.csv"
    assert main(["experiment", "--jobs", jobs, "--out", str(out)]) == 1
    assert f"error: argument --jobs: must be at least 1, got {jobs}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [["--horizon", "300"], ["--align-sync"]])
def test_scenario_settings_are_not_flags(capsys, option):
    # Set in the scenario file instead: `horizon`, `align_sync`.
    assert main(["run", "--tg", "5", "--rt", "2", "--ds", "8", *option]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_runtime_error_exits_2(capsys):
    assert main(["run", "--tg", "5", "--rt", "2", "--ds", "50"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze"], ["recommend", "--expected-rt", "22"]])
def test_results_without_a_column_exit_2(results_csv_path, tmp_path, capsys, command):
    lines = results_csv_path.read_text().splitlines()
    stripped = tmp_path / "results.csv"
    stripped.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    out = tmp_path / "report.json"
    argv = [command[0], "--in", str(stripped), *command[1:]]
    if command[0] == "analyze":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "results columns missing: status" in captured.err
    assert captured.out == "" and not out.exists()


def test_analyze_of_results_whose_every_row_is_censored_exits_2(results_csv_path, tmp_path,
                                                                capsys):
    # Every sprt_steps blanked: no ok row has a recovery time to fit.
    with open(results_csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("sprt_steps")
    for row in rows[1:]:
        row[column] = ""
    censored = tmp_path / "results.csv"
    with open(censored, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    out = tmp_path / "report.json"
    assert main(["analyze", "--in", str(censored), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: every ok row is censored; sprt has no recovery time to fit\n"
    assert captured.out == "" and not out.exists()


def test_malformed_scenario_rejected_without_output(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text('{"horizon": "tall"}')
    out = tmp_path / "results.csv"
    assert main(["experiment", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "horizon" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_with_a_bad_network_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text('{"networks": [{"id": "water", "nodes": 3, "edges": 7}]}')
    assert main(["run", "--scenario", str(bad), "--tg", "5", "--rt", "2", "--ds", "2"]) == 2
    assert "edges" in capsys.readouterr().err


def test_scenario_with_non_finite_weights_exits_2(tmp_path, capsys):
    # Accepted, it would print "spds_pct": NaN, which is not JSON.
    networks = json.loads(ScenarioConfig().to_json())["networks"]
    networks[0]["weights"] = [float("nan"), 0.5, 0.5]
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps({"networks": networks}))
    assert "NaN" in bad.read_text()
    assert main(["run", "--scenario", str(bad), "--tg", "2", "--rt", "9", "--ds", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "field 'networks[0]': field 'weights'" in captured.err


def test_seed_flag_overrides_the_scenario_file(tmp_path):
    base = tmp_path / "base"
    main(["generate", "--out", str(base)])

    seeded = tmp_path / "seeded"
    main(["generate", "--seed", "12345", "--out", str(seeded)])
    assert (seeded / "water.json").read_bytes() != (base / "water.json").read_bytes()

    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"master_seed": 12345}')
    from_file = tmp_path / "from_file"
    main(["generate", "--scenario", str(scenario), "--out", str(from_file)])
    assert (from_file / "water.json").read_bytes() == (seeded / "water.json").read_bytes()

    # The flag outranks the scenario file.
    flag = tmp_path / "flag"
    main(["generate", "--scenario", str(scenario), "--seed", "20200831", "--out", str(flag)])
    assert (flag / "water.json").read_bytes() == (base / "water.json").read_bytes()


def test_scenario_file_round_trips_through_run(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(ScenarioConfig(master_seed=7, horizon=300).to_json())
    assert main(["run", "--scenario", str(scenario),
                 "--tg", "5", "--rt", "10", "--ds", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ds"] == 8

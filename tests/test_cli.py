import csv
import json

import pytest

from granusim import analysis
from granusim.analysis import (fit_visibility_logistic, load_results, recommend_tg,
                               visibility_curve_csv)
from granusim.cli import build_parser, main
from granusim.errors import MalformedResults
from granusim.experiment import ScenarioConfig
from test_analysis import (BAD_FIELDS, BAD_LINE_PAIRS, FIELD_COUNT_ROWS, MISSING_COLUMNS,
                           NUMBER_COLUMNS, RESULTS_TEXT, with_bad_lines, with_line,
                           without_columns)
from test_input_rules import (COUNT_ENTRIES, COUNTS_REFUSED, NETWORK_ENTRIES, NETWORKS_REFUSED,
                              UNREADABLE_RESULTS, UNREADABLE_SCENARIOS)


@pytest.fixture(scope="module")
def results_csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("exp") / "results.csv"
    code = main(["experiment", "--out", str(path), "--jobs", "4"])
    assert code == 0
    return path


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


def test_analyze_plot_data_fits_the_logistic_once(results_csv_path, tmp_path, monkeypatch):
    fits = []

    def counted(table):
        fits.append(table)
        return fit_visibility_logistic(table)

    monkeypatch.setattr(analysis, "fit_visibility_logistic", counted)
    assert main(["analyze", "--in", str(results_csv_path), "--out", str(tmp_path / "r.json"),
                 "--plot-data", str(tmp_path / "plots")]) == 0
    assert len(fits) == 1
    curve = (tmp_path / "plots" / "visibility_curve.csv").read_text()
    table = load_results(results_csv_path)
    max_ratio = float((table["rt"] / table["tg"]).max())
    assert curve == visibility_curve_csv(fit_visibility_logistic(table), max_ratio)


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


def test_recommend_of_an_expected_recovery_time_too_large_to_divide_exits_2(
        results_csv_path, capsys):
    # Its quotient by the ratio overflowed to infinity, and the floor of
    # that raised a bare OverflowError before: a traceback.
    assert main(["recommend", "--in", str(results_csv_path), "--expected-rt", "1e308"]) == 2
    model = fit_visibility_logistic(load_results(results_csv_path))
    assert _only_one_error_line(capsys.readouterr()) == (
        f"error: expected recovery time 1e+308 over ratio {model.ratio_at(0.5)} "
        "is not a finite number")


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


@pytest.mark.parametrize("command", [
    ["experiment", "--jobs", "1", "--out"],
    ["run", "--tg", "5", "--rt", "2", "--ds", "8", "--trace"],
])
def test_an_output_path_that_is_a_directory_fails_before_any_run(tmp_path, monkeypatch,
                                                                 capsys, command):
    # The final rename failed on the directory, after every run.
    def no_run(*args):
        raise RuntimeError("simulated a row before checking the output path")

    monkeypatch.setattr("granusim.experiment.run_single", no_run)
    assert main([*command, str(tmp_path)]) == 2
    assert _only_one_error_line(capsys.readouterr()) == (
        f"error: output file {tmp_path} is a directory")
    assert list(tmp_path.iterdir()) == []


def test_analyze_whose_plot_directory_cannot_be_made_writes_no_report(
        results_csv_path, tmp_path, capsys):
    # The report was written before the plot directory failed.
    taken = tmp_path / "afile"
    taken.touch()
    report = tmp_path / "r.json"
    assert main(["analyze", "--in", str(results_csv_path), "--out", str(report),
                 "--plot-data", str(taken)]) == 2
    assert "File exists" in _only_one_error_line(capsys.readouterr())
    assert sorted(tmp_path.iterdir()) == [taken]


@pytest.mark.parametrize("taken", ["r.json", "plots/visibility_curve.csv"])
def test_analyze_with_a_directory_at_a_file_path_writes_nothing(
        results_csv_path, tmp_path, capsys, taken):
    # The plot directory was made before the report failed, and the
    # report was written before a plot failed.
    (tmp_path / taken).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main(["analyze", "--in", str(results_csv_path), "--out", str(tmp_path / "r.json"),
                 "--plot-data", str(tmp_path / "plots")]) == 2
    assert _only_one_error_line(capsys.readouterr()) == (
        f"error: output file {tmp_path / taken} is a directory")
    assert sorted(tmp_path.rglob("*")) == before


def test_analyze_into_a_missing_directory_fails_before_reading_the_results(
        tmp_path, monkeypatch, capsys):
    # A late failure named the temp file next to the report instead.
    def no_read(*args):
        raise RuntimeError("read the results before checking the output path")

    monkeypatch.setattr("granusim.analysis.load_results", no_read)
    missing = tmp_path / "missing_dir"
    report = missing / "report.json"
    assert main(["analyze", "--in", str(tmp_path / "results.csv"), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output directory {missing} does not exist (for {report})\n"
    assert not missing.exists()


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
def test_experiment_with_fewer_than_one_job_exits_2(tmp_path, capsys, jobs):
    # Refused by ``run_experiment``'s count rule, as ``--tg 0`` is by the
    # schedule's: a runtime error, not a usage error, and before the
    # traces directory is made.
    out, traces = tmp_path / "results.csv", tmp_path / "traces"
    assert main(["experiment", "--jobs", jobs, "--out", str(out), "--traces", str(traces)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: jobs: must be a positive integer, got {jobs}"]
    assert not out.exists() and not traces.exists()


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


def _scenario_refusals():
    """(id, scenario file document, texts its error names) of each
    scenario-field refusal in ``tests/test_input_rules.py``'s tables."""
    networks = json.loads(ScenarioConfig().to_json())["networks"]

    def document(owner, key, value):
        if owner == "NetworkSpec":
            return {"networks": [{**networks[0], key: value}, *networks[1:]]}
        return {key: value}

    cases = []
    for entry, (_, _, named) in COUNT_ENTRIES.items():
        owner, _, key = entry.partition(".")
        if owner in ("ScenarioConfig", "NetworkSpec"):
            cases += [(f"{entry}={value!r}", document(owner, key, value), (named, repr(value)))
                      for value in COUNTS_REFUSED]
    for entry, (_, _, _, key) in NETWORK_ENTRIES.items():
        owner = entry.partition(".")[0]
        if owner in ("ScenarioConfig", "NetworkSpec"):
            cases += [(f"{entry}={value!r}", document(owner, key, value),
                       (f"field '{key}': unknown network {value!r}",))
                      for value in NETWORKS_REFUSED]
    return cases


SCENARIO_REFUSALS = _scenario_refusals()


def _only_one_error_line(captured):
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("command", ["run", "experiment"])
@pytest.mark.parametrize("document, named", [case[1:] for case in SCENARIO_REFUSALS],
                         ids=[case[0] for case in SCENARIO_REFUSALS])
def test_each_scenario_field_refusal_exits_2_without_output(tmp_path, capsys, command,
                                                            document, named):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document))
    outputs = {"run": ["--tg", "5", "--rt", "2", "--ds", "8",
                       "--trace", str(tmp_path / "trace.csv")],
               "experiment": ["--jobs", "1", "--traces", str(tmp_path / "traces"),
                              "--out", str(tmp_path / "results.csv")]}
    assert main([command, "--scenario", str(scenario), *outputs[command]]) == 2
    line = _only_one_error_line(capsys.readouterr())
    assert all(text in line for text in named)
    assert list(tmp_path.iterdir()) == [scenario]


#: Each ``MalformedResults`` case of ``tests/test_analysis.py`` and of
#: ``tests/test_input_rules.py``, by name.
MALFORMED_RESULTS = {
    "header only": RESULTS_TEXT.splitlines()[0] + "\n",
    **{f"without {'+'.join(dropped)}": without_columns(RESULTS_TEXT, dropped)
       for dropped in MISSING_COLUMNS},
    **{f"line {number} of {len(line.split(','))} fields": with_line(RESULTS_TEXT, number, line)
       for number, line, _ in FIELD_COUNT_ROWS},
    **{f"{column}-{line}": with_line(RESULTS_TEXT, 3, line) for column, line, _ in BAD_FIELDS},
    **{f"{column}-{first}-{second}": with_bad_lines(column, first, second)
       for column in NUMBER_COLUMNS for first, second, _ in BAD_LINE_PAIRS},
    # A field over the csv module's limit raised a bare _csv.Error before,
    # which is not a ValueError: a traceback.
    **{name: data for name, (data, _) in UNREADABLE_RESULTS.items()},
}


@pytest.mark.parametrize("command", [["analyze"], ["recommend", "--expected-rt", "22"]])
@pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
def test_each_malformed_results_case_exits_2_without_output(tmp_path, capsys, command, case):
    results = tmp_path / "results.csv"
    data = MALFORMED_RESULTS[case]
    results.write_bytes(data if isinstance(data, bytes) else data.encode())
    with pytest.raises(MalformedResults) as raised:
        load_results(results)
    argv = [command[0], "--in", str(results), *command[1:]]
    if command[0] == "analyze":
        argv += ["--out", str(tmp_path / "report.json"), "--plot-data", str(tmp_path / "plots")]
    assert main(argv) == 2
    assert _only_one_error_line(capsys.readouterr()) == f"error: {raised.value}"
    assert list(tmp_path.iterdir()) == [results]


@pytest.mark.parametrize("case", sorted(UNREADABLE_SCENARIOS))
def test_a_scenario_the_json_parser_cannot_read_exits_2_without_output(tmp_path, capsys, case):
    # The deep one gave a traceback before, from a RecursionError.
    text, message = UNREADABLE_SCENARIOS[case]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    assert main(["run", "--scenario", str(scenario), "--tg", "2", "--rt", "2", "--ds", "8",
                 "--trace", str(tmp_path / "trace.csv")]) == 2
    assert _only_one_error_line(capsys.readouterr()) == f"error: {message}"
    assert list(tmp_path.iterdir()) == [scenario]


def test_a_scenario_that_is_not_utf8_exits_2_naming_the_file_and_line(tmp_path, capsys):
    # A bare UnicodeDecodeError named neither the file nor the line before.
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes(b'{"horizon": 400,\n "warmup": \xff}')
    assert main(["run", "--scenario", str(scenario), "--tg", "2", "--rt", "2", "--ds", "8",
                 "--trace", str(tmp_path / "trace.csv")]) == 2
    assert _only_one_error_line(capsys.readouterr()) == (
        f"error: {scenario}: line 2: not utf-8 text (invalid start byte)")
    assert list(tmp_path.iterdir()) == [scenario]


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


def test_seed_flag_overrides_the_scenario_file(tmp_path, capsys):
    def run(name, *flags):
        trace = tmp_path / f"{name}.csv"
        assert main(["run", *flags, "--tg", "5", "--rt", "10", "--ds", "8",
                     "--trace", str(trace)]) == 0
        return json.loads(capsys.readouterr().out)["pattern_hash"], trace.read_bytes()

    base = run("base")
    seeded = run("seeded", "--seed", "12345")
    assert seeded[0] != base[0] and seeded[1] != base[1]

    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"master_seed": 12345}')
    assert run("from_file", "--scenario", str(scenario)) == seeded

    # The flag outranks the scenario file.
    assert run("flag", "--scenario", str(scenario), "--seed", "20200831") == base


def test_a_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    # The final rename fails; the temporary file is removed before the
    # error is passed on.
    def refuse(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr("granusim.experiment.os.replace", refuse)
    trace = tmp_path / "trace.csv"
    assert main(["run", "--tg", "5", "--rt", "10", "--ds", "8", "--trace", str(trace)]) == 2
    assert _only_one_error_line(capsys.readouterr()) == "error: simulated rename failure"
    assert list(tmp_path.iterdir()) == []


def test_generate_is_no_longer_a_command(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "nets")]) == 1
    assert "invalid choice: 'generate'" in capsys.readouterr().err
    assert not (tmp_path / "nets").exists()


def test_scenario_file_round_trips_through_run(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(ScenarioConfig(master_seed=7, horizon=300).to_json())
    assert main(["run", "--scenario", str(scenario),
                 "--tg", "5", "--rt", "10", "--ds", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ds"] == 8

import csv
import io
import itertools
import math

import numpy as np
import pytest

from granusim.analysis import (LOGISTIC_RIDGE, TERM_ORDER,
                               LogisticVisibilityModel,
                               analysis_report, fit_ratio_linear,
                               fit_visibility_logistic, load_results,
                               ratio_scatter_csv, recommend_tg, report_json,
                               variance_shares, visibility_curve_csv)
from granusim.errors import (CollinearError, DegenerateModel, InvalidRecoveryTime,
                             MalformedResults)
from granusim.experiment import ResultRow, results_csv
from granusim.metrics import RunOutcome
from oracles import (ols_normal_equations, penalized_loglik,
                     sequential_shares_oracle)


def grid_table(response):
    """2x2x2 factor grid with a caller-chosen response function."""
    rows = list(itertools.product((2.0, 4.0), (2.0, 8.0), (4.0, 8.0)))
    table = {
        "tg": np.array([r[0] for r in rows]),
        "rt": np.array([r[1] for r in rows]),
        "ds": np.array([r[2] for r in rows]),
    }
    table["y"] = np.array([response(*r) for r in rows])
    return table


def test_shares_of_pure_single_factor_response():
    table = grid_table(lambda tg, rt, ds: 3.0 * tg)
    report = variance_shares(table, "y")
    assert report.shares["tg"] == pytest.approx(1.0, abs=1e-9)
    for term in TERM_ORDER[1:]:
        assert report.shares[term] == pytest.approx(0.0, abs=1e-9)
    assert report.residual_share == pytest.approx(0.0, abs=1e-9)


def test_shares_rank_additive_factors_over_inert_one():
    rng = np.random.default_rng(5)
    rows = list(itertools.product((2, 7, 12), (3, 9, 15), (4, 8, 12)))
    table = {
        "tg": np.array([float(r[0]) for r in rows]),
        "rt": np.array([float(r[1]) for r in rows]),
        "ds": np.array([float(r[2]) for r in rows]),
    }
    table["y"] = table["tg"] + table["rt"] + rng.normal(0, 0.05, len(rows))
    report = variance_shares(table, "y")
    assert report.shares["tg"] > 10 * report.shares["ds"]
    assert report.shares["rt"] > 10 * report.shares["ds"]


def test_shares_sum_to_one():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 40
        table = {k: rng.uniform(1, 20, n) for k in ("tg", "rt", "ds")}
        table["y"] = rng.uniform(0, 50, n)
        report = variance_shares(table, "y")
        total = sum(report.shares.values()) + report.residual_share
        assert total == pytest.approx(1.0, abs=1e-9)


def tiny_table(seed):
    rng = np.random.default_rng(100 + seed)
    table = {k: rng.uniform(1, 9, 8) for k in ("tg", "rt", "ds")}
    table["y"] = rng.uniform(0, 10, 8)
    return table


def test_shares_match_projection_oracle_on_tiny_data():
    # The tiny tables have 8 rows for 7 design columns; the synthetic
    # results table has 60 rows of factor levels and a noisy response.
    synthetic = synthetic_results_table()
    for table in [tiny_table(seed) for seed in range(6)] + [dict(synthetic, y=synthetic["spds"])]:
        report = variance_shares(table, "y")
        columns = [table["tg"], table["rt"], table["ds"],
                   table["tg"] * table["rt"], table["tg"] * table["ds"],
                   table["rt"] * table["ds"]]
        shares, residual = sequential_shares_oracle(columns, table["y"])
        for term, share in zip(TERM_ORDER, shares):
            assert report.shares[term] == pytest.approx(share, abs=1e-9)
        assert report.residual_share == pytest.approx(residual, abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_shares_reject_degenerate_inputs():
    table = grid_table(lambda tg, rt, ds: tg + ds)
    flat = dict(table)
    flat["y"] = np.full(8, 2.5)
    with pytest.raises(ValueError):
        variance_shares(flat, "y")
    collinear = dict(table)
    collinear["rt"] = collinear["tg"]
    with pytest.raises(CollinearError, match="after adding rt$"):
        variance_shares(collinear, "y")
    # A scaled copy is as dependent: the tolerance follows the column norms.
    collinear["rt"] = 100.0 * collinear["tg"]
    with pytest.raises(CollinearError, match="after adding rt$"):
        variance_shares(collinear, "y")
    # 4 rows hold at most 4 independent columns: the intercept, tg, rt and ds.
    with pytest.raises(CollinearError, match="after adding tg:rt$"):
        variance_shares({k: v[[0, 3, 5, 6]] for k, v in table.items()}, "y")
    # A factor with one level lies in the span of the intercept.
    with pytest.raises(CollinearError, match="after adding ds$"):
        variance_shares({"tg": table["tg"], "ds": np.full(8, 4.0), "y": table["y"]}, "y",
                        terms=("tg", "ds", "tg:ds"))
    with pytest.raises(CollinearError, match="after adding ds$"):
        one_level = dict(table)
        one_level["ds"] = np.full(8, 4.0)
        variance_shares(one_level, "y")
    with pytest.raises(ValueError, match="^response has zero variance$"):
        variance_shares({k: v[:0] for k, v in table.items()}, "y")
    with pytest.raises(ValueError):
        missing = dict(table)
        missing["y"] = missing["y"].copy()
        missing["y"][0] = np.nan
        variance_shares(missing, "y")
    # A NaN or an infinity in a covariate or the response is named
    # before any factorisation sees it.
    for bad in (np.nan, np.inf):
        nonfinite = dict(table)
        nonfinite["rt"] = nonfinite["rt"].copy()
        nonfinite["rt"][1] = bad
        with pytest.raises(ValueError, match="^rt holds a value that is not finite"):
            variance_shares(nonfinite, "y")
    nonfinite = dict(table)
    nonfinite["y"] = nonfinite["y"].copy()
    nonfinite["y"][2] = -np.inf
    with pytest.raises(ValueError, match="^y holds a value that is not finite"):
        variance_shares(nonfinite, "y")


def logistic_table(ratios, labels, tg=2.0):
    ratios = np.asarray(ratios, dtype=float)
    return {"tg": np.full(len(ratios), tg), "rt": ratios * tg,
            "visible": np.asarray(labels, dtype=bool)}


def test_symmetric_labels_put_midpoint_at_half():
    table = logistic_table([0.3, 0.4, 0.6, 0.7], [0, 0, 1, 1])
    model = fit_visibility_logistic(table)
    assert model.threshold == pytest.approx(0.5, abs=1e-6)
    assert model.slope > 0
    assert model.gradient_norm < 1e-8


def test_logistic_probability_is_monotone():
    table = logistic_table([0.2, 0.4, 0.5, 0.9, 1.4, 2.0],
                           [0, 0, 1, 0, 1, 1])
    model = fit_visibility_logistic(table)
    grid = np.linspace(0, 3, 50)
    probs = model.probability(grid)
    assert (np.diff(probs) > 0).all()
    assert model.probability(model.threshold) == pytest.approx(0.5, abs=1e-9)


def test_logistic_gradient_matches_finite_differences():
    table = logistic_table([0.2, 0.4, 0.5, 0.9, 1.4, 2.0],
                           [0, 0, 1, 0, 1, 1])
    model = fit_visibility_logistic(table)
    beta = np.array([model.intercept, model.slope])
    x = table["rt"] / table["tg"]
    y = table["visible"].astype(float)
    h = 1e-6
    for k in range(2):
        up, down = beta.copy(), beta.copy()
        up[k] += h
        down[k] -= h
        fd = (penalized_loglik(up, x, y, LOGISTIC_RIDGE)
              - penalized_loglik(down, x, y, LOGISTIC_RIDGE)) / (2 * h)
        assert abs(fd) < 1e-6  # stationary point in every direction


def test_logistic_rejects_single_label():
    with pytest.raises(DegenerateModel):
        fit_visibility_logistic(logistic_table([0.1, 0.9], [1, 1]))


def test_ratio_at_validates_probability():
    model = LogisticVisibilityModel(intercept=0.0, slope=2.0, gradient_norm=0.0)
    with pytest.raises(ValueError):
        model.ratio_at(0.0)
    with pytest.raises(ValueError):
        model.ratio_at(1.0)
    flat = LogisticVisibilityModel(intercept=0.0, slope=0.0, gradient_norm=0.0)
    with pytest.raises(DegenerateModel):
        flat.ratio_at(0.5)


def ratio_table(x, y, tg=3.0):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return {"tg": np.full(len(x), tg), "rt": x * tg, "sprt": y * tg,
            "ds": np.full(len(x), 8.0), "visible": np.ones(len(x), bool)}


def test_exact_line_recovered():
    x = np.array([0.5, 1.0, 2.0, 3.5])
    model = fit_ratio_linear(ratio_table(x, 2.0 * x))
    assert model.slope == pytest.approx(2.0, abs=1e-10)
    assert model.intercept == pytest.approx(0.0, abs=1e-10)
    assert model.r_squared == pytest.approx(1.0, abs=1e-10)


def test_three_point_hand_fit():
    model = fit_ratio_linear(ratio_table([1, 2, 3], [1, 3, 5]))
    assert model.slope == pytest.approx(2.0, abs=1e-10)
    assert model.intercept == pytest.approx(-1.0, abs=1e-10)


def test_ols_matches_normal_equations():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        x = rng.uniform(0.1, 10, 30)
        y = 1.7 * x - 0.4 + rng.normal(0, 0.3, 30)
        model = fit_ratio_linear(ratio_table(x, y))
        slope, intercept = ols_normal_equations(x, y)
        assert model.slope == pytest.approx(slope, abs=1e-10)
        assert model.intercept == pytest.approx(intercept, abs=1e-10)
        (share,), _ = sequential_shares_oracle([x], y)
        assert model.r_squared == pytest.approx(share, abs=1e-10)


def test_censored_rows_dropped_from_ratio_fit():
    table = ratio_table([1, 2, 3, 9], [1, 3, 5, 999])
    table["sprt"][3] = np.nan
    model = fit_ratio_linear(table)
    assert model.slope == pytest.approx(2.0, abs=1e-10)


def test_ratio_fit_rejects_constant_x():
    with pytest.raises(CollinearError, match="after adding rt_over_tg$"):
        fit_ratio_linear(ratio_table([2, 2, 2], [1, 2, 3]))


@pytest.mark.filterwarnings("error")
def test_ratio_fit_rejects_values_that_are_not_finite():
    # tg = 0 makes rt/tg infinite; an infinite sprt makes sprt/tg so.
    zero_tg = ratio_table([1, 2, 3], [1, 2, 3])
    zero_tg["tg"][1] = 0.0
    with pytest.raises(ValueError, match="^rt_over_tg holds a value that is not finite"):
        fit_ratio_linear(zero_tg)
    with pytest.raises(ValueError, match="^rt_over_tg holds a value that is not finite"):
        ratio_scatter_csv(zero_tg)
    with pytest.raises(ValueError, match="^sprt_over_tg holds a value that is not finite"):
        fit_ratio_linear(ratio_table([1, 2, 3], [1, np.inf, 3]))


def test_recommend_tg_published_threshold():
    # Threshold at 0.88 with an expected recovery time of 22 steps.
    model = LogisticVisibilityModel(intercept=-4.4, slope=5.0, gradient_norm=0.0)
    assert model.threshold == pytest.approx(0.88)
    assert recommend_tg(model, 22, 0.5) == 25


def test_recommend_tg_clamps_to_one():
    model = LogisticVisibilityModel(intercept=-4.4, slope=5.0, gradient_norm=0.0)
    assert recommend_tg(model, 0.5, 0.5) == 1
    # Toward certain detection the required ratio outgrows any rt.
    shallow = LogisticVisibilityModel(intercept=0.0, slope=0.1, gradient_norm=0.0)
    assert recommend_tg(shallow, 22, 1 - 1e-12) == 1


def test_recommend_tg_validates_inputs():
    model = LogisticVisibilityModel(intercept=-4.4, slope=5.0, gradient_norm=0.0)
    with pytest.raises(ValueError):
        recommend_tg(model, 22, 0.0)
    bad = LogisticVisibilityModel(intercept=1.0, slope=-2.0, gradient_norm=0.0)
    with pytest.raises(DegenerateModel):
        recommend_tg(bad, 22, 0.5)


@pytest.mark.parametrize("expected_rt", [float("inf"), float("-inf"), float("nan"), 0.0, -3.0])
def test_recommend_tg_rejects_a_recovery_time_that_is_not_positive_and_finite(
        expected_rt):
    model = LogisticVisibilityModel(intercept=-4.4, slope=5.0, gradient_norm=0.0)
    with pytest.raises(InvalidRecoveryTime, match="positive finite"):
        recommend_tg(model, expected_rt, 0.5)


RESULTS_TEXT = """\
run_id,tg,rt,ds,spds_pct,sprt_steps,visible,censored,sec_per_step,pattern_hash,status
0,2,2,8,6.941000,10,true,false,0.000021,abc123def456,ok
1,12,2,8,0.007000,0,false,false,0.000020,abc123def456,ok
2,12,9,8,11.400000,,true,true,0.000020,abc123def456,ok
3,14,9,8,,,,,,,error: boom
"""


def test_load_results_parses_and_filters(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(RESULTS_TEXT)
    table = load_results(path)
    assert len(table["tg"]) == 3  # error row dropped
    assert table["visible"].tolist() == [True, False, True]
    assert math.isnan(table["sprt"][2])
    assert table["sprt"][0] == 10.0


def test_load_results_rejects_empty(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(RESULTS_TEXT.splitlines()[0] + "\n")
    with pytest.raises(MalformedResults, match="^no usable rows in "):
        load_results(path)


def without_columns(text, dropped):
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in dropped]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


@pytest.mark.parametrize("dropped", [("status",), ("sprt_steps", "visible")])
def test_load_results_names_missing_columns(tmp_path, dropped):
    path = tmp_path / "results.csv"
    path.write_text(without_columns(RESULTS_TEXT, dropped))
    with pytest.raises(MalformedResults) as err:
        load_results(path)
    assert str(err.value).endswith("results columns missing: " + ", ".join(dropped))


def with_line(text, number, line):
    """``text`` with its line ``number`` (1-based) replaced by ``line``."""
    lines = text.splitlines()
    lines[number - 1] = line
    return "".join(f"{each}\n" for each in lines)


def test_load_results_skips_blank_lines(tmp_path):
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text(RESULTS_TEXT)
    spaced.write_text(RESULTS_TEXT.replace("\n", "\n\n"))
    expected, table = load_results(plain), load_results(spaced)
    assert list(table) == list(expected)
    for key in expected:
        np.testing.assert_array_equal(table[key], expected[key])


@pytest.mark.parametrize("number, line, message", [
    (3, "1,12,2,8,0.007000,0,false,false,0.000020,abc123def456",
     "line 3: 10 fields where the header has 11; column 'status' is missing"),
    (5, "3,14,9,8,,,,,,",
     "line 5: 10 fields where the header has 11; column 'status' is missing"),
    (2, "0,2,2,8,6.941000,10,true,false,0.000021,abc123def456,ok,extra",
     "line 2: 12 fields where the header has 11; field 12 has no column"),
])
def test_load_results_rejects_a_row_whose_field_count_differs(tmp_path, number, line,
                                                              message):
    # A DictReader dropped a short row silently: its status read None.
    path = tmp_path / "results.csv"
    path.write_text(with_line(RESULTS_TEXT, number, line))
    with pytest.raises(MalformedResults) as err:
        load_results(path)
    assert str(err.value) == f"{path}: {message}"
    assert isinstance(err.value, ValueError)


BAD_FIELDS = [
    ("tg", "1,x,2,8,0.007000,0,false,false,0.000020,abc123def456,ok", "not a number"),
    ("rt", "1,12,x,8,0.007000,0,false,false,0.000020,abc123def456,ok", "not a number"),
    ("ds", "1,12,2,x,0.007000,0,false,false,0.000020,abc123def456,ok", "not a number"),
    ("spds_pct", "1,12,2,8,x,0,false,false,0.000020,abc123def456,ok", "not a number"),
    ("sprt_steps", "1,12,2,8,0.007000,x,false,false,0.000020,abc123def456,ok", "not a number"),
    ("spds_pct", "1,12,2,8,,0,false,false,0.000020,abc123def456,ok", "not a number"),
    # float() parses these, but no model can use them.
    ("tg", "1,nan,2,8,0.007000,0,false,false,0.000020,abc123def456,ok", "not finite"),
    ("rt", "1,12,inf,8,0.007000,0,false,false,0.000020,abc123def456,ok", "not finite"),
    ("ds", "1,12,2,-inf,0.007000,0,false,false,0.000020,abc123def456,ok", "not finite"),
    ("spds_pct", "1,12,2,8,NaN,0,false,false,0.000020,abc123def456,ok", "not finite"),
    ("sprt_steps", "1,12,2,8,0.007000,Infinity,false,false,0.000020,abc123def456,ok",
     "not finite"),
    # Only the two words the runner writes are a visibility label.
    ("visible", "1,12,2,8,0.007000,0,True,false,0.000020,abc123def456,ok",
     "neither true nor false"),
    ("visible", "1,12,2,8,0.007000,0,maybe,false,0.000020,abc123def456,ok",
     "neither true nor false"),
    ("visible", "1,12,2,8,0.007000,0,,false,0.000020,abc123def456,ok",
     "neither true nor false"),
    # A factor level is a whole number of at least 1.
    ("tg", "1,0,2,8,0.007000,0,false,false,0.000020,abc123def456,ok", "not a positive integer"),
    ("tg", "1,-5,2,8,0.007000,0,false,false,0.000020,abc123def456,ok", "not a positive integer"),
    ("tg", "1,2.5,2,8,0.007000,0,false,false,0.000020,abc123def456,ok",
     "not a positive integer"),
    ("rt", "1,12,0.5,8,0.007000,0,false,false,0.000020,abc123def456,ok",
     "not a positive integer"),
    ("ds", "1,12,2,-1,0.007000,0,false,false,0.000020,abc123def456,ok",
     "not a positive integer"),
]


# Each case is named by its column and line.
@pytest.mark.parametrize("column, line, reason", BAD_FIELDS,
                         ids=[f"{column}-{line}" for column, line, _ in BAD_FIELDS])
def test_load_results_names_the_line_and_column_of_a_bad_number(tmp_path, column, line,
                                                                 reason):
    path = tmp_path / "results.csv"
    path.write_text(with_line(RESULTS_TEXT, 3, line))
    value = line.split(",")[RESULTS_TEXT.splitlines()[0].split(",").index(column)]
    with pytest.raises(MalformedResults) as err:
        load_results(path)
    assert str(err.value) == f"{path}: line 3: column '{column}': {reason}: {value!r}"


def test_results_csv_reads_back_through_load_results(tmp_path):
    rows = [
        ResultRow(0, 2, 9, 8, RunOutcome(tg=2, rt=9, ds=8, spds=6.9412345, sprt=14,
                                         visible=True, sec_per_step=2e-5), pattern=(1, 4)),
        ResultRow(1, 27, 2, 12, RunOutcome(tg=27, rt=2, ds=12, spds=0.25, sprt=None,
                                           visible=False, sec_per_step=2e-5), pattern=(3,)),
        ResultRow(2, 14, 13, 21, None, status="error: ds: too large"),
    ]
    path = tmp_path / "results.csv"
    path.write_text(results_csv(rows))
    table = load_results(path)
    assert table["tg"].tolist() == [2, 27]
    assert table["rt"].tolist() == [9, 2]
    assert table["ds"].tolist() == [8, 12]
    np.testing.assert_allclose(table["spds"], [6.9412345, 0.25], rtol=0, atol=1e-6)
    assert table["sprt"][0] == 14 and math.isnan(table["sprt"][1])
    assert table["visible"].tolist() == [True, False]


def synthetic_results_table(n=60, seed=11):
    rng = np.random.default_rng(seed)
    tg = rng.choice([2, 5, 9, 14], n).astype(float)
    rt = rng.choice([2, 7, 13, 20], n).astype(float)
    ds = rng.choice([4, 9, 15], n).astype(float)
    ratio = rt / tg
    sprt = 2.0 * rt + 0.5 * tg + rng.normal(0, 1.0, n)
    visible = ratio + rng.normal(0, 0.2, n) > 0.9
    if visible.all() or not visible.any():
        visible[0] = not visible[0]
    return {"tg": tg, "rt": rt, "ds": ds, "sprt": np.abs(sprt),
            "spds": 5.0 * ds / tg + rng.normal(0, 0.5, n), "visible": visible}


def test_analysis_report_structure():
    table = synthetic_results_table()
    report = analysis_report(table)
    assert set(report) == {"variance_shares_spds", "variance_shares_sprt",
                           "variance_shares_sprt_over_tg",
                           "visibility_logistic", "ratio_linear"}
    assert set(report["variance_shares_sprt_over_tg"]["terms"]) == \
        {"rt_over_tg", "ds", "tg"}
    keep = ~np.isnan(table["sprt"])
    ratios = {"rt_over_tg": table["rt"][keep] / table["tg"][keep], "ds": table["ds"][keep],
              "tg": table["tg"][keep], "y": table["sprt"][keep] / table["tg"][keep]}
    shares = variance_shares(ratios, "y", terms=("rt_over_tg", "ds", "tg"))
    assert report["variance_shares_sprt_over_tg"] == {"terms": shares.shares,
                                                       "residual": shares.residual_share}
    assert 0.0 <= report["ratio_linear"]["r_squared"] <= 1.0
    text = report_json(report)
    assert text == report_json(report)
    assert text.endswith("\n")


def test_plot_data_csvs():
    table = synthetic_results_table()
    model = fit_visibility_logistic(table)
    curve = visibility_curve_csv(model, max_ratio=3.0)
    lines = curve.splitlines()
    assert lines[0] == "ratio,probability"
    assert len(lines) == 201
    scatter = ratio_scatter_csv(table)
    assert scatter.splitlines()[0] == "rt_over_tg,sprt_over_tg"
    assert len(scatter.splitlines()) == len(table["tg"]) + 1

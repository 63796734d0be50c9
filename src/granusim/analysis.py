"""Statistical models fitted to an experiment results table.

Three artifacts: a variance-share decomposition of each response over
the experimental factors (sequential type-I sums of squares, covariate
treatment, two-way interactions), a logistic model of disruption
visibility against the recovery-time-to-granularity ratio, and a linear
model relating the propagated and actual recovery-time ratios.

A model takes its table as a dict of columns (``load_results``' arrays,
or lists); every column it reads goes through one rule,
``_require_columns``, which reads each by the package's real-series rule
(``errors._real_series``), ``visible`` as a sequence of bools, and
raises ``DegenerateModel`` naming the column it refuses.  Every model
adds that each column it fits is finite (``_require_finite``), and each
model of rt/tg refuses a tg of 0 before it divides (``_rt_over_tg``).

Both least-squares models are one QR factorisation of ``[1, columns]``:
a term's share is its squared effect (its entry of ``Q^T y``) over the
total sum of squares, the residual share RSS over it, and the ratio
model's ``r_squared`` is its one column's share; only the ratio model
solves ``R b = Q^T y`` for its coefficients.  The logistic ridge and
iteration cap and the curve's point count are module constants.
"""

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (DegenerateModel, InvalidFactor, MalformedResults, _is_real_type, _of_kind,
                     _real_series, _utf8_text)

#: Fixed term order for sequential sums of squares.
TERM_ORDER = ("tg", "rt", "ds", "tg:rt", "tg:ds", "rt:ds")

#: Ridge penalty keeping the logistic MLE finite under perfect separation.
LOGISTIC_RIDGE = 1e-6

#: Newton steps the logistic fit takes at most.
LOGISTIC_MAX_ITER = 200

#: Points of the visibility curve that ``visibility_curve_csv`` writes.
CURVE_POINTS = 200

#: Columns of a results file that ``load_results`` reads.
RESULTS_COLUMNS = ("tg", "rt", "ds", "spds_pct", "sprt_steps", "visible", "status")


def _records(reader, path):
    """The rows of ``reader``; ``MalformedResults`` naming ``path`` and
    the line for a field longer than ``csv.field_size_limit()``."""
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedResults(f"{path}: line {reader.line_num}: {exc}") from None


def load_results(path) -> dict[str, np.ndarray]:
    """Read a results CSV into numeric columns, keeping only ok rows.

    One ``csv.reader`` pass maps the header to column indices once and
    skips blank lines; each numeric column is then converted in one call.
    Censored runs get sprt = NaN; callers drop them for recovery-time
    models but keep them for visibility models.  A header without one of
    ``RESULTS_COLUMNS`` raises ``MalformedResults`` naming each one; a
    row whose field count differs from the header's, or an ok row whose
    visible is not ``true`` or ``false``, whose tg, rt, ds, spds_pct or
    non-blank sprt_steps is not a finite number, or whose tg, rt or ds
    is not a whole number of at least 1, raises ``MalformedResults``
    naming the line and the column, as does a file without ok rows.
    Columns are checked in that order, each at its first bad line, and
    a path that is not a ``str`` or a path object before all.  A file
    that is not UTF-8 (``errors._utf8_text``), whatever the locale, or a
    field too long for the csv module (``_records``) raises
    ``MalformedResults`` naming the line.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise MalformedResults(f"field 'path': expected a str or a path, got {path!r}")
    reader = csv.reader(io.StringIO(_utf8_text(path, MalformedResults), newline=""))
    records = _records(reader, path)
    header = next(records, [])
    missing = [c for c in RESULTS_COLUMNS if c not in header]
    if missing:
        raise MalformedResults(f"{path}: results columns missing: {', '.join(missing)}")
    # A repeated name reads its last column, as a DictReader would.
    index = {name: i for i, name in enumerate(header)}
    status, visible = index["status"], index["visible"]
    width = len(header)
    lines, rows = [], []
    for row in records:
        if len(row) != width:
            if not row:
                continue
            column = (f"column '{header[len(row)]}' is missing" if len(row) < width
                      else f"field {width + 1} has no column")
            raise MalformedResults(f"{path}: line {reader.line_num}: {len(row)} fields "
                                   f"where the header has {width}; {column}")
        if row[status] == "ok":
            if row[visible] not in ("true", "false"):
                raise MalformedResults(f"{path}: line {reader.line_num}: column 'visible': "
                                       f"neither true nor false: {row[visible]!r}")
            lines.append(reader.line_num)
            rows.append(row)
    if not rows:
        raise MalformedResults(f"no usable rows in {path}")
    columns = list(zip(*rows))

    def numbers(column: str, blank_is_nan: bool = False) -> np.ndarray:
        # One conversion and one finiteness test per column; only a column
        # that fails them is scanned value by value, to name its first bad
        # line.  numpy parses a string as float() does, so the scan finds one.
        texts = columns[index[column]]
        blank = np.array([not text for text in texts]) if blank_is_nan else False
        try:
            values = np.array([text or "nan" for text in texts] if blank_is_nan else texts,
                              dtype=float)
        except ValueError:
            pass
        else:
            if (np.isfinite(values) | blank).all():
                return values
        for line, text in zip(lines, texts):
            if blank_is_nan and text == "":
                continue
            try:
                finite = math.isfinite(float(text))
            except ValueError:
                raise MalformedResults(f"{path}: line {line}: column '{column}': "
                                       f"not a number: {text!r}") from None
            if not finite:
                raise MalformedResults(f"{path}: line {line}: column '{column}': "
                                       f"not finite: {text!r}")
        raise AssertionError(f"column '{column}' failed numpy's conversion but no value "
                             "failed float()")

    table = {
        "tg": numbers("tg"),
        "rt": numbers("rt"),
        "ds": numbers("ds"),
        "spds": numbers("spds_pct"),
        "sprt": numbers("sprt_steps", blank_is_nan=True),
        "visible": np.array([text == "true" for text in columns[visible]]),
    }
    for column in ("tg", "rt", "ds"):
        bad = np.flatnonzero((table[column] < 1) | (table[column] % 1 != 0))
        if bad.size:
            raise MalformedResults(f"{path}: line {lines[bad[0]]}: column '{column}': "
                                   f"not a positive integer: {rows[bad[0]][index[column]]!r}")
    return table


@dataclass(frozen=True)
class VarianceShareReport:
    shares: dict[str, float]  # per term, in TERM_ORDER
    residual_share: float


def _require_columns(table: dict[str, np.ndarray], names) -> dict[str, np.ndarray]:
    """The one rule of a model's table: each of ``names`` as a float
    array by ``errors._real_series`` (``visible`` as a sequence of
    bools, read as 0.0 and 1.0), in the order of ``names``.
    ``DegenerateModel`` unless the table is a dict, naming the first of
    ``names`` it lacks, then the first column the rule refuses."""
    _of_kind(dict, table, DegenerateModel, "table")
    missing = next((name for name in names if name not in table), None)
    if missing is not None:
        raise DegenerateModel(f"table lacks column {missing!r}")
    return {name: _real_series(table[name], DegenerateModel, f"column {name!r}",
                               bools=name == "visible") for name in dict.fromkeys(names)}


def _require_finite(columns: dict[str, np.ndarray | float]) -> None:
    """``DegenerateModel`` naming the first of ``columns`` (arrays or
    numbers) that holds a NaN or an infinity."""
    for name, col in columns.items():
        if not np.isfinite(col).all():
            raise DegenerateModel(f"{name} holds a value that is not finite")


def _rt_over_tg(rows: dict[str, np.ndarray]) -> np.ndarray:
    """``rt / tg`` of ``rows``, a tg of 0 refused before the divide."""
    if not rows["tg"].all():
        raise DegenerateModel("rt_over_tg holds a value that is not finite")
    return rows["rt"] / rows["tg"]


def _least_squares(columns: dict[str, np.ndarray],
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """OLS of y on ``[1, *columns.values()]`` from one QR factorisation:
    ``R``, the effects ``Q^T y`` and the RSS.  The coefficients (intercept
    first) solve ``R b = Q^T y``; only the ratio model needs them.

    Every value must be finite.  ``DegenerateModel`` names the first
    column whose ``|R_kk|`` is below ``rows * eps`` times the largest
    column norm up to it (numpy's rank tolerance), else the first column
    past the rows.
    """
    X = np.column_stack([np.ones(len(y)), *columns.values()])
    q, r = np.linalg.qr(X)
    tol = np.maximum.accumulate(np.linalg.norm(X, axis=0)) * (len(y) * np.finfo(float).eps)
    dependent = np.abs(r.diagonal()) < tol[:len(r)]
    if dependent.any() or X.shape[1] > len(y):
        name = list(columns)[(dependent.argmax() if dependent.any() else len(y)) - 1]
        raise DegenerateModel(f"design matrix rank-deficient after adding {name}")
    effects = q.T @ y
    return r, effects, float(((y - q @ effects) ** 2).sum())


def variance_shares(table: dict[str, np.ndarray], response: str,
                    terms: tuple[str, ...] = TERM_ORDER) -> VarianceShareReport:
    """Sequential (type I) share of total sum of squares per model term.

    Covariates enter a least-squares linear model in the fixed order
    given; each term's share is its squared QR effect (the drop in
    residual sum of squares when it is added) over the total.  A factor
    or response that is not finite, then a response without rows or
    variance, then a term that the ones before it span (such as a factor
    with one level) raises ``DegenerateModel`` naming the column and the
    cause; before those, a table without one of them.
    """
    columns = _require_columns(table, [*(f for term in terms for f in term.split(":")), response])
    _require_finite(columns)
    y = columns[response]
    if not len(y):
        raise DegenerateModel(f"response {response!r} has no rows")
    ss_total = float(((y - y.mean()) ** 2).sum())
    if ss_total == 0:
        raise DegenerateModel(f"response {response!r} has zero variance")

    _, effects, rss = _least_squares(
        {term: math.prod(columns[f] for f in term.split(":")) for term in terms}, y)
    return VarianceShareReport(
        shares={term: float(e ** 2) / ss_total for term, e in zip(terms, effects[1:])},
        residual_share=rss / ss_total)


@dataclass(frozen=True)
class LogisticVisibilityModel:
    """``DegenerateModel`` naming the field unless ``intercept`` and
    ``slope`` are finite real numbers; ``gradient_norm`` is NaN for a
    model read from a report, and is not checked."""

    intercept: float
    slope: float
    gradient_norm: float = math.nan  # not known for a model read from a report

    def __post_init__(self):
        for name in ("intercept", "slope"):
            value = getattr(self, name)
            if not _is_real_type(type(value)):
                raise DegenerateModel(f"{name}: expected a real number, got {value!r}")
        _require_finite({"intercept": self.intercept, "slope": self.slope})

    def probability(self, ratio) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(self.intercept + self.slope * np.asarray(ratio))))

    def ratio_at(self, p: float) -> float:
        """Ratio at which predicted visibility probability equals p, a real in (0, 1)."""
        if not (_is_real_type(type(p)) and 0.0 < p < 1.0):
            raise InvalidFactor(f"probability must be in (0, 1), got {p}")
        if self.slope == 0:
            raise DegenerateModel("zero slope; ratio is uninformative")
        return (math.log(p / (1.0 - p)) - self.intercept) / self.slope

    @property
    def threshold(self) -> float:
        return self.ratio_at(0.5)


def fit_visibility_logistic(table: dict[str, np.ndarray]) -> LogisticVisibilityModel:
    """Penalized-likelihood logistic fit of visible ~ rt/tg by Newton's method.

    With x = rt/tg, residuals r = y - mu and weights w = mu (1 - mu)
    (floored at 1e-12), each step solves the 2x2 system of the penalized
    Hessian in closed form from five sums: the gradient is (Σr, Σr·x)
    less the ridge on the slope, and the Hessian is Σw, Σw·x and Σw·x²
    plus the ridge.  Two products with the rows 1, x and x² give the
    five sums.  The fit stops once the gradient's norm is below 1e-10,
    or after ``LOGISTIC_MAX_ITER`` steps.  ``DegenerateModel`` when every
    row has one label, or one ratio: then only the ridge sets the slope,
    and rounding decides its sign.  Before those, as in the least-squares
    models, a table without tg, rt or visible, a tg or rt that is not
    finite, a tg of 0 and a table without rows are refused.
    """
    columns = _require_columns(table, ("tg", "rt", "visible"))
    _require_finite(columns)
    x, y = _rt_over_tg(columns), columns["visible"]
    if not len(y):
        raise DegenerateModel("response 'visible' has no rows")
    if y.min() == y.max():
        raise DegenerateModel("all rows share one visibility label")
    if x.min() == x.max():
        raise DegenerateModel("all rows share one rt/tg ratio")
    powers = np.stack([np.ones_like(x), x, x * x])
    intercept = slope = 0.0
    grad_norm = math.inf
    # Only the slope is penalized; a penalty on the intercept would
    # bias the midpoint of otherwise symmetric data away from center.
    # On separated labels the slope grows until exp(-eta) overflows far
    # below the midpoint; mu is then 0.0, its limit.
    with np.errstate(over="ignore"):
        for _ in range(LOGISTIC_MAX_ITER):
            mu = 1.0 / (1.0 + np.exp(-(intercept + slope * x)))
            g0, g1 = (powers[:2] @ (y - mu)).tolist()
            g1 -= LOGISTIC_RIDGE * slope
            grad_norm = math.sqrt(g0 * g0 + g1 * g1)
            if grad_norm < 1e-10:
                break
            sw, swx, swxx = (powers @ np.maximum(mu * (1.0 - mu), 1e-12)).tolist()
            swxx += LOGISTIC_RIDGE
            det = sw * swxx - swx * swx
            intercept += (swxx * g0 - swx * g1) / det
            slope += (sw * g1 - swx * g0) / det
    return LogisticVisibilityModel(intercept=intercept, slope=slope, gradient_norm=grad_norm)


@dataclass(frozen=True)
class RatioLinearModel:
    intercept: float
    slope: float
    r_squared: float


def _ratio_rows(table: dict, names=("tg", "rt", "sprt")) -> dict[str, np.ndarray]:
    """The non-censored rows of the columns ``names`` of ``table``, with
    ``rt_over_tg`` and ``sprt_over_tg`` added; a table without one of
    them (tg, rt and sprt at least), then a tg of 0, is refused."""
    columns = _require_columns(table, names)
    kept = ~np.isnan(columns["sprt"])
    rows = {name: column[kept] for name, column in columns.items()}
    return dict(rows, rt_over_tg=_rt_over_tg(rows), sprt_over_tg=rows["sprt"] / rows["tg"])


def fit_ratio_linear(table: dict[str, np.ndarray]) -> RatioLinearModel:
    """OLS of sprt/tg on rt/tg over non-censored rows.

    ``r_squared`` is the rt/tg column's sequential share, 1.0 when
    sprt/tg is constant.  A tg of 0 is refused before the divide, and a
    single rt/tg value raises ``DegenerateModel``.
    """
    rows = _ratio_rows(table)
    x, y = rows["rt_over_tg"], rows["sprt_over_tg"]
    _require_finite({"rt_over_tg": x, "sprt_over_tg": y})
    r, effects, _ = _least_squares({"rt_over_tg": x}, y)
    intercept, slope = np.linalg.solve(r, effects)
    ss_total = float(((y - y.mean()) ** 2).sum())
    return RatioLinearModel(intercept=float(intercept), slope=float(slope),
                            r_squared=float(effects[1] ** 2) / ss_total if ss_total else 1.0)


def recommend_tg(model: LogisticVisibilityModel, expected_rt: float,
                 target_p: float) -> int:
    """Largest granularity keeping visibility probability at target_p.

    floor(expected_rt / ratio_at(target_p)), clamped to at least 1.
    ``DegenerateModel`` for a model of another kind (a model checks its
    own fields); ``InvalidFactor`` unless expected_rt is a positive
    finite real number, or if its quotient by the ratio is not finite;
    ``ratio_at`` refuses a target_p outside (0, 1).
    """
    _of_kind(LogisticVisibilityModel, model, DegenerateModel, "model")
    if not (_is_real_type(type(expected_rt)) and math.isfinite(expected_rt) and expected_rt > 0):
        raise InvalidFactor(
            f"expected recovery time must be a positive finite number, got {expected_rt}")
    if model.slope <= 0:
        raise DegenerateModel("visibility must increase with the ratio")
    ratio = model.ratio_at(target_p)
    if ratio <= 0:
        raise DegenerateModel(
            f"target likelihood {target_p} is met at any granularity")
    # Divided as Python floats, which give inf where numpy's would warn.
    quotient = float(expected_rt) / float(ratio)
    if not math.isfinite(quotient):
        raise InvalidFactor(f"expected recovery time {expected_rt} over ratio {ratio} "
                            "is not a finite number")
    # Tiny guard so quotients that are mathematically integral do not
    # floor one short after rounding (e.g. 22/0.88).
    return max(1, math.floor(quotient + 1e-9))


def analysis_report(table: dict[str, np.ndarray]) -> dict:
    """The full report: variance shares, logistic fit, ratio model.

    ``DegenerateModel`` for a table without a column ``load_results``
    makes, with one ``_require_columns`` refuses, or with every ok row
    censored: no recovery time to fit.
    """
    columns = _require_columns(table, ("tg", "rt", "ds", "spds", "sprt", "visible"))
    if np.isnan(columns["sprt"]).all():
        raise DegenerateModel("every ok row is censored; sprt has no recovery time to fit")
    ratio_rows = _ratio_rows(columns, ("tg", "rt", "ds", "sprt"))

    report: dict = {}
    for response, tab, terms in (("spds", columns, TERM_ORDER),
                                 ("sprt", ratio_rows, TERM_ORDER),
                                 ("sprt_over_tg", ratio_rows, ("rt_over_tg", "ds", "tg"))):
        shares = variance_shares(tab, response, terms)
        report[f"variance_shares_{response}"] = {
            "terms": shares.shares, "residual": shares.residual_share}

    logistic = fit_visibility_logistic(table)
    report["visibility_logistic"] = {
        "intercept": logistic.intercept,
        "slope": logistic.slope,
        "ratio_at_half_likelihood": logistic.threshold,
        "granularity_over_rt_bound": (1.0 / logistic.threshold
                                      if logistic.threshold > 0 else None),
    }
    report["ratio_linear"] = asdict(fit_ratio_linear(table))
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def visibility_curve_csv(model: LogisticVisibilityModel, max_ratio: float) -> str:
    return "ratio,probability\n" + "".join(
        f"{ratio:.6f},{float(model.probability(ratio)):.6f}\n"
        for ratio in np.linspace(0.0, max_ratio, CURVE_POINTS))


def ratio_scatter_csv(table: dict[str, np.ndarray]) -> str:
    rows = _ratio_rows(table)
    pairs = zip(rows["rt_over_tg"], rows["sprt_over_tg"])
    return "rt_over_tg,sprt_over_tg\n" + "".join(f"{x:.6f},{y:.6f}\n" for x, y in pairs)

"""Statistical models fitted to an experiment results table.

Three artifacts: a variance-share decomposition of each response over
the experimental factors (sequential type-I sums of squares, covariate
treatment, two-way interactions), a logistic model of disruption
visibility against the recovery-time-to-granularity ratio, and a linear
model relating the propagated and actual recovery-time ratios.

Both least-squares models are one QR factorisation of ``[1, columns]``:
a term's share is its squared effect (its entry of ``Q^T y``) over the
total sum of squares, the residual share RSS over it, and the ratio
model's ``r_squared`` is its one column's share.  The logistic ridge and
iteration cap and the curve's point count are module constants.
"""

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CollinearError, DegenerateModel, InvalidRecoveryTime, MalformedResults

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


def load_results(path) -> dict[str, np.ndarray]:
    """Read a results CSV into numeric columns, keeping only ok rows.

    One ``csv.reader`` pass maps the header to column indices once and
    skips blank lines.  Censored runs get sprt = NaN; callers drop them
    for recovery-time models but keep them for visibility models.  A
    header without one of ``RESULTS_COLUMNS`` raises ``MalformedResults``
    naming each one; a row whose field count differs from the header's,
    or an ok row whose visible is not ``true`` or ``false``, whose tg,
    rt, ds, spds_pct or non-blank sprt_steps is not a finite number, or
    whose tg, rt or ds is not a whole number of at least 1, raises
    ``MalformedResults`` naming the line and the column, as does a file
    without ok rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in RESULTS_COLUMNS if c not in header]
        if missing:
            raise MalformedResults(f"{path}: results columns missing: {', '.join(missing)}")
        # A repeated name reads its last column, as a DictReader would.
        index = {name: i for i, name in enumerate(header)}
        status, visible = index["status"], index["visible"]
        lines, rows = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                column = (f"column '{header[len(row)]}' is missing" if len(row) < len(header)
                          else f"field {len(header) + 1} has no column")
                raise MalformedResults(f"{path}: line {reader.line_num}: {len(row)} fields "
                                       f"where the header has {len(header)}; {column}")
            if row[status] == "ok":
                if row[visible] not in ("true", "false"):
                    raise MalformedResults(f"{path}: line {reader.line_num}: column 'visible': "
                                           f"neither true nor false: {row[visible]!r}")
                lines.append(reader.line_num)
                rows.append(row)
    if not rows:
        raise MalformedResults(f"no usable rows in {path}")

    def numbers(column: str, blank: float | None = None) -> np.ndarray:
        i = index[column]
        values = []
        for line, row in zip(lines, rows):
            text = row[i]
            if blank is not None and text == "":
                values.append(blank)
                continue
            try:
                value = float(text)
            except ValueError:
                raise MalformedResults(f"{path}: line {line}: column '{column}': "
                                       f"not a number: {text!r}") from None
            if not math.isfinite(value):
                raise MalformedResults(f"{path}: line {line}: column '{column}': "
                                       f"not finite: {text!r}")
            values.append(value)
        return np.array(values)

    table = {
        "tg": numbers("tg"),
        "rt": numbers("rt"),
        "ds": numbers("ds"),
        "spds": numbers("spds_pct"),
        "sprt": numbers("sprt_steps", blank=math.nan),
        "visible": np.array([row[visible] == "true" for row in rows]),
    }
    for column in ("tg", "rt", "ds"):
        bad = np.flatnonzero((table[column] < 1) | (table[column] % 1 != 0))
        if bad.size:
            raise MalformedResults(f"{path}: line {lines[bad[0]]}: column '{column}': "
                                   f"not a positive integer: {rows[bad[0]][index[column]]!r}")
    return table


@dataclass(frozen=True)
class VarianceShareReport:
    response: str
    shares: dict[str, float]  # per term, in TERM_ORDER
    residual_share: float


def _require_finite(columns: dict[str, np.ndarray]) -> None:
    """``ValueError`` naming the first column that holds a NaN or an infinity."""
    for name, col in columns.items():
        if not np.isfinite(col).all():
            raise ValueError(f"{name} holds a value that is not finite")


def _least_squares(columns: dict[str, np.ndarray],
                   y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """OLS of y on ``[1, *columns.values()]`` from one QR factorisation:
    the coefficients (intercept first), the effects ``Q^T y`` and the RSS.

    Every value must be finite.  ``CollinearError`` names the first
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
        raise CollinearError(f"design matrix rank-deficient after adding {name}")
    effects = q.T @ y
    return np.linalg.solve(r, effects), effects, float(((y - q @ effects) ** 2).sum())


def variance_shares(table: dict[str, np.ndarray], response: str,
                    terms: tuple[str, ...] = TERM_ORDER) -> VarianceShareReport:
    """Sequential (type I) share of total sum of squares per model term.

    Covariates enter a least-squares linear model in the fixed order
    given; each term's share is its squared QR effect (the drop in
    residual sum of squares when it is added) over the total.  A factor
    or response that is not finite, then a response without variance or
    rows, raises ``ValueError``; then a term that the ones before it span
    (such as a factor with one level) raises ``CollinearError`` naming it.
    """
    y = np.asarray(table[response], dtype=float)
    _require_finite({**{f: table[f] for term in terms for f in term.split(":")}, response: y})
    ss_total = float(((y - y.mean()) ** 2).sum()) if len(y) else 0.0
    if ss_total == 0:
        raise ValueError("response has zero variance")

    _, effects, rss = _least_squares(
        {term: math.prod(table[f] for f in term.split(":")) for term in terms}, y)
    return VarianceShareReport(
        response=response,
        shares={term: float(e ** 2) / ss_total for term, e in zip(terms, effects[1:])},
        residual_share=rss / ss_total)


@dataclass(frozen=True)
class LogisticVisibilityModel:
    intercept: float
    slope: float
    gradient_norm: float

    def probability(self, ratio) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(self.intercept + self.slope * np.asarray(ratio))))

    def ratio_at(self, p: float) -> float:
        """Ratio at which predicted visibility probability equals p."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"probability must be in (0, 1), got {p}")
        if self.slope == 0:
            raise DegenerateModel("zero slope; ratio is uninformative")
        return (math.log(p / (1.0 - p)) - self.intercept) / self.slope

    @property
    def threshold(self) -> float:
        return self.ratio_at(0.5)


def fit_visibility_logistic(table: dict[str, np.ndarray]) -> LogisticVisibilityModel:
    """Penalized-likelihood logistic fit of visible ~ rt/tg via Newton/IRLS."""
    x = table["rt"] / table["tg"]
    y = np.asarray(table["visible"], dtype=float)
    if y.min() == y.max():
        raise DegenerateModel("all rows share one visibility label")
    X = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    grad_norm = math.inf
    # Only the slope is penalized; a penalty on the intercept would
    # bias the midpoint of otherwise symmetric data away from center.
    penalty = np.array([0.0, LOGISTIC_RIDGE])
    for _ in range(LOGISTIC_MAX_ITER):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - mu) - penalty * beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < 1e-10:
            break
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        hess = (X * w[:, None]).T @ X + np.diag(penalty)
        beta = beta + np.linalg.solve(hess, grad)
    return LogisticVisibilityModel(intercept=float(beta[0]), slope=float(beta[1]),
                                   gradient_norm=grad_norm)


@dataclass(frozen=True)
class RatioLinearModel:
    intercept: float
    slope: float
    r_squared: float


def _ratio_rows(table: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The non-censored rows of ``table`` with ``rt_over_tg`` and
    ``sprt_over_tg`` added; a tg of 0 is refused before the divide."""
    rows = {k: v[~np.isnan(table["sprt"])] for k, v in table.items()}
    if not rows["tg"].all():
        raise ValueError("rt_over_tg holds a value that is not finite")
    return dict(rows, rt_over_tg=rows["rt"] / rows["tg"],
                sprt_over_tg=rows["sprt"] / rows["tg"])


def fit_ratio_linear(table: dict[str, np.ndarray]) -> RatioLinearModel:
    """OLS of sprt/tg on rt/tg over non-censored rows.

    ``r_squared`` is the rt/tg column's sequential share, 1.0 when
    sprt/tg is constant.  A tg of 0 is refused before the divide, and a
    single rt/tg value raises ``CollinearError``.
    """
    rows = _ratio_rows(table)
    x, y = rows["rt_over_tg"], rows["sprt_over_tg"]
    _require_finite({"rt_over_tg": x, "sprt_over_tg": y})
    (intercept, slope), effects, _ = _least_squares({"rt_over_tg": x}, y)
    ss_total = float(((y - y.mean()) ** 2).sum())
    return RatioLinearModel(intercept=float(intercept), slope=float(slope),
                            r_squared=float(effects[1] ** 2) / ss_total if ss_total else 1.0)


def recommend_tg(model: LogisticVisibilityModel, expected_rt: float,
                 target_p: float) -> int:
    """Largest granularity keeping visibility probability at target_p.

    floor(expected_rt / ratio_at(target_p)), clamped to at least 1.
    ``InvalidRecoveryTime`` unless expected_rt is positive and finite;
    ``ratio_at`` refuses a target_p outside (0, 1).
    """
    if not (math.isfinite(expected_rt) and expected_rt > 0):
        raise InvalidRecoveryTime(
            f"expected recovery time must be a positive finite number, got {expected_rt}")
    if model.slope <= 0:
        raise DegenerateModel("visibility must increase with the ratio")
    ratio = model.ratio_at(target_p)
    if ratio <= 0:
        raise DegenerateModel(
            f"target likelihood {target_p} is met at any granularity")
    # Tiny guard so quotients that are mathematically integral do not
    # floor one short after rounding (e.g. 22/0.88).
    return max(1, math.floor(expected_rt / ratio + 1e-9))


def analysis_report(table: dict[str, np.ndarray]) -> dict:
    """The full report: variance shares, logistic fit, ratio model."""
    ratio_rows = _ratio_rows(table)

    report: dict = {}
    for response, tab, terms in (("spds", table, TERM_ORDER),
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

"""Reproduction of the four golden reference tables, with machine-readable reports.

The quoted values live in ``data/reference_tables.csv`` (one fixture file,
values verbatim, never retyped in code).  Pass criteria:

* T1: both coefficient engines match every quoted digit (within one unit in
  the quoted value's last place -- the source truncates rather than rounds in
  at least one entry).
* T2: computed relative error within a factor of 3 of the quoted one.
* T3/T4: residual and exponentially small expansion match all quoted figures
  (one last-place unit, as for T1).

T2 and the T3/T4 expansions are cut at their least term by ``level_series``.
Each table has a fixed coefficient budget, as in the source, so where the
terms still decrease at its end the whole table is summed (``_least_term_sum``).

See the fixture header for the two documented label corrections in T3 and for
why eight T2 rows cannot pass with correctly computed coefficients.
"""

import csv
import json
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from importlib import resources

from mpmath import mp

from .asym import level_series, residual_F
from .coeffs import riney_coeffs, stirling_matching_coeffs
from .errors import NoMinimumDetected
from .params import derive_params
from .reference import series_eval

FIXTURE_NAME = "reference_tables.csv"

#: fixed working precisions so reports are bit-reproducible
COEFF_DPS = 50
RESIDUAL_TABLE_M = 40
#: coefficient budget used by the source for the relative-error table
T2_COEFF_BUDGET = 25


@dataclass(frozen=True)
class TableRow:
    inputs: dict
    reference_value: str
    computed_value: str
    abs_rel_diff: str
    passed: bool


@dataclass(frozen=True)
class TableReport:
    table_id: str
    rows: tuple
    notes: tuple = field(default_factory=tuple)

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def to_json(self):
        return json.dumps({
            "table": self.table_id,
            "passed": self.passed,
            "notes": list(self.notes),
            "rows": [{"inputs": r.inputs, "reference_value": r.reference_value,
                      "computed_value": r.computed_value, "abs_rel_diff": r.abs_rel_diff,
                      "passed": r.passed} for r in self.rows],
        }, indent=2)

    def to_text(self):
        lines = [f"[{self.table_id}] overall: {'PASS' if self.passed else 'FAIL'}"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for r in self.rows:
            ins = " ".join(f"{k}={v}" for k, v in r.inputs.items())
            lines.append(f"  {ins}: reference={r.reference_value} computed={r.computed_value} "
                         f"rel_diff={r.abs_rel_diff} {'PASS' if r.passed else 'FAIL'}")
        return "\n".join(lines)


def fixture_text():
    return resources.files(__package__).joinpath(f"data/{FIXTURE_NAME}").read_text()


def fixture_rows(table_id=None):
    rows = []
    reader = csv.DictReader(
        line for line in fixture_text().splitlines() if line and not line.startswith("#"))
    for rec in reader:
        if table_id is None or rec["table"] == table_id:
            rows.append(rec)
    return rows


def _parse_b_list(spec):
    return tuple(Fraction(part) for part in spec.split(";"))


def _quoted_last_place(quoted):
    """Absolute value of one unit in the quoted string's last significant place."""
    return mp.mpf(10) ** Decimal(quoted).as_tuple().exponent


def _digit_match(computed, quoted):
    """Pass when computed agrees with the quoted string to its last digit (1 ulp)."""
    with mp.workdps(40):
        q = mp.mpf(quoted)
        diff = abs(computed - q)
        rel = diff / abs(q) if q != 0 else diff
        passed = diff <= mp.mpf("1.000001") * _quoted_last_place(quoted)
        return passed, mp.nstr(rel, 3)


def _factor_band_match(computed, quoted, band=3):
    with mp.workdps(40):
        q = mp.mpf(quoted)
        ratio = computed / q
        rel = abs(computed - q) / abs(q)
        passed = (1 / mp.mpf(band)) <= ratio <= band
        return passed, mp.nstr(rel, 3)


def _fmt(value, digits=12):
    return mp.nstr(value, digits)


def _least_term_sum(table, x, level):
    """``level`` of ``table`` at x cut at its least term, or the whole table
    where the terms still decrease at its end (a fixed coefficient budget)."""
    try:
        return level_series(table, x, (level,))
    except NoMinimumDetected:
        return level_series(table, x, (level,), len(table))


def reproduce_table1():
    """c_1..c_10 for b = (2/3, 5/6) from BOTH engines against the quoted digits."""
    params = derive_params(3, (Fraction(2, 3), Fraction(5, 6)), precision=COEFF_DPS)
    quoted = fixture_rows("T1")
    m = max(int(r["j"]) for r in quoted) + 1
    by_engine = {"stirling": stirling_matching_coeffs(params, m),
                 "riney": riney_coeffs(params, m)}
    rows = []
    for rec in quoted:
        j = int(rec["j"])
        for engine, table in by_engine.items():
            ok, rel = _digit_match(table[j], rec["value"])
            rows.append(TableRow(inputs={"b": rec["b_list"], "j": str(j), "engine": engine},
                                 reference_value=rec["value"], computed_value=_fmt(table[j], 17),
                                 abs_rel_diff=rel, passed=ok))
    return TableReport("T1", tuple(rows))


def reproduce_table2():
    """Relative error of the optimally truncated dominant expansion, 15 rows.

    Follows the source methodology: a 25-coefficient table, truncated at its
    least term |c_j| x^(-j) or, where that is the table's last, summed whole.
    """
    rows = []
    for rec in fixture_rows("T2"):
        params = derive_params(3, _parse_b_list(rec["b_list"]), precision=COEFF_DPS + 10)
        x = int(rec["x"])
        dom = _least_term_sum(stirling_matching_coeffs(params, T2_COEFF_BUDGET), x, "dominant")
        j0 = dom.terms_used - 1
        exact = series_eval(params, x, target_digits=34)
        with mp.workdps(params.dps):
            rel_err = abs((dom.value - exact.value) / exact.value)
        ok, rel = _factor_band_match(rel_err, rec["value"])
        rows.append(TableRow(inputs={"b": rec["b_list"], "x": rec["x"], "j0": str(j0)},
                             reference_value=rec["value"], computed_value=_fmt(rel_err, 6),
                             abs_rel_diff=rel, passed=ok))
    notes = ("rows with a unit/repeated parameter at x >= 15 quote errors above what "
             "correctly computed coefficients achieve; see the fixture header",)
    return TableReport("T2", tuple(rows), notes=notes)


def _residual_rows(table_id, n):
    rows = []
    for rec in fixture_rows(table_id):
        params = derive_params(n, _parse_b_list(rec["b_list"]), precision=COEFF_DPS + 10)
        table = stirling_matching_coeffs(params, RESIDUAL_TABLE_M)
        x = int(rec["x"])
        if rec["quantity"] == "F_resid":
            j0 = int(rec["j"])
            value = residual_F(params, x, j0)
            inputs = {"b": rec["b_list"], "x": rec["x"], "j0": rec["j"]}
        else:
            value = _least_term_sum(table, x, "subdominant").value
            inputs = {"b": rec["b_list"], "x": rec["x"]}
        ok, rel = _digit_match(value, rec["value"])
        rows.append(TableRow(inputs={**inputs, "quantity": rec["quantity"]},
                             reference_value=rec["value"], computed_value=_fmt(value, 8),
                             abs_rel_diff=rel, passed=ok))
    return rows


def reproduce_table3():
    """Residual vs exponentially small expansion, n = 3, both parameter sets."""
    notes = ("set 1 uses b = (4/3, 1/4); the published header (2/3, 4/3) is inconsistent "
             "with the tabulated values (it reduces exactly, c_j = 0 for j >= 1)",
             "set 2 at x = 20 uses truncation index 25, which the tabulated residual implies")
    return TableReport("T3", tuple(_residual_rows("T3", 3)), notes=notes)


def reproduce_table4():
    """Residual vs exponentially small expansion, n = 4, both parameter sets."""
    return TableReport("T4", tuple(_residual_rows("T4", 4)))


REPRODUCERS = {
    "1": reproduce_table1,
    "2": reproduce_table2,
    "3": reproduce_table3,
    "4": reproduce_table4,
}


def reproduce_all():
    return tuple(fn() for fn in REPRODUCERS.values())

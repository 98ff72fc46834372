"""Independent correctness checks, run after the timed phase.

Function values are compared with mpmath's own generalized hypergeometric
function, which shares no code with hyperbessel:

    F_n(x) = 0F_{n-1}(; b_1..b_{n-1}; -(x/n)^n) / prod_j Gamma(b_j)
    J_{m,nu}(x) = (x/3)^(m+nu) F_3(x; m+1, nu+1)

Each result is held to its own stated accuracy: ``error_estimate`` for
``compound_eval`` and the relative 10^-target for ``series_eval`` and
``humbert_J``.  A result outside that is a *miss*; one outside
``GROSS_FACTOR`` times it is *wrong*, which makes the run incorrect.  Misses
are the known defect of the compound expansion's error estimate and are
reported, not failed; the largest error-to-accuracy ratio of a run is
reported too, so its distance from ``GROSS_FACTOR`` shows.  The
reference is evaluated at two precisions; when the two disagree, or mpmath
raises, the reference itself failed and the result counts as unchecked.

Golden-table runs are checked by re-applying each fixture row's pass
criterion to the reported strings.  The expected outcome at this point of
the project is exit status 1 with exactly the eight T2 rows documented in
the fixture header failing.
"""

import json
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
from mpmath import mp

MET, MISSED, WRONG, REF_FAILED = "met", "missed", "wrong", "ref_failed"

#: a result this many times outside its stated accuracy is wrong, not a miss:
#: three orders of magnitude beyond the estimate is a broken value, not an
#: optimistic estimate
GROSS_FACTOR = 1000

#: the reference is trusted when its two precisions agree this far below the tolerance
REF_AGREEMENT = Fraction(1, 1000)

TABLE_ROWS = 51
#: T2 rows the fixture header documents as unreachable: a unit or repeated
#: parameter at x >= 15 (the source's precision-limited values)
DOCUMENTED_FAILURES = frozenset(
    ("T2", b, str(x)) for b in ("1;1", "3/2;1") for x in (15, 20, 25, 30))


def _mpf(value):
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def encode_mpf(value):
    """An mpf as exact JSON integers (signed mantissa, binary exponent)."""
    sign, man, exp, _ = value._mpf_
    if not man and exp:
        raise ValueError(f"cannot encode non-finite value {value}")
    return [-int(man) if sign else int(man), int(exp)]


def decode_mpf(pair):
    man, exp = pair
    return mp.make_mpf(mpmath.libmp.from_man_exp(int(man), int(exp)))


def reference_F(n, b_list, x, dps):
    """F_n(x) from mpmath.hyper at ``dps`` digits."""
    with mp.workdps(dps):
        bs = [_mpf(b) for b in b_list]
        z = -(_mpf(x) / n) ** n
        return mp.hyper([], bs, z) / mp.fprod([mp.gamma(b) for b in bs])


def reference_value(request, dps):
    kind = request[0]
    if kind == "humbert_J":
        _, m, nu, x, _ = request
        with mp.workdps(dps):
            scale = (_mpf(x) / 3) ** _mpf(m + nu)
            return scale * reference_F(3, (m + 1, nu + 1), x, dps)
    _, n, b_list, x = request[:4]
    return reference_F(n, b_list, x, dps)


def _precisions(request):
    if request[0] == "compound_eval":
        return 60, 90
    target = request[4]
    return target + 20, target + 45


def check_value(request, value, error_estimate=None):
    """(MET, MISSED, WRONG or REF_FAILED, |error| / stated accuracy) for one value.

    The ratio is None when the reference failed.
    """
    lo, hi = _precisions(request)
    try:
        ref = reference_value(request, lo)
        ref_hi = reference_value(request, hi)
    except (mpmath.libmp.NoConvergence, ZeroDivisionError, ValueError):
        return REF_FAILED, None
    with mp.workdps(hi):
        if request[0] == "compound_eval":
            tol = abs(error_estimate)
        else:
            tol = abs(ref_hi) * mp.mpf(10) ** (-request[4])
        if abs(ref - ref_hi) > tol * _mpf(REF_AGREEMENT):
            return REF_FAILED, None
        err = abs(value - ref_hi)
        ratio = float(err / tol) if tol else math.inf
        if err <= tol:
            return MET, ratio
        return (WRONG if err > GROSS_FACTOR * tol else MISSED), ratio


def _last_place(quoted):
    return mp.mpf(10) ** Decimal(quoted).as_tuple().exponent


def _row_passes(table, row):
    """A fixture row's pass criterion, applied to the reported strings."""
    with mp.workdps(40):
        quoted = mp.mpf(row["reference_value"])
        computed = mp.mpf(row["computed_value"])
        if table == "T2":
            ratio = computed / quoted
            return 1 / mp.mpf(3) <= ratio <= 3
        # computed strings carry at least one digit beyond the quoted ones, so
        # allow half a unit of that rounding on top of the one-unit criterion
        unit = _last_place(row["reference_value"])
        slack = _last_place(row["computed_value"]) / 2
        return abs(computed - quoted) <= mp.mpf("1.000001") * unit + slack


def check_tables(exit_code, stdout):
    """(rows, rows failing, correct) for one ``tables --table all --format json`` run."""
    try:
        reports = json.loads(stdout)
    except ValueError:
        return 0, 0, False
    rows = [(rep["table"], row) for rep in reports for row in rep["rows"]]
    failing = []
    consistent = True
    for table, row in rows:
        passed = _row_passes(table, row)
        consistent = consistent and passed == row["passed"]
        if not passed:
            failing.append((table, row["inputs"].get("b"), row["inputs"].get("x")))
    correct = (consistent and exit_code == 1 and len(rows) == TABLE_ROWS
               and sorted(failing) == sorted(DOCUMENTED_FAILURES))
    return len(rows), len(failing), correct

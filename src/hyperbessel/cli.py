"""Command-line front end: evaluation, coefficients, residual analysis, golden tables.

Numeric output is plain decimal strings at the full requested precision, so
CSV/JSON emission round-trips losslessly and identical invocations produce
identical bytes.  Rational parameters are accepted as p/q strings and
converted exactly before rounding.
"""

import functools
import json
from dataclasses import replace
from fractions import Fraction

import click
from mpmath import mp

from . import asym, coeffs as coeffs_mod, verify
from .errors import HyperBesselError
from .params import derive_params
from .precision import DEFAULT_DPS, MIN_DPS, auto_series_dps, to_mpf
from .reference import humbert_rescale, series_eval

ENV_DPS = "HYPERBESSEL_DPS"


def _numeric_errors(fn):
    """Map package numeric errors to exit status 1 with the error name."""
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except HyperBesselError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}")
    return inner


def _resolve_order(n3, n4, n5, humbert):
    chosen = [name for name, flag in (("--n3", n3), ("--n4", n4), ("--n5", n5),
                                      ("--humbert", humbert)) if flag]
    if len(chosen) != 1:
        raise click.UsageError("choose exactly one of --n3 / --n4 / --n5 / --humbert")
    return chosen[0]


_ORDERS = {"--n3": 3, "--n4": 4, "--n5": 5}


def _build_params(mode, a, b, precision):
    if mode == "--n3":
        if a is None or b is None:
            raise click.UsageError("--n3 needs -a and -b")
        if len(b) != 1:
            raise click.UsageError("--n3 takes scalar -a and -b")
        bs = (a,) + b
    else:
        if b is None or a is not None:
            raise click.UsageError(f"{mode} needs a comma-separated -b list (and no -a)")
        bs = b
    return derive_params(_ORDERS[mode], bs, precision=precision or DEFAULT_DPS)


def _x_values(x, x_range):
    if (x is None) == (x_range is None):
        raise click.UsageError("provide exactly one of --x or --x-range start:stop:step")
    if x is not None:
        return [x]
    if len(x_range) != 3:
        raise click.UsageError("--x-range must be start:stop:step")
    start, stop, step = x_range
    if step <= 0:
        raise click.UsageError("--x-range step must be positive")
    return [start + k * step for k in range((stop - start) // step + 1)]


def _emit(rows, headers, fmt, output, summary=None):
    """Render rows (lists of strings) as text, CSV or JSON, and write them."""
    if fmt == "csv":
        lines = [",".join(headers)] + [",".join(r) for r in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps([dict(zip(headers, r)) for r in rows], indent=2) + "\n"
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        text = "\n".join(lines) + "\n"
    if summary and fmt == "text":
        text += summary + "\n"
    _write(text, output)


def _write(text, output):
    """Write ``text`` to the ``output`` path, or to stdout where that is unset or "-"."""
    if output and output != "-":
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _num(value, digits):
    """Decimal string with a small guard beyond ``digits`` so parsing round-trips."""
    return mp.nstr(value, digits + 3, strip_zeros=True)


def _xstr(xv):
    return mp.nstr(to_mpf(xv, 30), 15, strip_zeros=True)


class _KeywordOrInt(click.ParamType):
    """A fixed keyword, or an integer no less than ``low``."""

    def __init__(self, keyword, low):
        self.keyword = keyword
        self.low = low
        self.name = f"{keyword}|integer"

    def convert(self, value, param, ctx):
        if value == self.keyword:
            return value
        try:
            number = int(value)
        except ValueError:
            number = None
        if number is None or number < self.low:
            self.fail(f"{value!r} is neither {self.keyword!r} nor an integer >= {self.low}", param, ctx)
        return number


class _Rationals(click.ParamType):
    """Exact rationals, each p/q or a decimal: one, or a tuple of ``sep``-separated ones."""

    name = "rational"

    def __init__(self, sep=None):
        self.sep = sep

    def convert(self, value, param, ctx):
        try:
            parts = tuple(Fraction(part) for part in (value.split(self.sep) if self.sep else [value]))
        except (ValueError, ZeroDivisionError):
            self.fail(f"cannot parse {value!r} (use p/q or a decimal)", param, ctx)
        return parts if self.sep else parts[0]


_format_option = click.option("--format", "-f", "fmt", type=click.Choice(["text", "csv", "json"]),
                              default="text", help="output format")
_output_option = click.option("--output", "-o", help="output path (default: stdout)")

#: the options of every command that evaluates one function: order, parameters, precision, output
_FUNCTION_OPTIONS = (
    click.option("--n3", is_flag=True, help="order-3 function with -a, -b"),
    click.option("--n4", is_flag=True, help="order-4 function with -b b1,b2,b3"),
    click.option("--n5", is_flag=True, help="order-5 function with -b b1,...,b4"),
    click.option("-a", type=_Rationals(), help="first denominator parameter (--n3)"),
    click.option("-b", type=_Rationals(","), help="denominator parameter or comma-separated list"),
    click.option("--precision", "-p", type=click.IntRange(min=MIN_DPS), envvar=ENV_DPS,
                 help=f"working precision in decimal digits (default: auto; env {ENV_DPS})"),
    _format_option,
    _output_option,
)


def _function_options(command):
    return functools.reduce(lambda fn, option: option(fn), reversed(_FUNCTION_OPTIONS), command)


@click.group()
@click.version_option(package_name="hyperbessel")
def main():
    """Arbitrary-precision hyper-Bessel / extended-order function evaluator."""


@main.command("eval")
@_function_options
@click.option("--humbert", is_flag=True, help="hyper-Bessel J_{m,nu} with -m, -n")
@click.option("-m", "m_f", type=_Rationals(), help="first hyper-Bessel order (--humbert)")
@click.option("-n", "nu_f", type=_Rationals(), help="second hyper-Bessel order (--humbert)")
@click.option("--x", type=_Rationals(), help="evaluation point (x >= 0)")
@click.option("--x-range", type=_Rationals(":"), help="range start:stop:step")
@click.option("--target", type=click.IntRange(min=1), default=20, help="target significant digits")
@click.option("--method", type=click.Choice(["series", "compound", "both"]), default="series")
@click.option("--trunc", type=_KeywordOrInt(asym.OPTIMAL, 1), default=asym.OPTIMAL,
              help="compound truncation: 'optimal' or a term count")
@click.option("--scale", type=click.Choice(["none", "exp-half"]), default="none",
              help="report value and error estimate scaled by e^(-x/2)")
@_numeric_errors
def cmd_eval(n3, n4, n5, humbert, a, b, m_f, nu_f, x, x_range, target,
             method, trunc, scale, precision, fmt, output):
    """Evaluate the function by direct summation and/or the compound expansion."""
    mode = _resolve_order(n3, n4, n5, humbert)
    xs = _x_values(x, x_range)
    if any(v < 0 for v in xs):
        raise click.UsageError("x must be non-negative")

    if humbert:
        if m_f is None or nu_f is None:
            raise click.UsageError("--humbert needs -m and -n")
        if a is not None or b is not None:
            raise click.UsageError("--humbert takes -m/-n, not -a/-b")
        params = derive_params(3, (m_f + 1, nu_f + 1), precision=precision or DEFAULT_DPS)
    else:
        params = _build_params(mode, a, b, precision)

    methods = ["series", "compound"] if method == "both" else [method]
    rows = []
    for xv in xs:
        for meth in methods:
            # each result is rescaled, scaled and printed at the precision it was computed at
            if meth == "series":
                res = series_eval(params, xv, target_digits=target, dps=precision)
                dps = precision or auto_series_dps(target)
            else:
                res = asym.compound_eval(params, xv, truncation=trunc)
                dps = params.dps
            if humbert:
                res = humbert_rescale(res, m_f, nu_f, xv, dps)
            if scale == "exp-half":
                with mp.workdps(dps):
                    half = mp.exp(-to_mpf(xv, dps) / 2)
                    res = replace(res, value=res.value * half, error_estimate=res.error_estimate * half)
            rows.append([_xstr(xv), _num(res.value, dps), res.method, str(res.terms_used),
                         _num(res.error_estimate, 8)])
    _emit(rows, ["x", "value", "method", "terms", "error_estimate"], fmt, output)


@main.command("coeffs")
@_function_options
@click.option("-M", "m_count", type=click.IntRange(min=1), default=11,
              help="number of coefficients c_0..c_{M-1}")
@click.option("--method", type=click.Choice(["riney", "stirling", "both"]), default="stirling")
@_numeric_errors
def cmd_coeffs(n3, n4, n5, a, b, m_count, method, precision, fmt, output):
    """Tabulate the expansion coefficients c_j by one or both engines."""
    mode = _resolve_order(n3, n4, n5, False)
    params = _build_params(mode, a, b, precision)
    out_dps = params.dps
    tables = {}
    if method in ("riney", "both"):
        tables["riney"] = coeffs_mod.riney_coeffs(params, m_count)
    if method in ("stirling", "both"):
        tables["stirling"] = coeffs_mod.stirling_matching_coeffs(params, m_count)
    headers = ["j"] + [f"c_{name}" for name in tables]
    rows = []
    for j in range(m_count):
        rows.append([str(j)] + [_num(t[j], out_dps) for t in tables.values()])
    summary = None
    if method == "both":
        with mp.workdps(out_dps):
            disc = max(abs(u - v) for u, v in zip(tables["riney"].c, tables["stirling"].c))
        summary = f"max cross-method discrepancy: {_num(disc, 6)}"
    _emit(rows, headers, fmt, output, summary=summary)
    if summary and fmt != "text":
        click.echo(summary, err=True)


@main.command("residual")
@_function_options
@click.option("--x", "xv", type=_Rationals(), required=True)
@click.option("--j0", type=_KeywordOrInt("auto", 0), default="auto",
              help="dominant truncation index (inclusive), or 'auto'")
@_numeric_errors
def cmd_residual(n3, n4, n5, a, b, xv, j0, precision, fmt, output):
    """Compare the numerically extracted residual with the exponentially small expansion.

    The parameters are built at the precision the residual needs at this x,
    or at --precision (or the environment override) where that is higher.
    """
    mode = _resolve_order(n3, n4, n5, False)
    if xv <= 0:
        raise click.UsageError("residual analysis needs x > 0")
    params = _build_params(mode, a, b, max(precision or DEFAULT_DPS,
                                           asym.residual_dps(_ORDERS[mode], xv)))
    below = asym.compound_eval(params, xv, levels=[level for level in asym.LEVELS[params.n]
                                                   if level != "dominant"])
    es = below.value
    j0_val = below.terms_used - 1 if j0 == "auto" else j0
    resid = asym.residual_F(params, xv, j0_val)
    with mp.workdps(40):
        agreement = mp.nstr(abs(resid - es) / abs(es), 4) if es != 0 else "n/a"
    rows = [[_xstr(xv), str(j0_val), _num(resid, 10), _num(es, 10), agreement]]
    _emit(rows, ["x", "j0", "residual", "exp_small", "rel_difference"], fmt, output)


@main.command("tables")
@click.option("--table", "which", type=click.Choice([*verify.REPRODUCERS, "all"]), default="all",
              help="the golden table to reproduce")
@_format_option
@_output_option
@_numeric_errors
def cmd_tables(which, fmt, output):
    """Reproduce the golden reference tables; exit nonzero when any row fails."""
    reports = verify.reproduce_all() if which == "all" else (verify.REPRODUCERS[which](),)
    if fmt == "json":
        text = "[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n"
    else:
        text = "\n\n".join(r.to_text() for r in reports) + "\n"
    _write(text, output)
    if not all(r.passed for r in reports):
        raise SystemExit(1)


if __name__ == "__main__":
    main()

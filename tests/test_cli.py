import csv
import io
import json

import pytest
from click.testing import CliRunner
from mpmath import mp

from hyperbessel import asym, derive_params, humbert_J, series_eval
from hyperbessel.cli import main
from hyperbessel.precision import DEFAULT_DPS


@pytest.fixture()
def runner():
    return CliRunner()


def rows_of(output):
    return list(csv.DictReader(io.StringIO(output)))


def test_eval_humbert_range_csv(runner):
    res = runner.invoke(main, ["eval", "--humbert", "-m", "0.5", "-n", "0.6667",
                               "--x-range", "1:40:0.5", "--scale", "exp-half", "--format", "csv"])
    assert res.exit_code == 0
    rows = rows_of(res.stdout)
    assert len(rows) == 79
    assert rows[0]["x"] == "1.0"
    assert rows[-1]["x"] == "40.0"
    # scaled values stay order-of-magnitude x^(-1): oscillatory decay, no blowup
    with mp.workdps(30):
        assert all(abs(mp.mpf(r["value"])) < 1 for r in rows)


def test_eval_exp_half_scales_the_estimate_with_the_value(runner):
    args = ["eval", "--n3", "-a", "2/3", "-b", "5/6", "--x", "20", "--method", "compound",
            "--format", "csv"]
    plain, scaled = (rows_of(runner.invoke(main, args + extra).stdout)[0]
                     for extra in ([], ["--scale", "exp-half"]))
    # both rows print 11 significant digits of the estimate
    with mp.workdps(30):
        want = mp.mpf(plain["error_estimate"]) * mp.exp(-mp.mpf(20) / 2)
        assert abs(mp.mpf(scaled["error_estimate"]) - want) <= abs(want) * mp.mpf("1e-10")


def test_eval_both_methods_agree(runner):
    # exact thirds: the expansion terminates and both methods agree to target
    res = runner.invoke(main, ["eval", "--n3", "-a", "1/3", "-b", "2/3", "--x", "10",
                               "--method", "both", "--format", "csv", "--target", "20"])
    assert res.exit_code == 0
    rows = rows_of(res.stdout)
    assert [r["method"] for r in rows] == ["series", "compound"]
    with mp.workdps(50):
        a, b = (mp.mpf(r["value"]) for r in rows)
        assert abs(a - b) <= abs(a) * mp.mpf("1e-19")
    # decimal approximations of the same parameters hit the asymptotic
    # accuracy floor instead of the requested target
    res = runner.invoke(main, ["eval", "--n3", "-a", "0.3333", "-b", "0.6667", "--x", "10",
                               "--method", "both", "--format", "csv", "--target", "20"])
    rows = rows_of(res.stdout)
    with mp.workdps(50):
        a, b = (mp.mpf(r["value"]) for r in rows)
        assert abs(a - b) <= abs(a) * mp.mpf("1e-9")


def test_eval_extended_orders(runner):
    res = runner.invoke(main, ["eval", "--n5", "-b", "1/5,2/5,3/5,4/5", "--x", "7",
                               "--target", "25", "--format", "csv"])
    assert res.exit_code == 0
    with mp.workdps(40):
        got = mp.mpf(rows_of(res.stdout)[0]["value"])
        # the fifths reduce to an elementary expression
        x = mp.mpf(7)
        want = mp.mpf(5) ** mp.mpf("-0.5") / (2 * mp.pi) ** 2 * (
            2 * mp.exp(x * mp.cospi(mp.mpf(1) / 5)) * mp.cos(x * mp.sinpi(mp.mpf(1) / 5))
            + 2 * mp.exp(x * mp.cospi(mp.mpf(3) / 5)) * mp.cos(x * mp.sinpi(mp.mpf(3) / 5))
            + mp.exp(-x))
        assert abs(got - want) <= abs(want) * mp.mpf("1e-24")
    res = runner.invoke(main, ["eval", "--n4", "-b", "1/4,1/2,3/4", "--x", "5",
                               "--method", "both", "--format", "csv"])
    assert res.exit_code == 0
    rows = rows_of(res.stdout)
    with mp.workdps(50):
        a, b = (mp.mpf(r["value"]) for r in rows)
        assert abs(a - b) <= abs(a) * mp.mpf("1e-19")


def test_eval_humbert_compound_rescaling(runner):
    # the compound path applies the (x/3)^(m+nu) rescaling itself
    args = ["eval", "--humbert", "-m", "1/2", "-n", "2/3", "--x", "15",
            "--method", "both", "--format", "csv", "--target", "18"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0
    rows = rows_of(res.stdout)
    with mp.workdps(50):
        a, b = (mp.mpf(r["value"]) for r in rows)
        # bounded by the expansion's intrinsic accuracy at x=15, not the target
        assert abs(a - b) <= abs(a) * mp.mpf("1e-10")


def test_eval_fixed_truncation(runner):
    res = runner.invoke(main, ["eval", "--n3", "-a", "2/3", "-b", "5/6", "--x", "18",
                               "--method", "compound", "--trunc", "7", "--format", "csv"])
    assert res.exit_code == 0
    row = rows_of(res.stdout)[0]
    assert row["terms"] == "7"


def test_eval_usage_errors(runner):
    assert runner.invoke(main, ["eval", "--n3", "-a", "1/3", "-b", "2/3", "--x", "-1"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--x", "1"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--n3", "--humbert", "-a", "1/3", "-b", "2/3",
                                "--x", "1"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--n3", "-a", "1/3", "-b", "2/3", "--x", "1",
                                "--x-range", "1:2:1"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--n3", "-a", "1/3", "-b", "2/3",
                                "--x-range", "1:2:0"]).exit_code == 2
    # malformed or out-of-range numbers are usage errors, not tracebacks
    point = ["eval", "--n3", "-a", "1/3", "-b", "2/3", "--x", "10", "--method", "compound"]
    for extra in (["--trunc", "abc"], ["--trunc", "0"], ["--precision", "10"],
                  ["--target", "0"], ["--target", "-5"]):
        assert runner.invoke(main, point + extra).exit_code == 2
    for env in ("abc", "10"):
        assert runner.invoke(main, point, env={"HYPERBESSEL_DPS": env}).exit_code == 2
    # parameters that do not fit the chosen order, and a malformed range
    for args in (["--n3", "-a", "1/3", "--x", "1"],
                 ["--n3", "-a", "1/3", "-b", "1,2", "--x", "1"],
                 ["--n4", "-a", "1/3", "-b", "1/4,1/2,3/4", "--x", "1"],
                 ["--n3", "-a", "1/3", "-b", "2/3", "--x-range", "1:2"],
                 ["--humbert", "-m", "1/2", "--x", "1"],
                 ["--humbert", "-m", "1/2", "-n", "2/3", "-a", "1/3", "--x", "1"]):
        assert runner.invoke(main, ["eval", *args]).exit_code == 2
    assert runner.invoke(main, ["residual", "--n3", "-a", "4/3", "-b", "1/4",
                                "--x", "0"]).exit_code == 2


@pytest.mark.parametrize("order, reference", [
    (["--n3", "-a", "1/3", "-b", "2/3"],
     lambda: series_eval(derive_params(3, ("1/3", "2/3")), 10, target_digits=60)),
    (["--humbert", "-m", "1/2", "-n", "2/3"],
     lambda: humbert_J("1/2", "2/3", 10, target_digits=60)),
], ids=["n3", "humbert"])
def test_eval_prints_every_digit_of_a_high_target(runner, order, reference):
    # a 60-digit target is summed at 70 digits, and all of them reach the output
    res = runner.invoke(main, ["eval", *order, "--x", "10", "--target", "60", "--format", "csv"])
    assert res.exit_code == 0, res.output
    want = reference().value
    with mp.workdps(80):
        got = mp.mpf(rows_of(res.stdout)[0]["value"])
        assert abs(got - want) <= abs(want) * mp.mpf(10) ** -60


def test_eval_text_table(runner):
    # the default format: a header and one row per point, in padded columns
    args = ["eval", "--n3", "-a", "1/3", "-b", "2/3", "--x-range", "2:3:1", "--method", "both"]
    text = runner.invoke(main, args)
    assert text.exit_code == 0
    lines = text.stdout.splitlines()
    assert lines[0].split() == ["x", "value", "method", "terms", "error_estimate"]
    assert lines[0].index("value") == lines[1].index(lines[1].split()[1])
    csv_rows = rows_of(runner.invoke(main, args + ["--format", "csv"]).stdout)
    assert [line.split() for line in lines[1:]] == [list(r.values()) for r in csv_rows]


def test_eval_compound_at_zero_is_a_domain_error(runner):
    # x = 0 passes the x >= 0 check, and the compound expansion refuses it cleanly
    for order in (["--n3", "-a", "1/3", "-b", "2/3"], ["--humbert", "-m", "1/2", "-n", "2/3"]):
        res = runner.invoke(main, ["eval", *order, "--x", "0", "--method", "compound"])
        assert res.exit_code == 1
        assert "DomainError" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)


def test_x_beyond_float_range_is_precision_insufficient(runner):
    # every method and the residual's precision refuse it; none overflows
    evaluate = ["eval", "--n3", "-a", "2/3", "-b", "5/6", "--x", "1e400"]
    for args in (evaluate, evaluate + ["--method", "both"], evaluate + ["--method", "compound"],
                 ["residual", "--n3", "-a", "4/3", "-b", "1/4", "--x", "1e400"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert "PrecisionInsufficient" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)


def test_coeffs_usage_errors(runner):
    args = ["coeffs", "--n3", "-a", "2/3", "-b", "5/6"]
    for extra in (["-M", "0"], ["-M", "x"], ["--precision", "10"]):
        assert runner.invoke(main, args + extra).exit_code == 2
    assert runner.invoke(main, args, env={"HYPERBESSEL_DPS": "abc"}).exit_code == 2


def test_residual_usage_errors(runner):
    args = ["residual", "--n3", "-a", "4/3", "-b", "1/4", "--x", "10"]
    for extra in (["--j0", "-1"], ["--j0", "abc"], ["--precision", "10"]):
        assert runner.invoke(main, args + extra).exit_code == 2
    assert runner.invoke(main, args, env={"HYPERBESSEL_DPS": "abc"}).exit_code == 2


def test_eval_json_round_trip(runner):
    res = runner.invoke(main, ["eval", "--n3", "-a", "2/3", "-b", "5/6", "--x", "3",
                               "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert len(payload) == 1
    with mp.workdps(60):
        v = mp.mpf(payload[0]["value"])
        assert abs(v) > 0  # parses as a number at full precision


def test_coeffs_table1_both_engines(runner):
    res = runner.invoke(main, ["coeffs", "--n3", "-a", "2/3", "-b", "5/6", "-M", "11",
                               "--method", "both", "--format", "csv"])
    assert res.exit_code == 0
    rows = rows_of(res.stdout)
    assert len(rows) == 11
    with mp.workdps(50):
        assert mp.mpf(rows[7]["c_riney"]) == mp.mpf(rows[7]["c_stirling"])
        assert abs(mp.mpf(rows[7]["c_stirling"]) - mp.mpf("-9.259891510009765625")) <= mp.mpf("1e-30")


def test_coeffs_text_summary_line(runner):
    # in text format the cross-method discrepancy follows the table on stdout
    res = runner.invoke(main, ["coeffs", "--n3", "-a", "2/3", "-b", "5/6", "-M", "11",
                               "--method", "both"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0].split() == ["j", "c_riney", "c_stirling"]
    assert len(lines) == 13
    label, value = lines[-1].split(": ")
    assert label == "max cross-method discrepancy"
    with mp.workdps(50):
        assert mp.mpf(value) <= mp.mpf("1e-45")


def test_coeffs_riney_singular_exit(runner):
    res = runner.invoke(main, ["coeffs", "--n3", "-a", "1", "-b", "1", "--method", "riney"])
    assert res.exit_code == 1
    assert "SingularRineyWeights" in res.output


def test_coeffs_n5_vanishing(runner):
    res = runner.invoke(main, ["coeffs", "--n5", "-b", "0.2,0.4,0.6,0.8", "-M", "5",
                               "--format", "csv"])
    assert res.exit_code == 0
    rows = rows_of(res.stdout)
    assert len(rows) == 5
    with mp.workdps(50):
        assert mp.mpf(rows[0]["c_stirling"]) == 1
        for r in rows[1:]:
            assert abs(mp.mpf(r["c_stirling"])) <= mp.mpf("1e-35")


def test_residual_table3_point(runner):
    res = runner.invoke(main, ["residual", "--n3", "-a", "4/3", "-b", "1/4", "--x", "10",
                               "--j0", "12", "--format", "csv"])
    assert res.exit_code == 0
    row = rows_of(res.stdout)[0]
    with mp.workdps(40):
        assert abs(mp.mpf(row["residual"]) - mp.mpf("-4.43157e-6")) <= mp.mpf("1e-10")
        assert abs(mp.mpf(row["exp_small"]) - mp.mpf("-4.21754e-6")) <= mp.mpf("1e-10")


def test_residual_vanishing_exp_small(runner):
    # half-integer parameter gap: the exponentially small level is exactly absent
    res = runner.invoke(main, ["residual", "--n3", "-a", "3/4", "-b", "1/4", "--x", "15",
                               "--format", "csv"])
    assert res.exit_code == 0
    row = rows_of(res.stdout)[0]
    assert mp.mpf(row["exp_small"]) == 0
    assert row["rel_difference"] == "n/a"


def test_residual_n4_with_negative_parameter(runner):
    res = runner.invoke(main, ["residual", "--n4", "-b", "-0.25,0.5,0.625", "--x", "15",
                               "--j0", "17", "--format", "csv"])
    assert res.exit_code == 0
    row = rows_of(res.stdout)[0]
    with mp.workdps(40):
        assert abs(mp.mpf(row["residual"]) - mp.mpf("8.51145e-6")) <= mp.mpf("1e-10")
        assert abs(mp.mpf(row["exp_small"]) - mp.mpf("8.56645e-6")) <= mp.mpf("1e-10")


def test_residual_works_out_its_precision_at_large_x(runner):
    # the e^(-x) level at x = 70 lies 46 digits below F_3; 50-digit parameters miss it
    args = ["residual", "--n3", "-a", "4/3", "-b", "1/4", "--x", "70", "--format", "csv"]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    with mp.workdps(40):
        assert mp.mpf(rows_of(res.stdout)[0]["rel_difference"]) < mp.mpf("1e-7")
    # an explicit precision below the 56 digits the residual needs is raised to them
    for low in (runner.invoke(main, args + ["--precision", "50"]),
                runner.invoke(main, args, env={"HYPERBESSEL_DPS": "50"})):
        assert low.exit_code == 0, low.output
        assert low.stdout == res.stdout


@pytest.mark.parametrize("order, bs, x", [(3, ("4/3", "1/4"), 10),
                                          (5, ("1/5", "2/5", "3/5", "9/10"), 20)])
def test_residual_auto_j0_is_the_least_term_of_its_table(runner, order, bs, x):
    # the levels below the dominant one, by compound_eval at the residual's precision
    args = ["residual", f"--n{order}", "--x", str(x), "--format", "csv"]
    args += ["-a", bs[0], "-b", bs[1]] if order == 3 else ["-b", ",".join(bs)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    p = derive_params(order, bs, precision=max(DEFAULT_DPS, asym.residual_dps(order, x)))
    below = [level for level in asym.LEVELS[order] if level != "dominant"]
    assert int(rows_of(res.stdout)[0]["j0"]) == asym.compound_eval(p, x, levels=below).terms_used - 1


def test_tables_command(runner):
    res = runner.invoke(main, ["tables", "--table", "1"])
    assert res.exit_code == 0
    assert "[T1] overall: PASS" in res.output

    res = runner.invoke(main, ["tables", "--table", "9"])
    assert res.exit_code == 2

    res = runner.invoke(main, ["tables", "--table", "3", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)[0]
    assert payload["passed"] is True


def test_tables_table2_fails_documented(runner):
    res = runner.invoke(main, ["tables", "--table", "2", "--format", "json"])
    assert res.exit_code == 1  # the eight documented rows
    payload = json.loads(res.stdout)[0]
    assert payload["passed"] is False
    assert sum(1 for r in payload["rows"] if r["passed"]) == 7


def test_deterministic_output(runner):
    args = ["eval", "--n3", "-a", "2/3", "-b", "5/6", "--x-range", "1:5:1", "--format", "csv"]
    out1 = runner.invoke(main, args).stdout
    out2 = runner.invoke(main, args).stdout
    assert out1 == out2


def test_env_var_precision(runner):
    args = ["eval", "--n3", "-a", "1/3", "-b", "2/3", "--x", "2", "--format", "csv"]
    short = rows_of(runner.invoke(main, args, env={"HYPERBESSEL_DPS": "30"}).stdout)[0]["value"]
    long = rows_of(runner.invoke(main, args, env={"HYPERBESSEL_DPS": "70"}).stdout)[0]["value"]
    assert len(long) > len(short)


def test_output_file(runner, tmp_path):
    path = tmp_path / "out.csv"
    res = runner.invoke(main, ["eval", "--n3", "-a", "1/3", "-b", "2/3", "--x", "2",
                               "--format", "csv", "-o", str(path)])
    assert res.exit_code == 0
    assert path.read_text().startswith("x,value")

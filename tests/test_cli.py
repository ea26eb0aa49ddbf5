import csv
import json
import math

import pytest

from wavebounds.bernstein import verify_sweep
from wavebounds.cli import main
from wavebounds.daub_filters import construct_filter
from wavebounds.norms import NormRequest, default_decay, weighted_lp_norm
from wavebounds.reporting import fmt17, rows_to_csv_bytes
from wavebounds.spectral_eval import wavelet_hat_abs2


class TestFilters:
    def test_json_output_matches_library(self, capsys):
        assert main(["filters", "--m", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 2
        taps = [float(t) for t in payload["taps"]]
        assert taps == pytest.approx(list(construct_filter(2).taps), abs=1e-16)

    def test_csv_output(self, capsys):
        assert main(["filters", "--m", "1", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "index,tap"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == pytest.approx(math.sqrt(0.5), abs=1e-16)

    def test_highest_order(self, capsys):
        assert main(["filters", "--m", "32"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 64 and lines[-1].startswith("h(63) = ")

    def test_order_above_limit_named(self, capsys):
        assert main(["filters", "--m", "33"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavebounds: error: ") and "the order must satisfy 1 <= m <= 32, got m=33" in err

    def test_plain_output_has_17_digits(self, capsys):
        main(["filters", "--m", "2"])
        out = capsys.readouterr().out
        assert "h(0) = 0.48296291314453" in out


def test_norm_order_above_limit_is_one_line_error(capsys):
    assert main(["norm", "--m", "300", "--k", "0", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wavebounds: error: ") and "got m=300" in captured.err
    assert captured.err.count("\n") == 1


class TestLargeP:
    # At large p the tail power C~^p overflowed, and an integral below the
    # double range printed 0.
    def test_tail_power_does_not_overflow(self, capsys):
        assert main(["norm", "--m", "3", "--k", "0", "--p", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < float(payload["value"]) < math.inf
        assert 0 < float(payload["abs_error"]) < 1e-12 * float(payload["value"])

    def test_underflowing_integral_is_one_line_error(self, capsys):
        assert main(["norm", "--m", "1", "--k", "0", "--p", "700"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: ") and "(1, 0, 700.0)" in captured.err
        assert captured.err.count("\n") == 1


class TestLargePBounds:
    # The bracket's powers of pi and of m C(2m, m) grow with p past the double range.
    @pytest.mark.parametrize(
        "m,k,p,exponent",
        [(10, 1, 300, "2551"), (2, 0, 700, "1051"), (20, 3, 60, "991"), (4, 4, 400, "1401")],
    )
    def test_overflowing_bracket_term_is_one_line_error(self, capsys, m, k, p, exponent):
        assert main(["bounds", "--m", str(m), "--k", str(k), "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: the bracket term x^(p(m-k-1/2)+1)")
        assert f"^{exponent} " in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("m,p,n", [(20, 8, 160), (2, 300, 600)])
    def test_k_equal_m_past_the_sinc_sum_exits_2(self, capsys, m, p, n):
        # An even m p past the exact sinc sum, which F needs; at m p = 600
        # F's power of pi would overflow too, so the sum's limit must act first.
        assert main(["bounds", "--m", str(m), "--k", str(m), "--p", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"wavebounds: error: sinc_alternating_sum supports n <= 128, got n={n}\n"
        )

    def test_k_equal_m_with_odd_mp_prints_no_F_or_G(self, capsys):
        # m p = 4.5 is outside F's and G's hypothesis, not an error.
        assert main(["bounds", "--m", "3", "--k", "3", "--p", "1.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["F"] == payload["G"] == ""
        assert float(payload["D"]) > 0


class TestPointEvaluations:
    def test_order_above_limit_is_one_line_error(self, capsys):
        assert main(["eval", "--m", "40", "--omega", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: ") and "the order must satisfy 1 <= m <= 32, got m=40" in captured.err
        assert captured.err.count("\n") == 1

    def test_abs2(self, capsys):
        assert main(["eval", "--m", "2", "--omega", "4.0", "--abs2"]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(wavelet_hat_abs2(2, 4.0), rel=1e-15)

    def test_complex_pair(self, capsys):
        assert main(["eval", "--m", "2", "--omega", "4.0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("phi_hat = ") and "psi_hat = " in out

    def test_decay_json(self, capsys):
        assert main(["decay", "--m", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert float(payload["c"]) > 0
        assert float(payload["total_exponent"]) > 0
        # decay prints the one fit that bounds (and every sweep) uses.
        assert payload["c"] == fmt17(default_decay(2).c)
        assert main(["bounds", "--m", "2", "--k", "1", "--p", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["c"] == payload["c"]

    def test_norm_json(self, capsys):
        assert main(["norm", "--m", "2", "--k", "1", "--p", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ref = weighted_lp_norm(NormRequest(2, 1, 2.0))
        assert float(payload["value"]) == pytest.approx(ref.value, rel=1e-15)
        assert payload["evaluations"] == ref.evaluations

    def test_norm_has_no_cutoff_flag(self):
        # The tail cutoff is a setting of quadrature_lp_norm alone.
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--m", "2", "--k", "1", "--p", "3", "--omega-max", "1e5"])
        assert exc.value.code == 2

    def test_bounds_json_flags(self, capsys):
        assert main(["bounds", "--m", "2", "--k", "1", "--p", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "vacuous_lower_B" in payload["flags"]
        assert float(payload["A"]) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--m", "2", "--omega", "nan"],
        ["bounds", "--m", "2", "--k", "1", "--p", "2", "--eps", "nan"],
        ["bounds", "--m", "2", "--k", "1", "--p", "2", "--eps", "inf"],
        ["bernstein", "--sigma", "nan"],
        ["bounds", "--m", "2", "--k", "1", "--p", "2", "--c", "nan"],
        ["bernstein", "--p", "nan"],
        ["bernstein", "--k", "-1"],
        ["bernstein", "--m", "33"],
        ["norm", "--m", "2", "--k", "1", "--p", "nan"],
    ],
)
def test_non_finite_input_is_named(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("wavebounds: error: ") and argv[-1] in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem1", "--tol", "1e-3"],
        ["verify", "theorem1", "--eps", "1"],
        ["bernstein", "--tol", "1e-3"],
    ],
)
def test_sweeps_have_no_eps_or_tol_flag(argv):
    # Every sweep checks at eps = pi, each side within the row's abs_error alone.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


class TestVerifyCommand:
    def test_exit_zero_and_deterministic_file(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["verify", "theorem2", "--m-list", "1", "2", "--out", str(out_a)]) == 0
        assert main(["verify", "theorem2", "--m-list", "1", "2", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.read_text().startswith("schema_version,")

    @pytest.mark.parametrize(
        "argv,coverage",
        [
            (["corollary2"], "lower checked in 0 of 45 rows, upper in 0 of 45"),
            (["theorem2", "--m-list", "1", "2"], "lower checked in 4 of 4 rows, upper in 4 of 4"),
        ],
    )
    def test_summary_states_side_coverage(self, tmp_path, capsys, argv, coverage):
        out = tmp_path / "rows.csv"
        assert main(["verify", *argv, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.strip().endswith(f"-> {out}; {coverage}")

    def test_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        assert (
            main(["verify", "corollary3", "--m-list", "1", "--out", str(out), "--format", "json"])
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == "v1"
        assert payload["summary"]["fail"] == 0

    def test_stdout_when_no_file(self, capsys):
        assert main(["verify", "theorem2", "--m-list", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("schema_version,")

    def test_grid_restriction(self, tmp_path):
        out = tmp_path / "rows.json"
        main(
            [
                "verify", "theorem1",
                "--m-list", "2",
                "--p-list", "2.0",
                "--out", str(out),
                "--format", "json",
            ]
        )
        payload = json.loads(out.read_text())
        assert payload["summary"]["total"] == 1

    def test_m_list_builds_the_grid(self, tmp_path):
        # The orders lie off the default grid: the list builds the cases
        # 1 <= k < m at each p, 21 + 33 + 45 of them.
        out = tmp_path / "rows.csv"
        assert main(["verify", "theorem1", "--m-list", "8", "12", "16", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 99
        assert {row["status"] for row in rows} == {"pass"}
        assert sorted({int(row["m"]) for row in rows}) == [8, 12, 16]

    def test_lists_are_deduplicated_and_sorted(self, capsys):
        assert main(["verify", "theorem2", "--m-list", "2", "1", "2"]) == 0
        repeated = capsys.readouterr().out
        assert main(["verify", "theorem2", "--m-list", "1", "2"]) == 0
        assert repeated == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,hypothesis",
        [
            (["theorem2", "--k-list", "7"], "k = m and m p an even integer"),
            (["corollary1", "--k-list", "1"], "k = 0"),
            # m p = 6.5 rounds to an even 6, but F and G need an even integer.
            (["theorem2", "--m-list", "5", "--p-list", "1.3"], "k = m and m p an even integer"),
            (["theorem1", "--m-list", "2", "--k-list", "2"], "1 <= k < m and p k > 1"),
        ],
    )
    def test_lists_outside_the_hypothesis_exit_2(self, tmp_path, capsys, argv, hypothesis):
        out = tmp_path / "rows.csv"
        assert main(["verify", *argv, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: no case ")
        assert captured.err.endswith(f"satisfies {hypothesis}\n") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,value",
        [
            (["--m-list", "0"], "got m=0"),
            (["--m-list", "33", "--p-list", "2"], "got m=33"),
            (["--p-list", "1.0"], "got 1.0"),
            (["--k-list", "-1"], "got -1"),
        ],
    )
    def test_value_outside_the_domain_exits_2(self, tmp_path, capsys, argv, value):
        out = tmp_path / "rows.csv"
        assert main(["verify", "theorem1", *argv, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: ") and captured.err.count("\n") == 1
        assert value in captured.err

    @pytest.mark.parametrize("check", ["theorem2", "corollary3"])
    def test_m_p_past_the_sinc_sum_exits_2(self, tmp_path, capsys, check):
        out = tmp_path / "rows.csv"
        argv = ["verify", check, "--m-list", "20", "--p-list", "8", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: m p = 160 at m=20, p=8 ")
        assert "MAX_SINC_POWER = 128" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("check,k", [("theorem2", "2"), ("corollary3", "1")])
    def test_k_list_restricts_checks_that_fix_k(self, check, k, capsys):
        # These checks take k = m: --k-list picks the orders.
        assert main(["verify", check, "--k-list", k]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 2
        assert all(line.split(",")[3] == k for line in lines[1:])


class TestBernsteinCommand:
    def test_default_flags_write_the_default_grid(self, capsys):
        assert main(["bernstein"]) == 0
        assert capsys.readouterr().out.encode() == rows_to_csv_bytes(verify_sweep("bernstein"))

    @pytest.mark.parametrize("sigma,j", [("1e-8", "-3"), ("1e-6", "-3"), ("1e-6", "-1")])
    def test_gaussian_too_narrow_at_the_lowest_j_exits_2(self, tmp_path, capsys, sigma, j):
        # The Fourier fallback's |omega| passes the evaluation guard: every
        # route fails at the range's lowest j, so no report is written.
        out = tmp_path / "rows.csv"
        assert main(["bernstein", "--sigma", sigma, f"--j-range={j}:6", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"wavebounds: error: the first row (sigma={float(sigma):g}, j={j}) fails: ")
        assert "exceeds the evaluation guard" in captured.err and captured.err.count("\n") == 1

    def test_conjugate_norm_out_of_range_exits_2(self, tmp_path, capsys):
        # p = 1.001 puts the conjugate index p' near 1001, where the
        # right-hand side's norm integral underflows: the Gaussian is not the cause.
        out = tmp_path / "rows.csv"
        assert main(["bernstein", "--p", "1.001", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: the first row (sigma=1, j=-3) fails: ValueError: ")
        assert "norm integral" in captured.err and captured.err.count("\n") == 1

    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "bern.csv"
        code = main(
            ["bernstein", "--j-range=0:1", "--nu-range=-1:1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3

    def test_off_p_2_row_uses_hoelders_pairing(self, tmp_path):
        # f is normalized in L^4 and the wavelet measured in L^(4/3). With
        # the exponent of the other pairing this row failed: 12.74 against 3.02.
        out = tmp_path / "bern.csv"
        argv = ["--m", "2", "--k", "1", "--p", "4", "--sigma", "20"]
        assert main(["bernstein", *argv, "--j-range=-6:-6", "--nu-range=0:0", "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        want = weighted_lp_norm(NormRequest(2, 1, 4.0 / 3.0)).value * 2.0 ** (6 * 0.75)
        assert row["status"] == "pass"
        assert float(row["upper_bound"]) == pytest.approx(want, rel=1e-14)

    def test_error_bar_wider_than_the_bound_is_vacuous(self, tmp_path):
        # At sigma = 1e100 the coefficient's abs_error (4.2e36) swamps the
        # upper bound (0.243): the side says nothing, so no row counts as checked.
        out = tmp_path / "rows.csv"
        argv = ["bernstein", "--sigma", "1e100", "--j-range=0:0", "--nu-range=0:1", "--out", str(out)]
        assert main(argv) == 0
        header, *rows = (line.split(",") for line in out.read_text().strip().split("\n"))
        rows = [dict(zip(header, row)) for row in rows]
        assert [(row["j"], row["nu"]) for row in rows] == [("0", "0"), ("0", "1")]
        for row in rows:
            assert float(row["abs_error"]) >= float(row["upper_bound"]) > 0.0
            assert (row["status"], row["vacuous_flags"]) == ("vacuous", "upper")

    @pytest.mark.parametrize(
        "span", [["--j-range=5:2"], ["--nu-range=3:-3"], ["--j-range=0:0", "--nu-range=1:0"]]
    )
    def test_empty_range_exits_2(self, tmp_path, capsys, span):
        # A range whose start exceeds its end selects no case: nothing is checked.
        out = tmp_path / "rows.csv"
        assert main(["bernstein", *span, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: ") and captured.err.count("\n") == 1
        flag, value = span[-1].split("=")
        assert f"{flag.lstrip('-').replace('-', '_')} {value} is empty" in captured.err

    @pytest.mark.parametrize(
        "span,limit",
        [
            ("--j-range=11:11", "-6:10"),
            ("--j-range=-7:0", "-6:10"),
            ("--nu-range=70:70", "-64:64"),
            ("--nu-range=-65:0", "-64:64"),
        ],
    )
    def test_range_past_row_limits_exits_2(self, tmp_path, capsys, span, limit):
        # Every row of such a range would fail alike: one error, before the sweep.
        out = tmp_path / "rows.csv"
        assert main(["bernstein", span, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: ") and captured.err.count("\n") == 1
        flag, value = span.split("=")
        name = flag.lstrip("-").replace("-", "_")
        assert f"{name} {value}" in captured.err and limit in captured.err

    @pytest.mark.parametrize("sigma", ["1e-200", "1e200"])
    def test_sigma_outside_float_range_exits_2(self, tmp_path, capsys, sigma):
        # The test function's weighted norm leaves the double range: no row can use it.
        out = tmp_path / "rows.csv"
        assert main(["bernstein", "--sigma", sigma, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: sigma=") and captured.err.count("\n") == 1

    def test_invalid_weight_yields_nonzero_exit(self, tmp_path, capsys):
        # k = m is outside the inequality's hypotheses: no row can use it, so
        # the command fails once, before the sweep, as for any bad argument.
        out = tmp_path / "bad.csv"
        code = main(
            ["bernstein", "--m", "2", "--k", "2", "--j-range=0:0", "--nu-range=0:0",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: ") and captured.err.count("\n") == 1
        assert "got k=2, m=2" in captured.err

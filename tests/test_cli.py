import json
import math

import pytest

from wavebounds.cli import main
from wavebounds.daub_filters import construct_filter
from wavebounds.norms import NormRequest, default_decay, weighted_lp_norm
from wavebounds.reporting import fmt17
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
        assert main(["filters", "--m", "20"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 40 and lines[-1].startswith("h(39) = ")

    def test_order_above_limit_named(self, capsys):
        assert main(["filters", "--m", "21"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("wavebounds: error: ") and "got 21" in err

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

    def test_k_equal_m_past_the_sinc_sum_prints_no_F_or_G(self, capsys):
        # m p = 600 lies past the exact sinc sum, which F needs; F's power of
        # pi would overflow too, so the sum's limit must act first.
        assert main(["bounds", "--m", "2", "--k", "2", "--p", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["F"] == payload["G"] == ""
        assert float(payload["D"]) > 0


class TestPointEvaluations:
    def test_order_above_limit_is_one_line_error(self, capsys):
        assert main(["eval", "--m", "40", "--omega", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: ") and "got 40" in captured.err
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
        ["bernstein", "--m", "21"],
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
    # Every sweep checks at eps = pi with the fixed pad bernstein.TOL_PAD.
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

    @pytest.mark.parametrize(
        "argv,grid",
        [
            (["theorem1", "--m-list", "8"], "m in 2 3 4 5 6,"),
            (["theorem2", "--k-list", "7"], "k in 1 2 3 4 5,"),
            (["corollary1", "--m-list", "2", "--p-list", "4"], "p in 1.5 2 3"),
        ],
    )
    def test_filter_selecting_no_case_exits_2(self, tmp_path, capsys, argv, grid):
        out = tmp_path / "rows.csv"
        assert main(["verify", *argv, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("wavebounds: error: no ") and captured.err.count("\n") == 1
        assert grid in captured.err

    @pytest.mark.parametrize("check,k", [("theorem2", "2"), ("corollary3", "1")])
    def test_k_list_restricts_checks_that_fix_k(self, check, k, capsys):
        # These checks set k from m; their grid cases still carry k for --k-list.
        assert main(["verify", check, "--k-list", k]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 2
        assert all(line.split(",")[3] == k for line in lines[1:])


class TestBernsteinCommand:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "bern.csv"
        code = main(
            ["bernstein", "--j-range=0:1", "--nu-range=-1:1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 3

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
        assert f"{flag} {value} is empty" in captured.err

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
        assert f"{flag} {value}" in captured.err and limit in captured.err

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

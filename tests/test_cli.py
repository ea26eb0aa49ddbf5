import json
import math

import pytest

from wavebounds.cli import main
from wavebounds.daub_filters import construct_filter
from wavebounds.norms import NormRequest, weighted_lp_norm
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
        assert float(lines[1].split(",")[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-16)

    def test_highest_order(self, capsys):
        assert main(["filters", "--m", "20"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 40 and lines[-1].startswith("h(39) = ")

    def test_order_above_limit_named(self):
        with pytest.raises(ValueError, match="got 21"):
            main(["filters", "--m", "21"])

    def test_plain_output_has_17_digits(self, capsys):
        main(["filters", "--m", "2"])
        out = capsys.readouterr().out
        assert "h(0) = 0.48296291314453" in out


class TestPointEvaluations:
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

    def test_norm_json(self, capsys):
        assert main(["norm", "--m", "2", "--k", "1", "--p", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ref = weighted_lp_norm(NormRequest(2, 1, 2.0))
        assert float(payload["value"]) == pytest.approx(ref.value, rel=1e-15)
        assert payload["evaluations"] == ref.evaluations

    def test_bounds_json_flags(self, capsys):
        assert main(["bounds", "--m", "2", "--k", "1", "--p", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "vacuous_lower_B" in payload["flags"]
        assert float(payload["A"]) > 0


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

    def test_invalid_weight_yields_nonzero_exit(self, tmp_path, capsys):
        # k = m is outside the inequality's hypotheses: every row errors.
        out = tmp_path / "bad.csv"
        code = main(
            ["bernstein", "--m", "2", "--k", "2", "--j-range=0:0", "--nu-range=0:0",
             "--out", str(out)]
        )
        assert code == 1
        assert "error" in out.read_text()

import json
import math

import pytest

from corrcount.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pmf_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == "s,p"
    out = {}
    for line in lines[1:]:
        s, p = line.split(",")
        out[int(s)] = float(p)
    return out


class TestPmfCommands:
    def test_limit_pmf_poisson(self, capsys):
        code, out, _ = run_cli(capsys, "limit-pmf", "--c", "1.0")
        assert code == 0
        pmf = parse_pmf_csv(out)
        assert pmf[0] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert pmf[1] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_finite_pmf_exact_small_case(self, capsys):
        code, out, _ = run_cli(capsys, "finite-pmf", "--n", "3", "--c", "1.5,2.25")
        assert code == 0
        pmf = parse_pmf_csv(out)
        assert pmf[0] == pytest.approx(0.5, abs=1e-12)
        assert pmf[1] == pytest.approx(0.0, abs=1e-12)
        assert pmf[2] == pytest.approx(0.0, abs=1e-12)
        assert pmf[3] == pytest.approx(0.5, abs=1e-12)

    def test_oracle_pmf_mixture(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle-pmf", "--n", "3", "--mixture", "0:0.5,1:0.5"
        )
        assert code == 0
        assert parse_pmf_csv(out) == {0: 0.5, 1: 0.0, 2: 0.0, 3: 0.5}

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "limit-pmf", "--c", "1.0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"p", "tail_bound", "admissible"}
        assert data["admissible"] is True

    def test_inadmissible_model_prints_pmf_then_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "limit-pmf", "--c", "0.1,-5")
        assert code == 2
        pmf = parse_pmf_csv(out)  # signed values still printed
        assert min(pmf.values()) < -1e-9
        assert "inadmissible" in err

    def test_model_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"l_max": 1, "c": [1.0], "n": 2}))
        code, out, _ = run_cli(capsys, "finite-pmf", "--model", str(path))
        assert code == 0
        assert parse_pmf_csv(out) == {0: 0.25, 1: 0.5, 2: 0.25}


class TestCf:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "cf", "--c", "1.0", "--u", "3.14159265:3.14159265:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,re,im"
        u, re, im = (float(x) for x in lines[1].split(","))
        assert u == pytest.approx(3.14159265)
        assert re == pytest.approx(math.exp(-2.0), abs=1e-8)
        assert abs(im) < 1e-8

    def test_grid_is_inclusive(self, capsys):
        code, out, _ = run_cli(capsys, "cf", "--c", "2.0,0.5", "--u", "0:6.2832:64")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 64
        assert float(rows[0].split(",")[0]) == 0.0
        assert float(rows[-1].split(",")[0]) == pytest.approx(6.2832)


class TestSampleAndEstimate:
    def test_sample_deterministic(self, capsys):
        code, first, _ = run_cli(
            capsys, "sample", "--c", "2.0", "--count", "1000", "--seed", "42"
        )
        assert code == 0
        code, second, _ = run_cli(
            capsys, "sample", "--c", "2.0", "--count", "1000", "--seed", "42"
        )
        assert code == 0
        assert first == second
        assert len(first.strip().splitlines()) == 1000

    def test_sample_inadmissible_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--c", "0.1,-5", "--count", "10", "--seed", "1"
        )
        assert code == 2
        assert "negative" in err

    def test_estimate_newline_input(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("\n".join(["3"] * 150) + "\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1", "--seed", "7"
        )
        assert code == 0
        data = json.loads(out)
        assert data["c_hat"] == [3.0]
        assert data["n_samples"] == 150

    def test_estimate_csv_input_autodetected(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        rows = ["sample_index,count"] + [f"{i},2" for i in range(120)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out)["c_hat"] == [2.0]

    def test_estimate_headerless_csv_input(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(f"{i},4" for i in range(120)) + "\n")
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1", "--seed", "7"
        )
        assert code == 0
        assert json.loads(out)["c_hat"] == [4.0]

    @pytest.mark.parametrize(
        "rows",
        [
            ["sample_index,count", "0,2", "1,x", "2,2"],
            ["0,2", "1", "2,2"],
            ["2", "2,5", "2"],
            ["2", "two", "2"],
        ],
    )
    def test_estimate_malformed_row_exit_3(self, capsys, tmp_path, rows):
        path = tmp_path / "counts.txt"
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "1"
        )
        assert code == 3
        assert out == ""
        assert "bad counts file" in err

    def test_estimate_pipeline_recovers_coefficients(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sample", "--c", "2.0,0.5", "--count", "20000", "--seed", "9"
        )
        assert code == 0
        path = tmp_path / "counts.txt"
        path.write_text(out)
        code, out, _ = run_cli(
            capsys, "estimate", "--input", str(path), "--lmax", "2", "--seed", "9"
        )
        assert code == 0
        data = json.loads(out)
        for got, want, se in zip(data["c_hat"], (2.0, 0.5), data["std_err"]):
            assert abs(got - want) < 4 * se


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "5", "--trials", "6", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 7
        assert all(line.startswith("PASS") for line in lines)


class TestBadInput:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "no-such-command")
        assert code == 3

    def test_missing_model(self, capsys):
        code, _, err = run_cli(capsys, "limit-pmf")
        assert code == 3
        assert "model" in err

    def test_bad_coefficient_list(self, capsys):
        code, _, _ = run_cli(capsys, "limit-pmf", "--c", "1.0,abc")
        assert code == 3

    def test_bad_mixture(self, capsys):
        code, _, _ = run_cli(capsys, "oracle-pmf", "--n", "3", "--mixture", "0.5")
        assert code == 3

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(capsys, "cf", "--c", "1.0", "--u", "0-1-2")
        assert code == 3

    def test_oracle_joint_above_ceiling(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle-pmf", "--n", "2000", "--mixture", "0.3:1"
        )
        assert code == 3
        assert out == ""
        assert "ceiling 1029" in err

    def test_n_below_l_max(self, capsys):
        code, _, _ = run_cli(capsys, "finite-pmf", "--n", "1", "--c", "1.0,0.5")
        assert code == 3

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "cf", "--c", "1.0")
        assert code == 3

    def test_bad_model_file_contents(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"l_max": 1, "c": ["not-a-number"]}))
        code, _, _ = run_cli(capsys, "limit-pmf", "--model", str(path))
        assert code == 3

    def test_config_and_subcommand_conflict(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"command": "limit-pmf", "c": "1.0"}))
        code, _, err = run_cli(capsys, "--config", str(path), "limit-pmf", "--c", "1.0")
        assert code == 3
        assert "not both" in err


class TestConfigFile:
    def test_job_from_config(self, capsys, tmp_path):
        config = {
            "command": "limit-pmf",
            "model": {"l_max": 1, "c": [1.0], "n": None},
            "output_format": "csv",
            "mass_tolerance": 1e-12,
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        pmf = parse_pmf_csv(out)
        assert pmf[0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_config_matches_flags(self, capsys, tmp_path):
        config = {
            "command": "sample",
            "model": {"l_max": 1, "c": [2.0], "n": None},
            "seed": 42,
            "count": 500,
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        code, from_config, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        code, from_flags, _ = run_cli(
            capsys, "sample", "--c", "2.0", "--count", "500", "--seed", "42"
        )
        assert code == 0
        assert from_config == from_flags

    def test_bad_config(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{}")
        code, _, _ = run_cli(capsys, "--config", str(path))
        assert code == 3

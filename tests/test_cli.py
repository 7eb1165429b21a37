"""Tests for the command line interface.

Exit code contract: 0 on success, 1 on a configuration error, 2 on a
runtime failure.  Subcommands: run, rank, list-problems, validate.
"""
import json

import pytest
import yaml

from prefnorm.cli import main
from prefnorm.problems import problem_names

TINY = {
    "problems": ["dtlz2:2"],
    "algorithms": ["nsga2", "rnsga2"],
    "normalizations": ["ba"],
    "runs": 2,
    "budget": 200,
    "mu": 20,
    "seed": 5,
    "checkpoints": [100, 200],
    "pf_size": 200,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(TINY))
    return path


class TestValidate:

    def test_good_config(self, tiny_config, capsys):
        assert main(["validate", "--config", str(tiny_config)]) == 0
        out = capsys.readouterr().out
        assert out == ("ok: 2 cells x 2 runs, 200 evaluations each\n"
                       "roi dtlz2:2: 19 points (under 100)\n")

    def test_reports_roi_size_per_instance(self, tmp_path, capsys):
        # at the default pf_size a radius-0.1 ball on the m = 5 front holds
        # a point or two; the instance is flagged, the config still passes
        path = tmp_path / "config.yaml"
        config = dict(TINY, problems=["dtlz2:2", "dtlz2:5"])
        del config["pf_size"]
        path.write_text(yaml.safe_dump(config))
        assert main(["validate", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ok: 4 cells x 2 runs, 200 evaluations each"
        assert [line.split(": ")[0] for line in lines[1:]] == [
            "roi dtlz2:2", "roi dtlz2:5"]
        m2, m5 = (int(line.split()[2]) for line in lines[1:])
        assert m2 >= 100 and not lines[1].endswith("(under 100)")
        assert m5 < 100 and lines[2].endswith(f"{m5} points (under 100)")

    def test_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        bad = dict(TINY, algorithms=["spea2"], mu=3)
        path.write_text(yaml.safe_dump(bad))
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "spea2" in err
        assert "mu" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config",
                     str(tmp_path / "absent.yaml")]) == 1
        assert "not found" in capsys.readouterr().err


class TestRunAndRank:

    def test_full_flow(self, tiny_config, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote 4 runs to {out_dir}" in stdout
        assert (out_dir / "manifest.json").is_file()
        assert (out_dir / "summary.csv").is_file()

        assert main(["rank", "--in", str(out_dir), "--suite", "dtlz",
                     "--checkpoint", "200"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "treatment,avg_rank"
        treatments = [line.split(",")[0] for line in lines[1:]]
        assert sorted(treatments) == ["nsga2-ba", "rnsga2-ba"]
        ranks = [float(line.split(",")[1]) for line in lines[1:]]
        assert ranks == sorted(ranks)
        assert sum(ranks) == pytest.approx(3.0)

    def test_seed_override_changes_manifest(self, tiny_config, tmp_path,
                                            capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_a), "--seed", "99"]) == 0
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_b)]) == 0
        seed_a = json.loads((out_a / "manifest.json").read_text())
        seed_b = json.loads((out_b / "manifest.json").read_text())
        assert seed_a["config"]["seed"] == 99
        assert seed_b["config"]["seed"] == 5
        assert seed_a["seeds"] != seed_b["seeds"]

    def test_negative_seed_rejected(self, tiny_config, tmp_path, capsys):
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "x"), "--seed", "-3"]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, tiny_config, tmp_path, capsys,
                                        workers):
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(tmp_path / "x"), "--workers", workers]) == 1
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_workers_flag(self, tiny_config, tmp_path, capsys):
        out_dir = tmp_path / "par"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_dir), "--workers", "2"]) == 0
        assert (out_dir / "summary.csv").is_file()

    def test_rank_missing_directory(self, tmp_path, capsys):
        assert main(["rank", "--in", str(tmp_path / "nowhere"),
                     "--suite", "dtlz", "--checkpoint", "200"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rank_wrong_checkpoint(self, tiny_config, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["rank", "--in", str(out_dir), "--suite", "dtlz",
                     "--checkpoint", "12345"]) == 2
        assert "no rows" in capsys.readouterr().err


class TestListProblems:

    def test_lists_all_names(self, capsys):
        assert main(["list-problems"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == list(problem_names())
        assert "dtlz1" in lines and "sdtlz4" in lines and "idtlz4" in lines


class TestArgparseBehavior:

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run"])
        assert err.value.code == 2

    def test_bad_suite_choice_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rank", "--in", str(tmp_path), "--suite", "mystery",
                  "--checkpoint", "100"])
        assert err.value.code == 2

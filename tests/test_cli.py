import csv
import json
import subprocess
import sys

import pytest

from conftest import CONFIG_JSON, PANEL_CSV

from leadframe.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture()
def duplicate_panel(tmp_path):
    text = PANEL_CSV.read_text()
    extra = text.splitlines()[1]
    path = tmp_path / "dup.csv"
    path.write_text(text + extra + "\n")
    return path


class TestValidate:
    def test_clean_fixture(self, capsys):
        assert run_cli("validate", "--input", PANEL_CSV, "--config", CONFIG_JSON) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        entities = [json.loads(line)["entity"] for line in lines]
        assert entities == ["Aasheesh", "Jitin", "Kumarjit", "Prabhu"]

    def test_warning_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "warn.csv"
        path.write_text(
            "customer,month,outbound_calls,complaints,interruptions,"
            "resolution_time,promotions,churn\n"
            "x,2020-01,1,0,0,0,0,1\n"
            "x,2020-02,1,0,0,0,0,1\n"
        )
        assert run_cli("validate", "--input", path, "--config", CONFIG_JSON) == 1
        (line,) = capsys.readouterr().out.strip().splitlines()
        codes = {f["code"] for f in json.loads(line)["findings"]}
        assert "multiple_events" in codes

    def test_duplicate_observation_exit_one(self, duplicate_panel):
        assert run_cli("validate", "--input", duplicate_panel, "--config", CONFIG_JSON) == 1

    def test_missing_file_exit_two(self, tmp_path):
        assert run_cli("validate", "--input", tmp_path / "nope.csv", "--config", CONFIG_JSON) == 2

    def test_bad_flag_value_exit_two(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "customer,month,outbound_calls,complaints,interruptions,"
            "resolution_time,promotions,churn\n"
            "x,2020-01,1,0,0,0,0,2\n"
        )
        assert run_cli("validate", "--input", path, "--config", CONFIG_JSON) == 2

    def test_malformed_config_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("validate", "--input", PANEL_CSV, "--config", path) == 2

    def test_inconsistent_config_exit_one(self, tmp_path):
        doc = json.loads(CONFIG_JSON.read_text())
        doc["plan"][0]["column"] = "no_such_column"
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--input", PANEL_CSV, "--config", path) == 1


class TestTransform:
    def test_golden_one_period_lead(self, tmp_path):
        out = tmp_path / "training.csv"
        code = run_cli(
            "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
            "--lead-time", 1, "--output", out,
        )
        assert code == 0
        rows = {r["entity_id"]: r for r in read_rows(out)}
        aasheesh = rows["Aasheesh"]
        assert [aasheesh[c] for c in (
            "calls_total", "complaints_total", "interruptions_total",
            "avg_resolution_time", "promotions_total", "label",
        )] == ["8.0", "5.0", "2.0", "6.0", "4.0", "0"]
        assert rows["Kumarjit"]["label"] == "1"
        assert rows["Jitin"]["label"] == "1"
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report == {"events": 2, "non_events": 2, "dropped_entities": []}

    def test_zero_lead_includes_event_period(self, tmp_path):
        out = tmp_path / "training.csv"
        run_cli(
            "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
            "--lead-time", 0, "--output", out,
        )
        rows = {r["entity_id"]: r for r in read_rows(out)}
        kumarjit = rows["Kumarjit"]
        assert float(kumarjit["calls_total"]) == 10.0
        assert float(kumarjit["avg_resolution_time"]) == 5.5
        jitin = rows["Jitin"]
        assert [float(jitin[c]) for c in (
            "calls_total", "complaints_total", "interruptions_total",
            "avg_resolution_time", "promotions_total",
        )] == [2.0, 4.0, 4.0, 8.25, 1.0]

    def test_zeros_policy_keeps_impossible_lead(self, tmp_path):
        out = tmp_path / "training.csv"
        run_cli(
            "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
            "--lead-time", 99, "--policy", "zeros", "--output", out,
        )
        rows = {r["entity_id"]: r for r in read_rows(out)}
        assert len(rows) == 4
        for entity in ("Kumarjit", "Jitin"):
            row = rows[entity]
            assert row["label"] == "1"
            assert all(
                float(row[c]) == 0.0
                for c in (
                    "calls_total", "complaints_total", "interruptions_total",
                    "avg_resolution_time", "promotions_total",
                )
            )

    def test_drop_policy_reports_impossible_lead(self, tmp_path):
        out = tmp_path / "training.csv"
        run_cli(
            "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
            "--lead-time", 99, "--policy", "drop", "--output", out,
        )
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["dropped_entities"] == ["Jitin", "Kumarjit"]
        assert report["events"] == 0


class TestTrainAndScore:
    def test_end_to_end_probabilities(self, tmp_path):
        training = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        scores = tmp_path / "scores.csv"
        run_cli("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON, "--output", training)
        assert run_cli("train", "--input", training, "--config", CONFIG_JSON, "--output", model) == 0
        doc = json.loads(model.read_text())
        assert doc["feature_names"] == [
            "calls_total", "complaints_total", "interruptions_total",
            "avg_resolution_time", "promotions_total",
        ]
        assert doc["train_config"]["epochs"] == 400
        assert run_cli(
            "score", "--model", model, "--input", PANEL_CSV,
            "--config", CONFIG_JSON, "--output", scores,
        ) == 0
        rows = read_rows(scores)
        assert [r["entity_id"] for r in rows] == ["Aasheesh", "Jitin", "Kumarjit", "Prabhu"]
        for row in rows:
            assert 0.0 < float(row["probability"]) < 1.0

    def test_model_plan_mismatch_exit_one(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(
            json.dumps(
                {
                    "feature_names": ["other"],
                    "weights": [0.0],
                    "intercept": 0.0,
                    "scaling": {"means": [0.0], "stds": [1.0]},
                    "train_config": None,
                }
            )
        )
        code = run_cli(
            "score", "--model", model, "--input", PANEL_CSV,
            "--config", CONFIG_JSON, "--output", tmp_path / "scores.csv",
        )
        assert code == 1


class TestSweepAndSynth:
    def test_sweep_curve_shape(self, tmp_path):
        panel = tmp_path / "panel.csv"
        curve = tmp_path / "curve.csv"
        run_cli("synth", "--output", panel, "--entities", 80, "--periods", 12, "--seed", 9)
        code = run_cli(
            "sweep", "--input", panel, "--config", CONFIG_JSON,
            "--lead-times", "0,1,2,3", "--seed", 4, "--output", curve,
        )
        assert code == 0
        lines = curve.read_text().splitlines()
        assert len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", "--output", a, "--seed", 7)
        run_cli("synth", "--output", b, "--seed", 7)
        assert a.read_bytes() == b.read_bytes()

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "panel.csv"
        result = subprocess.run(
            [sys.executable, "-m", "leadframe", "synth", "--output", str(out),
             "--entities", "5", "--periods", "6", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert out.exists()


class TestIdempotency:
    def test_rerun_outputs_are_byte_identical(self, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        for base in (first, second):
            base.mkdir()
            run_cli(
                "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
                "--output", base / "training.csv",
            )
            run_cli(
                "train", "--input", base / "training.csv", "--config", CONFIG_JSON,
                "--output", base / "model.json",
            )
            run_cli(
                "score", "--model", base / "model.json", "--input", PANEL_CSV,
                "--config", CONFIG_JSON, "--output", base / "scores.csv",
            )
        for name in ("training.csv", "training.report.json", "model.json", "scores.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestBadInputsFailFast:
    """Each bad input exits with its documented code and prints no traceback."""

    def trained_model(self, tmp_path):
        training = tmp_path / "training.csv"
        model = tmp_path / "model.json"
        run_cli("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON, "--output", training)
        assert run_cli("train", "--input", training, "--config", CONFIG_JSON, "--output", model) == 0
        return training, model

    @pytest.mark.parametrize("flag, value", [("--threshold", 7), ("--seed", -5)])
    def test_sweep_flag_checked_like_config_field(self, tmp_path, capsys, flag, value):
        code = run_cli(
            "sweep", "--input", PANEL_CSV, "--config", CONFIG_JSON,
            flag, value, "--output", tmp_path / "curve.csv",
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: eval.")
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("flag", ["--noise", "--signal"])
    def test_synth_non_finite_rate_exit_one(self, tmp_path, flag):
        assert run_cli("synth", "--output", tmp_path / "panel.csv", flag, "nan") == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_training_cell_exit_two(self, tmp_path, capsys, cell):
        training, _ = self.trained_model(tmp_path)
        lines = training.read_text().splitlines()
        entity, _, rest = lines[1].split(",", 2)
        lines[1] = ",".join((entity, cell, rest))
        training.write_text("\n".join(lines) + "\n")
        model = tmp_path / "nan_model.json"
        code = run_cli("train", "--input", training, "--config", CONFIG_JSON, "--output", model)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: doc.pop("scaling"),
            lambda doc: doc.pop("weights"),
            lambda doc: doc.update(weights="abc"),
            lambda doc: doc.update(scaling=[1.0]),
            lambda doc: doc.update(train_config={"epochs": 1, "unknown": 2}),
            lambda doc: doc["weights"].__setitem__(0, float("nan")),
            lambda doc: doc.update(intercept=float("inf")),
            lambda doc: doc["train_config"].update(epochs=-1),
            lambda doc: doc.update(weights=doc["weights"][:2]),
        ],
    )
    def test_unreadable_model_exit_two(self, tmp_path, capsys, corrupt):
        _, model = self.trained_model(tmp_path)
        doc = json.loads(model.read_text())
        corrupt(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli(
            "score", "--model", model, "--input", PANEL_CSV,
            "--config", CONFIG_JSON, "--output", tmp_path / "scores.csv",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model ")
        assert "Traceback" not in err

    def test_score_quotes_ids(self, tmp_path):
        _, model = self.trained_model(tmp_path)
        lines = PANEL_CSV.read_text().splitlines()
        panel = tmp_path / "quoted.csv"
        panel.write_text(
            "\n".join(
                [lines[0]]
                + ['"acme, inc"' + line[line.index(","):] if line.startswith("Prabhu,") else line
                   for line in lines[1:]]
            )
            + "\n"
        )
        scores = tmp_path / "scores.csv"
        assert run_cli(
            "score", "--model", model, "--input", panel,
            "--config", CONFIG_JSON, "--output", scores,
        ) == 0
        with open(scores, newline="") as handle:
            rows = list(csv.reader(handle))
        assert all(len(row) == 2 for row in rows)
        assert sorted(row[0] for row in rows[1:]) == sorted(
            ["Aasheesh", "Jitin", "Kumarjit", "acme, inc"]
        )

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("schema.entity_column", lambda doc: doc["schema"].update(entity_column=5)),
            ("schema.feature_columns", lambda doc: doc["schema"].update(feature_columns=5)),
            ("schema.feature_columns", lambda doc: doc["schema"].update(feature_columns="abc")),
            ("plan[0].column", lambda doc: doc["plan"][0].update(column=3)),
            ("plan[3].denominator", lambda doc: doc["plan"][3].update(denominator=[])),
            ("schema", lambda doc: doc.update(schema=5)),
        ],
    )
    def test_config_type_fault_exit_one(self, tmp_path, capsys, field, corrupt):
        doc = json.loads(CONFIG_JSON.read_text())
        corrupt(doc)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert run_cli("validate", "--input", PANEL_CSV, "--config", config) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be ")

    def test_undecodable_panel_exit_two(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        panel.write_bytes(PANEL_CSV.read_bytes() + b"\xff\n")
        assert run_cli("validate", "--input", panel, "--config", CONFIG_JSON) == 2
        assert capsys.readouterr().err.startswith("error: unreadable input: ")


def overflowing_panel(tmp_path):
    """The fixture with every feature cell set to 1e308: each cell is finite,
    but a sum over two or more periods overflows."""
    lines = PANEL_CSV.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    path = tmp_path / "huge.csv"
    path.write_text(
        "\n".join([lines[0]] + [",".join(r[:2] + ["1e308"] * (len(r) - 3) + r[-1:]) for r in rows])
        + "\n"
    )
    return path


def run_module(*argv):
    """Run the CLI in a fresh interpreter, so numpy warnings reach stderr."""
    return subprocess.run(
        [sys.executable, "-m", "leadframe", *map(str, argv)], capture_output=True, text=True
    )


class TestNonFiniteNeverReachesOutput:
    @pytest.mark.parametrize("command", ["transform", "score", "sweep"])
    def test_overflowing_aggregate_exit_one(self, tmp_path, capsys, command):
        panel = overflowing_panel(tmp_path)
        out = tmp_path / "out.csv"
        argv = [command, "--input", panel, "--config", CONFIG_JSON, "--output", out]
        if command == "score":
            training, model = tmp_path / "training.csv", tmp_path / "model.json"
            run_cli("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON, "--output", training)
            run_cli("train", "--input", training, "--config", CONFIG_JSON, "--output", model)
            argv += ["--model", model]
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: entity '")
        assert "feature 'calls_total' is inf" in err
        assert not out.exists()
        assert not out.with_suffix(".report.json").exists()

    def test_single_huge_cell_is_accepted(self, tmp_path):
        # One 1e308 per entity never overflows a sum, so the panel is valid.
        lines = PANEL_CSV.read_text().splitlines()
        first = lines[1].split(",")
        first[2] = "1e308"
        panel = tmp_path / "one_huge.csv"
        panel.write_text("\n".join([lines[0], ",".join(first)] + lines[2:]) + "\n")
        out = tmp_path / "training.csv"
        assert run_cli("transform", "--input", panel, "--config", CONFIG_JSON, "--output", out) == 0
        assert "1e+308" in out.read_text()

    def test_divergent_training_prints_one_error_line(self, tmp_path):
        training = tmp_path / "training.csv"
        run_cli("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON, "--output", training)
        doc = json.loads(CONFIG_JSON.read_text())
        doc["train"] = {"epochs": 50, "learning_rate": 1e308, "l2_penalty": 10}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        model = tmp_path / "model.json"
        result = run_module("train", "--input", training, "--config", config, "--output", model)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error: training produced non-finite weights; lower learning_rate or rescale features"
        ]
        assert not model.exists()

    def test_overflowing_feature_mean_prints_one_error_line(self, tmp_path):
        training = tmp_path / "training.csv"
        run_cli("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON, "--output", training)
        lines = training.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        training.write_text(
            "\n".join([lines[0]] + [",".join(r[:1] + ["1e308"] * (len(r) - 2) + r[-1:]) for r in rows])
            + "\n"
        )
        model = tmp_path / "model.json"
        result = run_module("train", "--input", training, "--config", CONFIG_JSON, "--output", model)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error: feature means or standard deviations overflow; rescale the features"
        ]
        assert not model.exists()

import csv
import json
import os
import subprocess
import sys

import pytest

from conftest import CONFIG_JSON, PANEL_CSV
from test_golden import VALIDATE_PANEL
from test_transform import READ_FAULTS

from leadframe.cli import main
from leadframe.errors import DimensionMismatch
from leadframe.panel import PanelColumns
from leadframe.transform import TrainingSet


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


    @pytest.mark.parametrize("policy", ["drop", "zeros"])
    @pytest.mark.parametrize("lead_time", [2**63, 2**70])
    def test_lead_time_beyond_int64_matches_impossible_lead(self, tmp_path, policy, lead_time):
        outputs = {}
        for lead in (99, lead_time):
            out = tmp_path / f"{lead}.csv"
            code = run_cli(
                "transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
                "--lead-time", lead, "--policy", policy, "--output", out,
            )
            assert code == 0
            outputs[lead] = (out.read_bytes(), out.with_suffix(".report.json").read_bytes())
        assert outputs[lead_time] == outputs[99]


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

    def test_sweep_lead_time_beyond_int64(self, tmp_path):
        panel = tmp_path / "panel.csv"
        run_cli("synth", "--output", panel, "--entities", 80, "--periods", 12, "--seed", 9)
        curves = {}
        for far in (99, 2**70):
            curve = tmp_path / f"curve{far}.csv"
            code = run_cli(
                "sweep", "--input", panel, "--config", CONFIG_JSON,
                "--lead-times", f"0,{far}", "--seed", 4, "--output", curve,
            )
            assert code == 0
            curves[far] = curve.read_text().splitlines()
        assert curves[2**70][:2] == curves[99][:2]
        assert curves[2**70][2] == curves[99][2].replace("99,", str(2**70) + ",", 1)

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


class TestNoMaskedArrayImport:
    """No command imports numpy.ma beyond what ``import numpy`` imports: on
    numpy 2.4 its first import costs about 13 ms and 0.6 MB, and
    ``np.unique`` without ``return_inverse`` pulls it in."""

    PROBE = (
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from leadframe.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, before, 'numpy.ma' in sys.modules)\n"
    )

    def test_each_command_in_a_fresh_process(self, tmp_path):
        panel, training = tmp_path / "panel.csv", tmp_path / "train.csv"
        model, scores, curve = tmp_path / "model.json", tmp_path / "scores.csv", tmp_path / "c.csv"
        commands = [
            ("synth", "--output", panel, "--entities", 200, "--seed", 3),
            ("transform", "--input", panel, "--config", CONFIG_JSON, "--output", training),
            ("train", "--input", training, "--config", CONFIG_JSON, "--output", model),
            ("score", "--input", panel, "--model", model, "--config", CONFIG_JSON,
             "--output", scores),
            ("sweep", "--input", panel, "--config", CONFIG_JSON, "--lead-times", "0,1,3",
             "--output", curve),
        ]
        for argv in commands:
            result = subprocess.run(
                [sys.executable, "-c", self.PROBE, *map(str, argv)],
                capture_output=True, text=True,
            )
            code, before, after = result.stdout.split()
            assert (argv[0], code, after) == (argv[0], "0", before)


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


class TestJsonTheDecoderCannotHold:
    """JSON that parses in principle but not in practice exits with one error line."""

    def assert_one_error_line(self, capsys, start):
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.fixture()
    def deep_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        return path

    def test_deeply_nested_config_exit_two(self, capsys, deep_json):
        assert run_cli("validate", "--input", PANEL_CSV, "--config", deep_json) == 2
        self.assert_one_error_line(capsys, "error: invalid JSON: ")

    def test_deeply_nested_model_exit_two(self, tmp_path, capsys, deep_json):
        code = run_cli(
            "score", "--model", deep_json, "--input", PANEL_CSV,
            "--config", CONFIG_JSON, "--output", tmp_path / "scores.csv",
        )
        assert code == 2
        self.assert_one_error_line(capsys, "error: invalid JSON: ")
        assert not (tmp_path / "scores.csv").exists()

    def test_integer_with_too_many_digits_exit_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        huge = '"train": {"x": ' + "1" * 5000 + ","
        config.write_text(CONFIG_JSON.read_text().replace('"train": {', huge))
        assert run_cli("validate", "--input", PANEL_CSV, "--config", config) == 2
        self.assert_one_error_line(capsys, "error: invalid JSON: ")

    def test_integer_too_large_for_a_float_in_config_exit_one(self, tmp_path, capsys):
        doc = json.loads(CONFIG_JSON.read_text())
        doc["train"]["learning_rate"] = 10**400
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert run_cli("validate", "--input", PANEL_CSV, "--config", config) == 1
        self.assert_one_error_line(capsys, "error: learning_rate ")

    def test_integer_too_large_for_a_float_in_model_exit_two(self, tmp_path, capsys):
        training, model = tmp_path / "training.csv", tmp_path / "model.json"
        run_cli("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON, "--output", training)
        run_cli("train", "--input", training, "--config", CONFIG_JSON, "--output", model)
        doc = json.loads(model.read_text())
        doc["weights"][0] = 10**400
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli(
            "score", "--model", model, "--input", PANEL_CSV,
            "--config", CONFIG_JSON, "--output", tmp_path / "scores.csv",
        )
        assert code == 2
        self.assert_one_error_line(capsys, "error: model ")


NEGATIVE_ZERO_PANEL = """\
entity,period,a,b,c,event
neg_first,1,-0.0,-0,1,0
neg_first,2,0.0,0,2,0
pos_first,1,0,0,1,0
pos_first,2,-0,-0.0,2,0
event_neg_first,1,-0,-0,1,0
event_neg_first,2,0,0,2,1
event_pos_first,1,0,0,1,0
event_pos_first,2,-0,-0,2,1
"""

NEGATIVE_ZERO_PLAN = [
    {"name": "sum_a", "kind": "sum", "column": "a"},
    {"name": "nonzero_a", "kind": "count_nonzero", "column": "a"},
    {"name": "max_a", "kind": "max", "column": "a"},
    {"name": "last_a", "kind": "last", "column": "a"},
    {"name": "ratio_ab", "kind": "ratio_of_sums", "numerator": "a", "denominator": "b"},
    {"name": "ratio_ac", "kind": "ratio_of_sums", "numerator": "a", "denominator": "c"},
]


class TestNegativeZeroEndToEnd:
    """Windows [-0.0, 0.0] and [0.0, -0.0] through the CLI: a sum starts at
    0.0 + x0 (so it is never -0.0), max keeps the first of equal values,
    last keeps the sign, count_nonzero counts -0.0 as zero."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        panel, config = tmp_path / "panel.csv", tmp_path / "config.json"
        panel.write_text(NEGATIVE_ZERO_PANEL)
        config.write_text(json.dumps({
            "schema": {"entity_column": "entity", "period_column": "period",
                       "event_column": "event", "feature_columns": ["a", "b", "c"]},
            "plan": NEGATIVE_ZERO_PLAN,
        }))
        return panel, config

    HEADER = "entity_id,sum_a,nonzero_a,max_a,last_a,ratio_ab,ratio_ac,label\n"
    NEG_FIRST = "0.0,0.0,-0.0,0.0,0.0,0.0"
    POS_FIRST = "0.0,0.0,0.0,-0.0,0.0,0.0"

    @pytest.mark.parametrize(
        "lead_time, event_rows",
        [
            (0, [f"event_neg_first,{NEG_FIRST},1", f"event_pos_first,{POS_FIRST},1"]),
            (
                1,
                [
                    "event_neg_first,0.0,0.0,-0.0,-0.0,0.0,0.0,1",
                    "event_pos_first,0.0,0.0,0.0,0.0,0.0,0.0,1",
                ],
            ),
        ],
    )
    def test_transform_bytes(self, tmp_path, inputs, lead_time, event_rows):
        panel, config = inputs
        out = tmp_path / "train.csv"
        code = run_cli(
            "transform", "--input", panel, "--config", config, "--output", out,
            "--lead-time", lead_time,
        )
        assert code == 0
        rows = [*event_rows, f"neg_first,{self.NEG_FIRST},0", f"pos_first,{self.POS_FIRST},0"]
        assert out.read_text() == self.HEADER + "".join(row + "\n" for row in rows)

    def test_score_bytes(self, tmp_path, inputs):
        panel, config = inputs
        model, scores = tmp_path / "model.json", tmp_path / "scores.csv"
        names = [spec["name"] for spec in NEGATIVE_ZERO_PLAN]
        model.write_text(json.dumps({
            "feature_names": names,
            "weights": [1.0, 2.0, -3.0, 4.0, 5.0, -6.0],
            "intercept": 0.5,
            "scaling": {"means": [0.0] * 6, "stds": [1.0] * 6},
            "train_config": None,
        }))
        code = run_cli(
            "score", "--model", model, "--input", panel, "--config", config, "--output", scores
        )
        assert code == 0
        assert scores.read_text() == (
            "entity_id,probability\n"
            "event_neg_first,0.6224593312018546\n"
            "event_pos_first,0.6224593312018546\n"
            "neg_first,0.6224593312018546\n"
            "pos_first,0.6224593312018546\n"
        )


class TestReadPanelLogging:
    """LEADFRAME_LOG=info adds one panel-shape line on stderr per panel read
    and leaves every output byte alone."""

    @staticmethod
    def run_logged(level, *argv):
        env = {**os.environ, "LEADFRAME_LOG": level}
        return subprocess.run(
            [sys.executable, "-m", "leadframe", *map(str, argv)],
            capture_output=True, text=True, env=env,
        )

    def test_outputs_identical_with_logging_on(self, tmp_path):
        outputs = {}
        for level in ("warning", "info"):
            out = tmp_path / level
            out.mkdir()
            commands = [
                ("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
                 "--output", out / "train.csv"),
                ("train", "--input", out / "train.csv", "--config", CONFIG_JSON,
                 "--output", out / "model.json"),
                ("score", "--model", out / "model.json", "--input", PANEL_CSV,
                 "--config", CONFIG_JSON, "--output", out / "scores.csv"),
                ("sweep", "--input", PANEL_CSV, "--config", CONFIG_JSON,
                 "--output", out / "curve.csv"),
            ]
            for argv in commands:
                result = self.run_logged(level, *argv)
                assert result.returncode == 0, result.stderr
                panel_lines = [
                    line for line in result.stderr.splitlines() if "INFO panel " in line
                ]
                if level == "info" and argv[0] != "train":
                    assert panel_lines == [
                        f"INFO panel {PANEL_CSV}: 41 rows, 4 entities, 24 periods"
                    ]
                else:
                    assert panel_lines == []
            outputs[level] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outputs["info"]) == 5
        assert outputs["info"] == outputs["warning"]


class TestCarriageReturnIds:
    """An id holding a carriage return survives transform, train and score:
    every writer quotes it, so each next reader sees one cell."""

    def test_transform_train_score_chain(self, tmp_path):
        lines = PANEL_CSV.read_text().splitlines()
        panel = tmp_path / "panel.csv"
        panel.write_text(
            "\n".join([lines[0]] + [line.replace("Kumarjit,", '"x\ry",') for line in lines[1:]])
            + "\n",
            newline="",
        )
        training, model, scores = tmp_path / "train.csv", tmp_path / "model.json", tmp_path / "s.csv"
        assert run_cli(
            "transform", "--input", panel, "--config", CONFIG_JSON, "--output", training,
            "--lead-time", 0,
        ) == 0
        assert run_cli("train", "--input", training, "--config", CONFIG_JSON, "--output", model) == 0
        assert run_cli(
            "score", "--model", model, "--input", panel, "--config", CONFIG_JSON, "--output", scores,
        ) == 0
        for path, width in ((training, 7), (scores, 2)):
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert {len(row) for row in rows} == {width}
            assert "x\ry" in [row[0] for row in rows]
            assert b'"x\ry",' in path.read_bytes()


class TestCommandsReadColumnsOnly:
    """Every command runs on the panel's and the training set's columns
    alone: with ``PanelColumns.records`` or ``TrainingSet.rows`` raising,
    each exits as before and writes the same bytes."""

    @staticmethod
    def run_every_command(out, capsys):
        out.mkdir()
        findings = out / "findings.csv"
        findings.write_text(VALIDATE_PANEL, encoding="utf-8")
        codes = [
            run_cli("validate", "--input", PANEL_CSV, "--config", CONFIG_JSON),
            run_cli("validate", "--input", findings, "--config", CONFIG_JSON),
            run_cli("transform", "--input", PANEL_CSV, "--config", CONFIG_JSON,
                    "--output", out / "training.csv"),
            run_cli("train", "--input", out / "training.csv", "--config", CONFIG_JSON,
                    "--output", out / "model.json"),
            run_cli("score", "--model", out / "model.json", "--input", PANEL_CSV,
                    "--config", CONFIG_JSON, "--output", out / "scores.csv"),
            run_cli("sweep", "--input", PANEL_CSV, "--config", CONFIG_JSON,
                    "--output", out / "curve.csv"),
            run_cli("synth", "--output", out / "synth.csv",
                    "--entities", 40, "--periods", 9, "--seed", 5),
        ]
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return codes, capsys.readouterr().out, files

    def test_no_command_reads_records(self, tmp_path, capsys, monkeypatch):
        before = self.run_every_command(tmp_path / "before", capsys)
        assert before[0] == [0, 1, 0, 0, 0, 0, 0]

        def refuse(*args):
            raise AssertionError("a command read PanelColumns.records")

        monkeypatch.setattr(PanelColumns, "records", refuse)
        assert self.run_every_command(tmp_path / "after", capsys) == before

    def test_no_command_reads_training_rows(self, tmp_path, capsys, monkeypatch):
        before = self.run_every_command(tmp_path / "before", capsys)

        def refuse(self):
            raise AssertionError("a command read TrainingSet.rows")

        monkeypatch.setattr(TrainingSet, "rows", property(refuse))
        assert self.run_every_command(tmp_path / "after", capsys) == before


class TestTrainingCsvFaults:
    """``train`` exits 1 on a header that does not match the plan and 2 on
    any other fault of the training CSV, printing the reader's message and
    writing no model."""

    @pytest.fixture()
    def two_feature_config(self, tmp_path):
        doc = json.loads(CONFIG_JSON.read_text())
        doc["plan"] = [
            {"name": "a", "kind": "sum", "column": "outbound_calls"},
            {"name": "b", "kind": "sum", "column": "complaints"},
        ]
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize(
        "text, expected", [case[1:] for case in READ_FAULTS], ids=[case[0] for case in READ_FAULTS]
    )
    def test_exit_code_and_message(self, tmp_path, capsys, two_feature_config, text, expected):
        training, model = tmp_path / "training.csv", tmp_path / "model.json"
        training.write_text(text, encoding="utf-8", newline="")
        code = run_cli("train", "--input", training, "--config", two_feature_config,
                       "--output", model)
        kind, message = expected
        assert code == (1 if kind is DimensionMismatch else 2)
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists()

"""The benchmark's tracer still finds and counts what it wraps.

``bench/tracer.py`` replaces entry points of ``leadframe.cli`` and
``leadframe.evaluation`` by name, and counts rows through ``TrainingSet``
attributes; a renamed or moved function, or a changed ``TrainingSet``, would
otherwise break only traced benchmark runs.
"""

import sys

import pytest

from conftest import CONFIG_JSON, PANEL_CSV, REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "bench"))

import tracer  # noqa: E402

from leadframe.cli import main  # noqa: E402
from leadframe.model import TrainConfig  # noqa: E402
from leadframe.transform import ReferenceFrameConfig, build_training_set  # noqa: E402


@pytest.mark.parametrize(
    "module, attr", [entry[:2] for entry in tracer.ENTRY_POINTS],
    ids=[f"{entry[0].__name__}.{entry[1]}" for entry in tracer.ENTRY_POINTS],
)
def test_entry_point_resolves(module, attr):
    function = getattr(module, attr)
    assert callable(function)
    assert function.__module__.startswith("leadframe.")


def test_counters_read_a_training_set(fixture_timelines, plan):
    training = build_training_set(fixture_timelines, ReferenceFrameConfig(lead_time=30), plan)
    assert (len(training), len(training.report.dropped)) == (2, 2)
    assert tracer._training((), training) == {"rows_out": 2, "dropped": 2}
    config = TrainConfig(epochs=7)
    assert tracer._train_work((training, config), None) == {"work": 7 * 2 * 5}


def test_traced_chain_folds_and_predicts_once_per_command(tmp_path, monkeypatch):
    for module, attr, _, _ in tracer.ENTRY_POINTS:
        monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after the test
    trace = tracer.Tracer()
    tracer.instrument(trace)
    training, model = tmp_path / "training.csv", tmp_path / "model.json"
    assert main(["transform", "--input", str(PANEL_CSV), "--config", str(CONFIG_JSON),
                 "--output", str(training)]) == 0
    assert main(["train", "--input", str(training), "--config", str(CONFIG_JSON),
                 "--output", str(model)]) == 0
    assert main(["score", "--model", str(model), "--input", str(PANEL_CSV),
                 "--config", str(CONFIG_JSON), "--output", str(tmp_path / "scores.csv")]) == 0
    names = [span["name"] for span in trace.spans]
    assert names.count("transform.score_features") == 0
    assert names.count("model.predict_proba") == 0
    # Each command reads the panel as one block, which panel.EntityBlocks
    # tokenizes itself: no span of the wrapped parse, one of the timelines.
    assert names.count("panel.parse_panel_csv") == 0
    assert names.count("panel.build_timelines") == 2
    counts = [span["counts"] for span in trace.spans if "counts" in span]
    assert {"rows_out": 4, "dropped": 0} in counts
    assert {"work": 400 * 4 * 5} in counts

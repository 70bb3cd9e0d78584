"""In-memory span recorder for the traced run.

A span is a name, a start and an end from ``time.perf_counter``, the index
of the enclosing span (-1 for a root) and optional counts.  Spans are kept
in a list and written out by the caller when the run ends.  Nothing here is
installed during timed runs: ``instrument`` replaces the layer entry points
that ``leadframe.cli`` and ``leadframe.evaluation`` call with wrappers, and
only the traced pass calls it.
"""

from __future__ import annotations

import contextlib
import functools
import time

import checkout  # noqa: F401  (puts the checkout's src/ on sys.path)
import leadframe.cli
import leadframe.evaluation


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else -1,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``count(args, result)`` returns a dict of counts stored on the span.
        """
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = inner(*args, **kwargs)
                if count is not None:
                    record["counts"] = count(args, result)
            return result

        setattr(module, attr, traced)


def _parsed(args, dataset) -> dict:
    return {"rows_parsed": len(dataset.records)}


def _generated(args, dataset) -> dict:
    return {"rows_generated": len(dataset.records)}


def _training(args, training) -> dict:
    return {"rows_out": len(training.rows), "dropped": len(training.report.dropped)}


def _train_work(args, model) -> dict:
    data, config = args[0], args[1]
    return {"work": config.epochs * len(data.rows) * len(data.feature_names)}


def _points(args, curve) -> dict:
    return {
        "points": len(curve.points),
        "points_ok": sum(1 for p in curve.points if p.metrics is not None),
    }


# (module, attribute, span name, counter); the span name's first part is the layer.
ENTRY_POINTS = (
    (leadframe.cli, "parse_panel_csv", "panel.parse_panel_csv", _parsed),
    (leadframe.cli, "build_timelines", "panel.build_timelines", None),
    (leadframe.cli, "write_panel_csv", "panel.write_panel_csv", None),
    (leadframe.cli, "generate_panel", "synth.generate_panel", _generated),
    (leadframe.cli, "build_training_set", "transform.build_training_set", _training),
    (leadframe.cli, "score_features", "transform.score_features", None),
    (leadframe.cli, "write_training_csv", "transform.write_training_csv", None),
    (leadframe.cli, "read_training_csv", "transform.read_training_csv", None),
    (leadframe.cli, "train_logistic", "model.train_logistic", _train_work),
    (leadframe.cli, "predict_proba", "model.predict_proba", None),
    (leadframe.cli, "lead_time_sweep", "evaluation.lead_time_sweep", _points),
    (leadframe.cli, "write_curve_csv", "evaluation.write_curve_csv", None),
    (leadframe.evaluation, "split_entities", "evaluation.split_entities", None),
    (leadframe.evaluation, "build_training_set", "transform.build_training_set", _training),
    (leadframe.evaluation, "train_logistic", "model.train_logistic", _train_work),
    (leadframe.evaluation, "evaluate", "evaluation.evaluate", None),
    (leadframe.evaluation, "predict_proba", "model.predict_proba", None),
)


def no_span(name: str):
    """Stands in for ``Tracer.span`` when nothing is traced."""
    return contextlib.nullcontext()


def instrument(tracer: Tracer) -> None:
    for module, attr, name, count in ENTRY_POINTS:
        tracer.wrap(module, attr, name, count)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own

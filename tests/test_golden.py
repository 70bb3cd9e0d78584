"""Golden SHA-256 digests of command outputs.

The digests pin the bytes each command writes, so a refactor of the
generator, the transform, the model or the evaluation that changes any
output byte fails here.

The ``validate`` digests pin its report lines on stdout and its exit code,
on the bundled panel and on a small panel whose timelines have gaps, more
than one event flag and records after the first event.

The ``synth`` panel digest covers pure-Python code (SplitMix64, Knuth's
Poisson, ``repr`` of floats) and is portable.  The ``model.json``,
``scores.csv`` and ``curve.csv`` digests go through numpy's floating-point
kernels (``np.exp``, matrix products, reductions), so like
``bench/pinned.json`` they hold for the numpy build they were computed
with (numpy 2.4.6, x86-64) and may differ in the last bit on another one.
"""

import hashlib
import json

import pytest

from conftest import CONFIG_JSON, PANEL_CSV

from leadframe.cli import main

SYNTH_ARGS = ("--entities", "60", "--periods", "12", "--seed", "3")
SYNTH_PANEL = "133e8237320247824da77f54fa9e6a72478a7e6c8075aee33241d44ec54ee909"

PIPELINE = {
    "telecom": {
        "training.csv": "3aae955b8e92b12575ac93eff6f3df61b49486d3f90323b217b0b0c85e745777",
        "model.json": "1189971e98d35ee9ee22552573ec6c3fcded8ef5730a034a3c9205a8cc834118",
        "scores.csv": "b9f021db8e7a10013b0bf3ee3b200c7d8c353ec0c1e3edf21b0504264a89ff5c",
        "curve.csv": "8332209ef6669e5263682024da3643d68596764f3b7e2d8743d69a50b5eafe0a",
    },
    "synth": {
        "training.csv": "b74c2bf4e11833079046760eb0971116db4869f938089dfed7332f9a73c63f71",
        "model.json": "a436a76c3cee84a5183cad89232a28818dfee8a755a04fa72c81a955c8ec01cb",
        "scores.csv": "efe459afa6b18edc2b46de401a55abc52317ebc7e35cb20e99f9a6df8f318c07",
        "curve.csv": "fc23dd458b3640e05e2eba0d881aa11b7f7a8bcbd7ce6ec3952a744a8ecd8199",
    },
}

VALIDATE_PANEL = """\
customer,month,outbound_calls,complaints,interruptions,resolution_time,promotions,churn
a,2016-01,1,0,0,0,0,0
a,2016-04,2,1,0,0,1,0
b,2016-02,0,0,1,3,0,1
b,2016-03,0,0,0,0,0,1
b,2016-05,1,0,0,0,0,0
c,2016-01,0,2,1,1,0,0
c,2016-03,0,0,0,0,0,1
c,2016-05,3,0,0,0,0,0
d,2016-02,4,0,2,5,0,0
d,2016-03,1,1,0,0,0,1
"""
# (exit code, SHA-256 of stdout) of ``validate`` on each panel.
VALIDATE = {
    "bundled": (0, "6fdec4c7dac3f0f2e5b3eb0504aa85eb41cd2300aba7a7872f85552c4a76c1a3"),
    "findings": (1, "acf0a03b911e62412995b1e0506cb344a476de371cb1db5041499bedc1793dfc"),
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture()
def synth_panel(tmp_path):
    path = tmp_path / "synth.csv"
    run("synth", "--output", path, *SYNTH_ARGS)
    return path


def test_synth_panel_digest(synth_panel):
    assert sha256(synth_panel) == SYNTH_PANEL


@pytest.mark.parametrize("source", sorted(PIPELINE))
def test_pipeline_digests(source, tmp_path, synth_panel):
    panel = PANEL_CSV if source == "telecom" else synth_panel
    out = tmp_path / source
    out.mkdir()
    run("transform", "--input", panel, "--config", CONFIG_JSON, "--output", out / "training.csv")
    run("train", "--input", out / "training.csv", "--config", CONFIG_JSON,
        "--output", out / "model.json")
    run("score", "--model", out / "model.json", "--input", panel, "--config", CONFIG_JSON,
        "--output", out / "scores.csv")
    run("sweep", "--input", panel, "--config", CONFIG_JSON, "--output", out / "curve.csv")
    assert {name: sha256(out / name) for name in PIPELINE[source]} == PIPELINE[source]


@pytest.mark.parametrize("source", sorted(VALIDATE))
def test_validate_digests(source, tmp_path, capsys):
    panel = PANEL_CSV
    if source == "findings":
        panel = tmp_path / "panel.csv"
        panel.write_text(VALIDATE_PANEL, encoding="utf-8")
    code = main(["validate", "--input", str(panel), "--config", str(CONFIG_JSON)])
    out = capsys.readouterr().out
    if source == "findings":
        assert {"period_gaps", "multiple_events", "records_after_event"} <= {
            finding["code"] for line in out.splitlines() for finding in json.loads(line)["findings"]
        }
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == VALIDATE[source]

import json
import os

import pytest

import jobs
import tracing
from gamecomonads import cli, ef


def test_traced_round_reports_layers_and_restores_modules(tmp_path):
    w = jobs.cli_small(2)
    for name, graph in w.files.items():
        (tmp_path / name).write_text(graph.text(), encoding="utf-8")
    original = (ef.decide_exist_ef, cli.parse_structure)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        values, results = tracing.traced_round(w.jobs, tmp_path / "spans.jsonl")
    finally:
        os.chdir(cwd)
    assert (ef.decide_exist_ef, cli.parse_structure) == original
    assert {jid: code for jid, (code, _) in results.items()} == {j.id: j.exit for j in w.jobs}
    for name in ("structures.parse_s", "ef.decide_s", "certificates.verify_s",
                 "parameters.kappa_pebble_s", "logic.eval_s", "structures.partial_check_s"):
        assert values[name] > 0, name
    assert values["structures.partial_checks"] > 0
    assert values["ef.plays"] == 5 + 5 ** 2 + 5 ** 3  # one ef exists game, n=5, k=3
    assert values["main_s"] > sum(values[n] for n in tracing.SPAN_LAYERS)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["job"] for s in roots] == [j.id for j in w.jobs]
    assert all(s["name"] == "cli.main" for s in roots)
    assert sum(s["self"] + s["partial_check_s"] for s in spans) == pytest.approx(
        sum(s["end"] - s["start"] for s in roots))

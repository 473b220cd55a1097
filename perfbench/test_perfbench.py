"""The benchmark's own tests: seeded inputs, process hygiene, verdicts.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import metrics as M  # noqa: E402
import procs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from repro.api.config import RunConfig  # noqa: E402

GRAPHS = {
    "social": inputs.social_graph,
    "road": inputs.road_graph,
    "serve": inputs.serve_graph,
}


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # A reaped child is gone; an unreaped zombie would still answer.
    with open(f"/proc/{pid}/status") as fh:
        return "zombie" not in fh.read()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_same_seed_same_graph_bytes(name):
    make = GRAPHS[name]
    assert inputs.input_digest(make(3)) == inputs.input_digest(make(3))
    assert inputs.input_digest(make(3)) != inputs.input_digest(make(4))


def test_serve_plan_is_seeded():
    graph = inputs.serve_graph(3)
    assert inputs.serve_plan(graph, 3) == inputs.serve_plan(graph, 3)
    assert inputs.serve_plan(graph, 3) != inputs.serve_plan(graph, 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serve_pass_restores_starting_edges(seed):
    graph = inputs.serve_graph(seed)
    plan = inputs.serve_plan(graph, seed)
    states = plan.edge_sets(graph)
    assert states[-1] == states[0]
    assert len(set(states)) == len(plan.cycles)
    for cycle, before in zip(plan.cycles, states):
        batch = cycle.batch
        assert len(batch.additions) == len(batch.deletions) == 4
        assert not set(batch.additions) & before
        assert set(batch.deletions) <= before


def test_rewrites_are_isomorphic_but_differ():
    import numpy as np

    from repro.query.dsl import parse_pattern
    from repro.query.patterns import named_patterns

    rng = np.random.default_rng(0)
    for name in inputs.SERVE_QUERIES:
        text = inputs.rewrite(name, rng)
        assert text != str(named_patterns()[name])
        assert parse_pattern(text).isomorphic_to(named_patterns()[name])


@pytest.mark.parametrize("cls", [workloads.Social, workloads.Road])
def test_workload_seed_never_reaches_runconfig(cls):
    configs = []
    for seed in (5, 6):
        workload = cls(seed)
        try:
            workload.reference()
            workload.setup()
            configs.append(workload.session.config)
        finally:
            workload.close()
    assert configs[0] == configs[1]
    assert configs[0].seed == RunConfig().seed


def test_children_killed_when_a_run_raises():
    seen: list[int] = []
    with pytest.raises(RuntimeError, match="boom"):
        with procs.Children() as children:
            children.start(["worker", "--port", "0"])
            seen.extend(children.pids)
            raise RuntimeError("boom")
    assert seen and not any(_alive(pid) for pid in seen)


def test_no_shard_outlives_a_failed_workload(monkeypatch):
    seen: list[int] = []
    start = procs.Children.start

    def recording_start(self, *argv):
        addresses = start(self, *argv)
        seen.extend(self.pids)
        return addresses

    def failing_pass(self, rec, **kwargs):
        raise RuntimeError("pass blew up")

    monkeypatch.setattr(procs.Children, "start", recording_start)
    monkeypatch.setattr(workloads.Shards, "run_pass", failing_pass)
    with pytest.raises(RuntimeError, match="pass blew up"):
        run.run_one("shards", seed=1, seconds=0.1, trace=False)
    assert seen and not any(_alive(pid) for pid in seen)


def test_children_pin_hash_seed():
    assert procs.child_env()["PYTHONHASHSEED"] == procs.PYTHONHASHSEED


def test_supports_needs_ten_samples_beyond():
    assert M.supports(200) == "p95"
    assert M.supports(1000) == "p99"
    assert M.supports(5) == "median"


def test_verdicts():
    pass_s = M.BY_NAME["pass_s"]
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert M.verdict(pass_s, base, [1.5, 1.52, 1.49, 1.5, 1.51])[0] == "worse"
    assert M.verdict(pass_s, base, [0.8, 0.81, 0.79, 0.8, 0.8])[0] == "better"
    assert M.verdict(pass_s, base, [1.0, 1.01, 1.0, 0.99, 1.0])[0] == "same"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0]
    assert M.verdict(pass_s, base, noisy)[0] == "unresolved"


def test_compare_checks_exact_metrics_seed_by_seed(tmp_path, capsys):
    def write(name, makespans):
        path = tmp_path / name
        path.write_text("".join(
            json.dumps({
                "workload": "road", "seed": seed,
                "end_to_end": {"sim_makespan_s": {"value": value}},
            }) + "\n"
            for seed, value in makespans.items()
        ))
        return str(path)

    base = write("base.jsonl", {1: 0.5, 2: 0.7})
    assert run.main_compare(base, write("same.jsonl", {2: 0.7, 1: 0.5})) == 0
    assert run.main_compare(base, write("moved.jsonl", {1: 0.5, 2: 0.6})) == 1
    assert "changed" in capsys.readouterr().out


def test_benchmark_json_matches_catalogue():
    spec = run.benchmark_json()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in M.ALL
    ]
    for entry in spec["end_to_end"]:
        metric = M.BY_NAME[entry["name"]]
        assert set(metric.workloads) == set(M.ALL)
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
    assert [m["name"] for m in spec["per_layer"]] == [
        m.name for m in M.PER_LAYER
    ]

"""The benchmark's own tests, on the smoke profile.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH
from metrics import END_TO_END, PER_LAYER
from spans import Tracer, cluster_targets, core_targets, router_targets, self_times

ROOT = BENCH.parent
#: Smoke runs long enough for every reported percentile to be supported.
SMOKE_SECONDS = {"wide-read": 2, "recent-churn": 5, "cluster-scatter": 6}
SEED = 3


def _run_cli(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SMOKE_SECONDS[workload]),
         "--trace", str(trace), "--profile", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_catalogue_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(SMOKE_SECONDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(SMOKE_SECONDS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run_cli(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_cli("wide-read", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# The gate catches one perturbed answer.
# ----------------------------------------------------------------------
def _nudged(distances):
    """The same distances with the last one one ulp larger (still sorted)."""
    distances = np.array(distances, dtype=np.float64)
    distances[-1] = np.nextafter(distances[-1], np.inf)
    return distances


def _is_probe(probe, vector, lo, hi) -> bool:
    return lo == probe[1] and hi == probe[2] and np.array_equal(vector, probe[0])


def test_gate_catches_a_perturbed_answer_wide_read(monkeypatch):
    import wide_read
    from repro.core import QueryResult
    from repro.service.engine import IndexService

    profile = wide_read.PROFILES["smoke"]
    probe = wide_read.Inputs(SEED, profile).probes[0]
    original = IndexService.query

    def perturbed(self, vector, lo, hi, k, **kwargs):
        result = original(self, vector, lo, hi, k, **kwargs)
        if _is_probe(probe, vector, lo, hi):
            result = QueryResult(result.ids, _nudged(result.distances), result.stats)
        return result

    monkeypatch.setattr(IndexService, "query", perturbed)
    outcome = wide_read.run(SEED, SMOKE_SECONDS["wide-read"], False, "smoke")
    assert not outcome.correct
    assert any("probe mismatch" in p for p in outcome.detail["gate"]["problems"])


def test_gate_catches_a_perturbed_answer_recent_churn(monkeypatch):
    import recent_churn
    from repro.frontend.client import FrontendClient

    seconds = SMOKE_SECONDS["recent-churn"]
    profile = recent_churn.PROFILES["smoke"]
    # Probes sit below the window's final head; their vectors and widths
    # do not depend on it.
    probe, lo0, hi0 = recent_churn.Inputs(SEED, profile, seconds).probes(0)[0]
    original = FrontendClient.query

    async def perturbed(self, vector, lo, hi, k, **kwargs):
        reply = await original(self, vector, lo, hi, k, **kwargs)
        if np.array_equal(vector, probe) and np.isclose(hi - lo, hi0 - lo0):
            reply = dict(reply, distances=_nudged(reply["distances"]).tolist())
        return reply

    monkeypatch.setattr(FrontendClient, "query", perturbed)
    outcome = recent_churn.run(SEED, seconds, False, "smoke")
    assert not outcome.correct
    assert any("probe mismatch" in p for p in outcome.detail["gate"]["problems"])


def test_gate_catches_a_perturbed_answer_cluster_scatter(monkeypatch):
    import cluster_scatter
    from repro.cluster import ClusterCoordinator
    from repro.core import QueryResult

    profile = cluster_scatter.PROFILES["smoke"]
    probe = cluster_scatter.Inputs(SEED, profile).probes[0]
    original = ClusterCoordinator.query

    def perturbed(self, vector, lo, hi, k, **kwargs):
        result = original(self, vector, lo, hi, k, **kwargs)
        if _is_probe(probe, vector, lo, hi):
            result = QueryResult(result.ids, _nudged(result.distances), result.stats)
        return result

    monkeypatch.setattr(ClusterCoordinator, "query", perturbed)
    outcome = cluster_scatter.run(
        SEED, SMOKE_SECONDS["cluster-scatter"], False, "smoke"
    )
    assert not outcome.correct
    assert any("probe mismatch" in p for p in outcome.detail["gate"]["problems"])


# ----------------------------------------------------------------------
# Trace wrappers change no answer.
# ----------------------------------------------------------------------
def _twin_services():
    """Two identical sharded services, one RangePQ+ and one RangePQ each."""
    from repro.core import RangePQ, RangePQPlus
    from repro.datasets import sift_like
    from repro.service.router import RangeShardedService

    data = sift_like(n=1_500, d=32, num_queries=60, seed=0)
    ids = np.arange(len(data.vectors))

    def sharded(cls):
        def factory(ids, vectors, attrs):
            return cls.build(vectors, attrs, ids=ids, num_subspaces=8,
                             num_codewords=64, seed=0)
        return RangeShardedService.build(
            ids, data.vectors, data.attrs, num_shards=2, index_factory=factory
        )

    return data, [(sharded(cls), sharded(cls)) for cls in (RangePQPlus, RangePQ)]


def _drive(service, data) -> list:
    """Reads, inserts and deletes; returns every answer."""
    rng = np.random.default_rng(7)
    answers = []
    for i, query in enumerate(data.queries):
        lo, hi = np.sort(rng.integers(1, 10**4, size=2)).astype(float)
        result = service.query(query, lo, hi, 10)
        answers.append((result.ids.tobytes(), result.distances.tobytes()))
        if i % 3 == 0:
            service.insert(10_000 + i, query, float(rng.integers(1, 10**4)))
        else:
            service.delete(i)
    return answers


def test_trace_wrappers_leave_every_answer_bitwise_unchanged():
    from repro.service.engine import IndexService

    data, twins = _twin_services()
    original = IndexService.__dict__["query"]
    for plain, traced in twins:
        expected = _drive(plain, data)
        tracer = Tracer()
        tracer.install(core_targets() + router_targets() + cluster_targets())
        try:
            got = _drive(traced, data)
        finally:
            tracer.uninstall()
        assert got == expected
        names = {span[3] for span in tracer.spans}
        assert {"router.query", "service.read", "core.plan", "kernels.fetch",
                "ivf.adc", "core.insert", "core.delete"} <= names
    assert IndexService.__dict__["query"] is original


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.add("root", 1, 0, 100)
    tracer.add("a", 1, 10, 40, parent=1)
    tracer.add("b", 1, 30, 60, parent=1)  # overlaps a: union is 10..60
    tracer.add("c", 1, 90, 120, parent=1)  # clipped to the parent's end
    assert self_times(tracer.spans)[1] == 100 - 50 - 10


def test_server_spans_graft_under_their_client_span():
    from recent_churn import _graft
    from spans import PARENT

    client = [[1, None, ("q", 1.0, 2.0), "client.query", 0, 100, None]]
    server = [[1, None, ["q", 1.0, 2.0], "router.query", 10, 90, None],
              [2, 1, ["q", 1.0, 2.0], "service.read", 20, 80, None]]
    merged = _graft(client, server)
    assert merged[1][PARENT] == 1 and merged[2][PARENT] == merged[1][0]

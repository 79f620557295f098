"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q streambench/test_streambench.py
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench

bench.import_streamrag(bench.ROOT)

import workloads  # noqa: E402  (needs streamrag on the path first)
from checks import Ledger, check_outcomes, check_repeat  # noqa: E402
from clock import REFERENCE_PROBE_S, Clock  # noqa: E402
from streamrag.retrieval import ReferenceBundle  # noqa: E402
from streamrag.synth import FixtureWorld, random_batch  # noqa: E402
from tracing import Tracer, resolve  # noqa: E402

TINY = {
    "stream-2k": workloads.Workload("stream-2k", 200, 1),
    "pipeline-cli": workloads.Workload("pipeline-cli", 200, 1, via_cli=True),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    monkeypatch.setattr(workloads, "TRACES_PER_FILE", 2)  # 5 traces in 3 files


def run_main(*args: str) -> tuple[dict, dict]:
    out = io.StringIO()
    with redirect_stdout(out):
        assert bench.main(list(args)) == 0
    *_, detail, result = out.getvalue().splitlines()
    return json.loads(detail), json.loads(result)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, workload):
    for trace, kind, names in ((0, "end_to_end", bench.END_TO_END), (1, "per_layer", bench.PER_LAYER)):
        detail, result = run_main("--workload", workload, "--seed", "3",
                                  "--seconds", "0.1", "--trace", str(trace))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == dict(names) == declared(kind)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert set(detail["simulated"]) == {name for name, _ in bench.SIMULATED}


def test_same_seed_same_outputs(tiny, tmp_path):
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        run = workloads.Run(TINY["stream-2k"], seed, tmp_path / str(i), Ledger())
        run.setup()
        result = run.round()
        digests.append((result.digest, result.sim))
    assert digests[0] == digests[1]
    assert digests[0][0] != digests[2][0]


@pytest.fixture(scope="module")
def traced_round(tmp_path_factory):
    run = workloads.Run(TINY["stream-2k"], 3, tmp_path_factory.mktemp("work"), Ledger())
    run.setup()
    return run, run.round(Tracer())


def test_self_times_add_up_to_traced_wall(traced_round):
    _, result = traced_round
    total = sum(self_s for _, self_s in result.trace.layers.values())
    assert total == pytest.approx(result.trace.wall_s, rel=1e-9)
    # the root span encloses exactly the timed workload
    assert total == pytest.approx(result.wall_s, rel=0.01, abs=1e-3)
    assert result.trace.layers["retrieval.score_all"][0] > 0


def _corruptions(outcomes):
    def edit(strategy, **changes):
        found = list(outcomes[strategy])
        found[0] = replace(found[0], **changes)
        return {**outcomes, strategy: found}

    return {
        "bundle": edit("fixed_interval", references=ReferenceBundle(("wrong",), (), 1)),
        "parallel": edit("model_triggered", max_parallel_threads=2),
        "latency": edit("open_book", latency=None),
        "missing": {**outcomes, "model_triggered": outcomes["model_triggered"][1:]},
    }


def test_checks_pass_on_real_outcomes(traced_round):
    run, result = traced_round
    ledger = Ledger()
    check_outcomes(ledger, run.trace_ids, result.outcomes)
    assert ledger.attempted > 0 and ledger.failures == []


@pytest.mark.parametrize("corruption", ["bundle", "parallel", "latency", "missing"])
def test_each_check_fails_on_a_corrupted_outcome(traced_round, corruption):
    run, result = traced_round
    ledger = Ledger()
    check_outcomes(ledger, run.trace_ids, _corruptions(result.outcomes)[corruption])
    assert len(ledger.failures) >= 1


def test_step_times_are_corrected_for_host_speed():
    """A step that takes twice as long while the probe also takes twice as
    long reads the same: it ran on a slower host, not slower code."""
    fast, slow, slower_code = Clock(), Clock(), Clock()
    fast.seconds["s"], fast.probes["s"] = 0.010, 0.0005
    slow.seconds["s"], slow.probes["s"] = 0.020, 0.0010
    slower_code.seconds["s"], slower_code.probes["s"] = 0.030, 0.0010
    assert bench.step_seconds([fast], "s") == pytest.approx(bench.step_seconds([slow], "s"))
    assert bench.step_seconds([fast, slow, slower_code], "s") == pytest.approx(
        0.020 * REFERENCE_PROBE_S / 0.001)
    assert bench.step_seconds([slower_code], "s") == pytest.approx(
        1.5 * bench.step_seconds([slow], "s"))


def test_probing_clock_records_a_probe_per_step():
    clock = Clock()
    for name in ("a", "b"):
        with clock.step(name):
            sum(range(1000))
    assert set(clock.seconds) == set(clock.probes) == {"a", "b"}
    assert all(p > 0 for p in clock.probes.values()) and clock.probe_s > 0
    unprobed = Clock(probing=False)
    with unprobed.step("a"):
        pass
    assert unprobed.probes == {} and unprobed.probe_s == 0.0


def test_repeat_check_fails_on_a_changed_digest():
    ledger = Ledger()
    check_repeat(ledger, "a" * 64, "b" * 64, "outputs digest")
    assert ledger.attempted == 1 and len(ledger.failures) == 1


def test_failed_operations_are_counted(tiny, tmp_path):
    run = workloads.Run(TINY["pipeline-cli"], 3, tmp_path, Ledger())
    run._invoke("simulate", "--traces", str(tmp_path / "missing.jsonl"))
    assert len(run.ledger.failures) == 1
    run._count_errors("open_book", [(run.trace_ids[0], "backend down")])
    assert len(run.ledger.failures) == 2


def test_refuses_to_run_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(bench.BENCH_DIR, tmp_path / bench.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(bench.BENCH_DIR.name) / "run.py"), "--workload", "stream-2k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    with pytest.raises(bench.GuardError):
        bench.import_streamrag(tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_wrap_target_resolves(workload):
    for owner, attr, name, _ in workloads.targets(workloads.WORKLOADS[workload]):
        assert resolve(owner, attr) is not None, f"{name}: {owner.__name__}.{attr} is gone"


def test_a_missing_target_leaves_its_layer_out():
    tracer = Tracer()
    gone = (workloads.orchestrator, "no_such_function", "retrieval.web_search", None)
    with tracer.patched([gone]):
        pass
    assert tracer.missing == {"retrieval.web_search": {"streamrag.orchestrator.no_such_function"}}
    values = {"retrieval.web_search.calls": 0, "retrieval.web_search.distinct_queries": 0,
              "retrieval.search_useful_ratio": 1.0, "retrieval.score_all.calls": 5}
    assert bench.drop_missing(values, set(tracer.missing)) == {"retrieval.score_all.calls": 5}


def test_traces_are_random_batch_traces():
    world = FixtureWorld(200, seed=4)
    shapes = workloads.Workload("w", 200, 2).shapes
    traces = workloads.shaped_traces(world, shapes, 4)
    assert sorted(workloads.trace_shape(t) for t in traces) == sorted(shapes)
    last = max(int(t.utterance_id.rsplit("-", 1)[1]) for t in traces)
    batch = {t.utterance_id: t for t in random_batch(world, last + 1, seed=4,
                                                      block_ms=workloads.BLOCK_MS)}
    assert all(batch[t.utterance_id] == t for t in traces)

"""Self-tests of the benchmark's span arithmetic and output check.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import sys
import types
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import phtlink.stations  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_time, union_length  # noqa: E402


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run-test")


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(3.0, 6.0), (1.0, 4.0), (8.0, 9.0), (8.5, 8.7)]) == 6.0


def test_self_time_subtracts_union_of_overlapping_children():
    root = _span("network.run_network", 0.0, 10.0)
    children = [
        _span("stations.tse_handle", 1.0, 4.0, 0),  # two threads overlap
        _span("stations.data_handle", 3.0, 6.0, 0),
        _span("wire.decode", 2.0, 2.5, 0),  # inside both others
        _span("wire.encode", 8.0, 12.0, 0),  # runs past the parent's end
    ]
    # covered: [1, 6] and [8, 10]; a plain sum of durations would give 10.5
    assert self_time(root, children) == 3.0
    root.folded["pseudonym.pseudonymize"] = [4, 0.5]
    assert self_time(root, children) == 2.5


def test_self_time_of_span_without_children_is_its_duration():
    assert self_time(_span("x", 2.0, 3.5), []) == 1.5


def test_wrapped_name_that_no_longer_exists_is_missing_not_zero():
    tracer = Tracer()
    tracer.wrap(types.SimpleNamespace(), "seal", "envelope.seal")
    assert tracer.missing == {"envelope.seal"}
    with tracer.run("network.run_network", "run-test"):
        pass
    metrics = layers.run_metrics(tracer, "run-test")
    assert "envelope.seal_s" not in metrics
    assert metrics["envelope.open_s"] == 0.0


def _small_run(seed: int):
    w = replace(workloads.WORKLOADS["tcp-1k"], transport="inproc")
    inputs = workloads.generate(w, seed)
    with workloads.LinkCapture(phtlink.stations) as capture:
        outcome = workloads.run_once(w, workloads.make_setup(w, inputs, "run-test"))
    return w, workloads.reference(w, inputs), outcome, capture.pairs


def test_check_accepts_run_and_rejects_one_altered_cell():
    w, ref, outcome, pairs = _small_run(seed=7)
    assert workloads.check(w, ref, workloads.summarize(outcome, 0.1, pairs)) is None

    result = copy.deepcopy(outcome.result)
    row = result.tables[0].rows[0]
    cell = next(k for k, v in row.items() if isinstance(v, (int, float)))
    row[cell] += 1
    run = workloads.summarize(replace(outcome, result=result), 0.1, pairs)
    assert workloads.check(w, ref, run) == "check:tables"


def test_check_rejects_wrong_pairs_and_unwiped_storage():
    w, ref, outcome, pairs = _small_run(seed=8)
    run = workloads.summarize(outcome, 0.1, pairs)
    assert workloads.check(w, ref, replace(run, pairs=run.pairs - {min(run.pairs)})) \
        == "check:pairs"
    assert workloads.check(w, ref, replace(run, storage_clean=False)) == "check:storage"
    assert workloads.check(w, ref, replace(run, completed=False, reason="Timeout")) \
        == "aborted:Timeout"

"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quandlekit import cli, counterexamples  # noqa: E402
from quandlekit.quandles import Quandle, dihedral_quandle, partition_type, validate_table  # noqa: E402
from quandlekit.symmetry import quandle_polynomial  # noqa: E402

REFERENCE = oracle.load_reference()


def test_self_time_of_nested_spans():
    spans = [
        ("bench.job", 0.0, 10.0, -1, 0),
        ("cli.main", 1.0, 9.0, 0, 0),
        ("symmetry.left_semigroup", 2.0, 5.0, 1, 0),
        ("rings.multiply", 3.0, 4.0, 2, 0),
        ("symmetry.left_semigroup", 6.0, 7.5, 1, 0),
    ]
    assert tracing.self_times(spans) == [2.0, 3.5, 2.0, 1.0, 1.5]
    report = tracing.layer_report(spans, errors={3})
    assert report["symmetry.left_semigroup.calls"] == 2
    assert report["symmetry.left_semigroup.self_s"] == 3.5
    assert report["symmetry.self_s"] == 3.5
    assert report["cli.self_s"] == 3.5
    assert report["rings.errors"] == 1  # its caller is in another layer
    assert report["symmetry.errors"] == 0


def test_error_caught_inside_its_layer_does_not_escape():
    spans = [
        ("symmetry.is_left_peak_2transitive", 0.0, 4.0, -1, 0),
        ("symmetry.left_semigroup", 1.0, 2.0, 0, 0),
    ]
    assert tracing.layer_report(spans, errors={1})["symmetry.errors"] == 0
    assert tracing.layer_report(spans, errors={0, 1})["symmetry.errors"] == 1


def test_percentile_rule_and_job_count_gate():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    assert run.percentile([1, 2, 3, 4, 5], 50) == 3
    assert run.percentile_resolved(100, 90) and not run.percentile_resolved(99, 90)
    assert run.percentile_resolved(20, 50) and not run.percentile_resolved(19, 50)
    assert not run.percentile_resolved(5, 50)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabeling_gives_a_valid_quandle_with_identical_invariants(seed):
    for name, q in list(workloads.translation_bases().items())[::7]:
        sigma = workloads.permutation(seed, name, q.n)
        table = workloads.relabel(q.table, sigma)
        assert validate_table(q.n, [list(r) for r in table]).ok
        moved = Quandle.from_table(table)
        assert oracle.is_quandle_isomorphism(q.table, table, sigma)
        assert partition_type(moved) == partition_type(q)
        assert quandle_polynomial(moved) == quandle_polynomial(q)
        assert cli.quandle_summary(moved)["qp"] == REFERENCE["summaries"][name]["qp"]


def _without_inputs(spec):
    return {k: v for k, v in spec.items() if k not in ("table", "sigma", "x", "y", "matrix")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_job_list_is_fixed_and_seeds_change_only_relabelings(workload):
    first = workloads.job_specs(workload, 11, REFERENCE)
    assert first == workloads.job_specs(workload, 11, REFERENCE)
    other = workloads.job_specs(workload, 12, REFERENCE)
    assert [_without_inputs(s) for s in first] == [_without_inputs(s) for s in other]
    assert len({s["name"] for s in first}) == len(first)
    changed = 0
    for a, b in zip(first, other):
        for key in ("table", "x", "y"):
            if key in a:
                assert len(a[key]) == len(b[key])
                changed += a[key] != b[key]
        if "sigma" in a:
            base = workloads.relabel(b["table"], _inverse(b["sigma"]))
            assert workloads.relabel(base, a["sigma"]) == a["table"]
    assert changed > 0 or workload == "census"


def _inverse(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return inv


def test_measured_workloads_have_enough_jobs_for_their_percentiles():
    for workload in ("translations", "ring-fp", "filtration-z"):
        assert run.percentile_resolved(len(workloads.job_specs(workload, 1, REFERENCE)), 90)


def test_oracle_ring_isomorphism_check():
    x, y = counterexamples.PAIR4_X.table, counterexamples.PAIR4_Y.table
    assert oracle.is_ring_isomorphism(x, y, counterexamples.PAIR4_MATRIX, 3)
    assert not oracle.is_ring_isomorphism(x, y, counterexamples.PAIR4_MATRIX, 5)
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    assert not oracle.is_ring_isomorphism(x, y, identity, 3)
    singular = [[0] * 4 for _ in range(4)]
    assert not oracle.is_ring_isomorphism(x, x, singular, 3)
    assert oracle.is_ring_isomorphism(
        counterexamples.PAIR7_X.table, counterexamples.PAIR7_Y.table, counterexamples.PAIR7_MATRIX, 0
    )


def test_census_references_agree_with_a057991():
    for n, (classes, right, left) in oracle.CENSUS_TALLIES.items():
        assert classes == oracle.QUANDLE_CLASSES[n] and left <= right <= classes
    counts = {}
    for name in REFERENCE["small_quandles"]:
        n = int(name[1:].split("_")[0])
        counts[n] = counts.get(n, 0) + 1
    assert counts == {n: oracle.QUANDLE_CLASSES[n] for n in range(1, 6)}


@pytest.fixture
def restored_modules():
    """Undo the tracer's rebinding of library functions after the test."""
    saved = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("quandlekit")}
    yield
    for key, names in saved.items():
        vars(sys.modules[key]).update(names)


def test_install_wraps_every_binding_and_reports_absent_functions(restored_modules, monkeypatch, tmp_path):
    traced = dict(tracing.TRACED, symmetry=tracing.TRACED["symmetry"] + ("no_such_function",))
    monkeypatch.setattr(tracing, "TRACED", traced)
    recorder = tracing.SpanRecorder()
    recorder.install()
    assert recorder.absent == ["symmetry.no_such_function"]
    path = tmp_path / "r7.json"
    path.write_text(json.dumps({"n": 7, "table": [list(r) for r in dihedral_quandle(7).table]}))
    job = recorder.begin_job(0)
    assert cli.main(["check", str(path), "--json"]) == 0
    recorder.end_job(job)
    report = recorder.report()
    assert report["cli.main.calls"] == 1
    assert report["quandles.validate_table.calls"] == 1  # bound in cli by name
    assert report["symmetry.left_semigroup.calls"] >= 1  # called inside symmetry
    assert report["symmetry.left_semigroup.elements"] > 0
    assert report["symmetry.no_such_function.calls"] == 0
    spans = recorder.spans()
    assert spans[0][0] == tracing.ROOT and all(s[4] == 0 for s in spans)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names() + [run.OVERHEAD]
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_interval_rescales_by_the_mean_loop_speed_over_its_samples():
    import speed

    sampler = speed.Sampler()
    sampler.samples = [1.0, 2 * speed.REFERENCE_LOOP_S, speed.REFERENCE_LOOP_S, 4 * speed.REFERENCE_LOOP_S]
    raw, ref = sampler.interval((10.0, 2), (14.0, 4))  # marks took samples 2 and 4
    assert raw == 4.0
    assert ref == pytest.approx(4.0 * (0.5 + 1.0 + 0.25) / 3)
    assert sampler.interval((1.0, 3), (2.0, 3)) == (1.0, 1.0)


def test_sampler_samples_while_cpu_time_passes_and_subtracts_itself():
    import speed

    sampler = speed.Sampler()
    sampler.start()
    wall0 = time.perf_counter()
    try:
        a = sampler.mark()
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
        b = sampler.mark()
    finally:
        sampler.stop()
    assert b[1] - a[1] >= 5  # one sample per 10 ms of CPU time, give or take
    raw, ref = sampler.interval(a, b)
    assert 0 < raw < time.perf_counter() - wall0 - sampler.handler_s / 2
    assert ref > 0

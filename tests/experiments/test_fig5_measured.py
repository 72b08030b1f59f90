"""Measured Figure 5 harness: determinism, scaling and coalescing.

The virtual mode is the tier-1 pin: a single-threaded discrete-event
sweep whose every simulated batch executes the real pipeline, so two
runs with the same seed must produce byte-identical digests (trace
digest included).  The scaling/coalescing assertions mirror the
acceptance criteria: 4 workers sustain ≥ 2× the 1-worker knee, and
past the knee the mean ecalls-per-request drops below 1.0.
"""

from __future__ import annotations

import pytest

from repro.experiments import fig5_measured

RATES = (100, 300, 1200)
KW = dict(duration_seconds=0.2, seed=7, k=2, limit=1, rates=RATES)
#: ``run_virtual(max_workers=4, **KW).digest()``.  A change to the
#: pipeline that moves it must say why.
FOUR_WORKER_DIGEST = (
    "2c84b63a67f249b174257474eb2d0d60a7481c3e293db0debdbc9260c2dd9085"
)


@pytest.fixture(scope="module")
def four_workers():
    return fig5_measured.run_virtual(max_workers=4, **KW)


@pytest.fixture(scope="module")
def one_worker():
    return fig5_measured.run_virtual(max_workers=1, **KW)


def test_virtual_mode_is_byte_deterministic(four_workers):
    again = fig5_measured.run_virtual(max_workers=4, **KW)
    assert four_workers.digest() == again.digest()
    assert four_workers.summary() == again.summary()


def test_virtual_digest_is_pinned(four_workers):
    assert four_workers.digest() == FOUR_WORKER_DIGEST


def test_four_workers_at_least_double_the_knee(four_workers, one_worker):
    assert one_worker.saturation_rps > 0
    assert four_workers.saturation_rps >= 2 * one_worker.saturation_rps


def test_coalescing_amortises_ecalls_under_saturation(one_worker):
    saturated = one_worker.saturated_points()
    assert saturated, "ladder never crossed the knee"
    mean = sum(p.ecalls_per_request for p in saturated) / len(saturated)
    assert mean < 1.0
    # And batches really grew: the histogram is not all size-1.
    assert any(size > 1
               for point in saturated
               for size in point.batch_histogram)


def test_latency_rises_past_the_knee(one_worker):
    first, last = one_worker.points[0], one_worker.points[-1]
    assert last.p50_latency > first.p50_latency


def test_summary_shape(four_workers):
    summary = four_workers.summary()
    assert summary["mode"] == "virtual"
    assert summary["max_workers"] == 4
    assert len(summary["points"]) == len(RATES)
    for point in summary["points"]:
        assert set(point) >= {
            "offered_rps", "achieved_rps", "p50_latency", "p99_latency",
            "ecalls_per_request", "mean_batch_size", "batch_histogram",
        }
    assert summary["traces"]["invariants_ok"] is True


def test_wallclock_smoke():
    """Wall-clock mode end to end at a trivial load (no perf asserts:
    timings are machine-dependent; bench_smoke.sh records the curve)."""
    result = fig5_measured.run_wallclock(
        max_workers=2, rates=(20,), duration_seconds=0.2,
        lanes=4, engine_latency=0.005,
    )
    assert result.mode == "wall"
    point = result.points[0]
    assert point.requests > 0
    assert point.ecalls_per_request <= 1.0 + 1e-9
    assert fig5_measured.format_table(result)


def test_back_to_back_wallclock_runs_both_report_batches():
    """Each run reads its own scheduler's batch counters: a second
    deployment in the same process must not inherit the first's."""
    for _ in range(2):
        result = fig5_measured.run_wallclock(
            max_workers=2, rates=(20, 40), duration_seconds=0.2,
            lanes=4, engine_latency=0.005,
        )
        served = [point for point in result.points if point.requests]
        assert served
        assert all(point.batch_histogram for point in served)

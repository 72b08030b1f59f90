"""The loopback serving harness: deterministic digests, sane points."""

from __future__ import annotations

import pytest

from repro.experiments import fig5_server

_KWARGS = dict(max_workers=2, rates=(40, 160), duration_seconds=0.25,
               seed=5, k=2)
#: ``run_virtual(**_KWARGS).digest()``.  A change to the pipeline or the
#: serving layer that moves it must say why.
_DIGEST = "5988db0b1f7ae6c40d177f3c187800a6503d8c8ce222a3252e916a73caa65411"


@pytest.fixture(scope="module")
def result():
    return fig5_server.run_virtual(**_KWARGS)


def test_virtual_mode_same_seed_is_byte_identical(result):
    second = fig5_server.run_virtual(**_KWARGS)
    assert result.digest() == second.digest()
    assert result.trace_digest == second.trace_digest


def test_virtual_digest_is_pinned(result):
    assert result.digest() == _DIGEST


def test_virtual_mode_shape_and_invariants(result):
    assert result.mode == "server-virtual"
    assert result.max_workers == 2
    assert [point.offered_rps for point in result.points] == [40, 160]
    assert all(point.requests > 0 for point in result.points)
    assert all(point.ecalls > 0 for point in result.points)
    # The serving layer's spans ride the same recorder, and the trace
    # oracles (balanced boundaries, host-plaintext, single-outcome)
    # hold with the wire in the pipeline.
    assert result.trace_digest["invariants_ok"]
    assert result.trace_digest["span_counts"].get("server.dispatch")
    assert result.trace_digest["span_counts"].get("client.call")


def test_different_seed_changes_digest(result):
    other = fig5_server.run_virtual(**{**_KWARGS, "seed": 6})
    assert result.digest() != other.digest()


def test_format_table_renders(result):
    table = fig5_server.format_table(result)
    assert "server-virtual" in table

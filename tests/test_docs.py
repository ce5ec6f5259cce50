"""Documentation health: runnable snippets and live links.

Two invariants, both also enforced by the CI docs job:

1. every ``>>>`` snippet in ``docs/*.md`` executes and produces the
   shown output (``doctest.testfile``), so the documentation cannot
   drift from the code it describes;
2. every relative markdown link in ``README.md`` and ``docs/`` points
   at a file that exists (``tools/check_links.py``).
"""

from __future__ import annotations

import doctest
import sys
from pathlib import Path

import pytest

from repro.gridding import available_gridders

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = sorted((ROOT / "docs").glob("*.md"))

OPTIONFLAGS = doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_snippets_execute(path):
    result = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=OPTIONFLAGS,
        verbose=False,
    )
    assert result.failed == 0, f"{result.failed} failing doctest(s) in {path.name}"


def test_engines_guide_has_snippets():
    """The engine guide must stay executable documentation, not prose,
    and it and the README must name every registered engine."""
    guide = (ROOT / "docs" / "engines.md").read_text(encoding="utf-8")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert guide.count(">>>") >= 10
    for name in available_gridders():
        assert f"`{name}`" in guide, f"engine {name} missing from docs/engines.md"
        assert f"`{name}`" in readme, f"engine {name} missing from README.md"


def test_robustness_guide_covers_failure_modes():
    """The robustness guide must document every failure mode with
    runnable snippets, not drift into prose."""
    text = (ROOT / "docs" / "robustness.md").read_text(encoding="utf-8")
    assert text.count(">>>") >= 10
    for term in (
        "CoordinateError",
        "DataQualityError",
        "EngineFailure",
        "BackendFailure",
        "SolverBreakdown",
        "DegradationEvent",
        "inject_faults",
        "quality_policy",
        "health_check",
        # lifecycle robustness: cooperative cancellation and
        # checkpoint resume
        "CancelToken",
        "Deadline",
        "DeadlineExceeded",
        "JobCancelled",
        "CheckpointStore",
        "StreamCheckpoint",
    ):
        assert term in text, f"{term} missing from docs/robustness.md"


def test_service_guide_covers_the_contract():
    """The service guide must document the lifecycle, backpressure,
    and degradation semantics with runnable snippets."""
    text = (ROOT / "docs" / "service.md").read_text(encoding="utf-8")
    assert text.count(">>>") >= 10
    for term in (
        "ReconServer",
        "ReconClient",
        "ReconService",
        "Retry-After",
        "ServiceOverloaded",
        "fingerprint",
        "plan_cache",
        "quality_policy",
        "drain",
        "/healthz",
        "/stats",
        "queued",
        "running",
        "failed",
        # lifecycle robustness: the full terminal-state fan-out plus
        # the supervision machinery behind it
        "cancelled",
        "deadline_exceeded",
        "/jobs/<id>/cancel",
        "deadline_seconds",
        "idempotency_key",
        "Watchdog",
        "checkpoint",
        "watchdog_restarts",
    ):
        assert term in text, f"{term} missing from docs/service.md"


def test_architecture_guide_maps_every_package():
    """The architecture guide must name every load-bearing package and
    the request flow through the layers."""
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for package in (
        "repro.gridding",
        "repro.core",
        "repro.nufft",
        "repro.recon",
        "repro.mri",
        "repro.robustness",
        "repro.service",
        "repro.bench",
    ):
        assert package in text, f"{package} missing from docs/architecture.md"
    for term in ("POST /jobs", "cg_reconstruction", "GridBufferPool"):
        assert term in text, f"{term} missing from docs/architecture.md"


def test_no_dead_links():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from check_links import dead_links, iter_doc_files
    finally:
        sys.path.pop(0)
    failures = []
    for path in iter_doc_files(ROOT):
        failures += [(str(path), t, why) for t, why in dead_links(path, ROOT)]
    assert failures == []

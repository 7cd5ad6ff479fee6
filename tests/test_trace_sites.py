"""The benchmark's trace sites still name attributes of the program."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_sites_resolve():
    """Every TRACE_SITES entry resolves, save ``treebma.bma.leaf_rows``: the compiled
    ``predict_batch`` no longer calls ``leaf_rows``, and the site list still names it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = tracing.Sites()
    try:
        for owner, attr, _ in tracing.TRACE_SITES:
            sites.replace(owner, attr, lambda original: original)
    finally:
        sites.restore()
    assert set(sites.missing) <= {"treebma.bma.leaf_rows"}

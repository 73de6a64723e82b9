"""The benchmark's traced run patches eegsr functions by owner and name; a
rename or deletion here must fail the suite, not only the benchmark."""
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in tracer.TARGETS if not callable(getattr(owner, attr, None))]
    assert not missing, f"trace targets gone: {missing}"

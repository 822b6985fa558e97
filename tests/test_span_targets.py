"""The traced benchmark run wraps mersexp functions by (module, name).

perfbench/spans.py lists those names in TARGETS and looks each one up
when the traced run starts, so renaming or deleting one of them in the
library breaks that run.  This test catches it in the unit suite.
spans.py imports only the standard library, so it is loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _load_spans().TARGETS
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not callable(
            getattr(importlib.import_module(f"mersexp.{module}"), attr, None)
        )
    ]
    assert not missing, f"span targets not found in mersexp: {missing}"

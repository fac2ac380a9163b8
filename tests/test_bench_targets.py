"""Every function the traced benchmark wraps must exist in heyde.

bench/tracing.py looks its TARGETS up by name; a rename or deletion in the
package would crash the traced run, so it fails here first.  The file is
only read, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("heyde_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_is_callable():
    targets = load_targets()
    assert targets
    missing = []
    for module_name, attr, _, _ in targets:
        obj = importlib.import_module(f"heyde.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"heyde.{module_name}.{attr}")
    assert missing == []

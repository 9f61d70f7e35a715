"""Every name the benchmark's span tracer wraps must resolve in sebq.

The tracer (perfbench/spans.py) replaces module and class attributes by
name and stops on one it cannot find, so a renamed or deleted function
would break a traced benchmark run; this test reads its target list.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._targets()


def test_every_traced_name_resolves():
    missing = []
    for module_name, attr, *_ in _targets():
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"names the tracer wraps are gone: {missing}"

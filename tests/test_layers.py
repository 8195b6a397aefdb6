"""The benchmark tracer's layer list names real functions of the package.

The tracer wraps each listed ``(module, qualname)`` and silently records
the ones it cannot wrap, so a renamed function or a method turned into a
property would only show as missing layers in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("freeflow_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("module_name, qualname", _layers())
def test_traced_layer_is_a_plain_function(module_name, qualname):
    module = importlib.import_module(f"freeflow.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".", 1)
        target = vars(getattr(module, cls_name)).get(attr)
    else:
        target = getattr(module, qualname, None)
    assert inspect.isfunction(target), f"{module_name}.{qualname} is {target!r}"

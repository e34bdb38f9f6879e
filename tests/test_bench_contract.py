"""The names the benchmark tracer relies on still exist in the package.

``bench/layertrace.py`` wraps every function listed in its ``LAYERS`` table
and reads the (seed, method) of each task from fixed argument positions. A
rename in the package would otherwise only surface when the traced benchmark
runs, as "trace: no references found".
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import deferbench  # noqa: F401 - loaded before the tracer module imports numpy
from deferbench import sweep

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("layertrace_contract", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize(
    "module_name, attr_path",
    sorted({target for targets in LAYERS.values() for target in targets}),
)
def test_every_traced_layer_resolves(module_name, attr_path):
    value = importlib.import_module(f"deferbench.{module_name}")
    for part in attr_path.split("."):
        value = getattr(value, part)
    assert callable(value)


@pytest.mark.parametrize("name, start", [("run_method", 2), ("_worker", 1)])
def test_task_entry_points_keep_seed_and_method_positions(name, start):
    params = list(inspect.signature(getattr(sweep, name)).parameters)
    assert params[start : start + 2] == ["seed_index", "method"]

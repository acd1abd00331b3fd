"""The benchmark tracer's wrap table names functions that exist.

``perfbench/tracer.py`` times each layer by replacing a module-level name
of the package; a name that a refactor removes is only reported as
absent in a traced run.  This test loads the table without installing
any wrapper and checks that every ``(module, name)`` resolves to a
callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_wraps():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize("modname, attr, span", load_wraps())
def test_wrapped_name_resolves_to_a_callable(modname, attr, span):
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is missing"

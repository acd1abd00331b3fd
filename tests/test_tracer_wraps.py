"""The benchmark tracer's wrap table names functions that exist and run.

``perfbench/tracer.py`` times each layer by replacing a module-level name
of the package; a name that a refactor removes is only reported as
absent in a traced run, and a family that ``report`` stops calling
through its module global reads zero time.  These tests load the table
without installing the tracer, check that every ``(module, name)``
resolves to a callable, and count the calls ``report`` makes to each
wrapped estimator family.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from nitsche_contact import estimator
from nitsche_contact.adapt import initial_meshes, make_experiment, make_problem
from nitsche_contact.contact import NitscheConfig, solve

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


def test_report_calls_each_wrapped_estimator_family(monkeypatch):
    names = [attr for modname, attr, _ in load_wraps() if modname == "nitsche_contact.estimator"]
    calls = dict.fromkeys(names, 0)
    for attr in names:
        def counted(*args, _fn=getattr(estimator, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(estimator, attr, counted)
    setup = make_experiment("pressing")
    problem = make_problem(setup, *initial_meshes(setup, ((2, 2), (3, 4))), 1)
    estimator.report(solve(NitscheConfig(), problem))
    # the contact family covers both bodies at once, the others run per body
    assert names and calls == {attr: 1 if attr == "contact_facet_estimator" else 2
                               for attr in names}

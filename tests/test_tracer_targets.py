"""The benchmark's tracer finds every function it traces.

``perfbench/tracer.py`` rebinds each traced function by module and name.  A
rename in the package would otherwise surface only in a traced benchmark run.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import monothetic.cli  # noqa: F401  every traced module must be imported

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# The arguments the tracer's hooks read by position (by name when passed by
# keyword): (traced function, position, parameter name, parameter kind).  A
# moved parameter would feed the wrong value to the level and byte counters,
# with no error.  A keyword-only parameter is always passed by name, which
# ``_arg`` reads once the call has no more positional arguments than the
# position.
KEYWORD_ONLY = inspect.Parameter.KEYWORD_ONLY
POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD
ARGUMENTS_READ = [
    ("evaluator.best_decomposition", 3, "index_cap", KEYWORD_ONLY),
    ("serialize.load_table", 0, "path", POSITIONAL),
    ("serialize.save_table", 1, "path", POSITIONAL),
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_wrapper():
    tracer_module = load_tracer()
    targets = tracer_module.SPAN_TARGETS + tracer_module.HOT_TARGETS
    originals = {}
    for target in targets:
        module_name, func_name = target.rsplit(".", 1)
        originals[target] = getattr(sys.modules[f"monothetic.{module_name}"], func_name)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for target in targets:
            module_name, func_name = target.rsplit(".", 1)
            bound = getattr(sys.modules[f"monothetic.{module_name}"], func_name)
            assert bound.__wrapped__ is originals[target], target
    finally:
        tracer.uninstall()
    for target in targets:
        module_name, func_name = target.rsplit(".", 1)
        assert getattr(sys.modules[f"monothetic.{module_name}"], func_name) is originals[target]


@pytest.mark.parametrize("target, position, name, kind", ARGUMENTS_READ,
                         ids=[f"{t}-{p}-{n}" for t, p, n, _ in ARGUMENTS_READ])
def test_arguments_read_by_position_keep_their_place(target, position, name, kind):
    assert f'_arg(args, kwargs, {position}, "{name}")' in TRACER.read_text()
    module_name, func_name = target.rsplit(".", 1)
    func = getattr(sys.modules[f"monothetic.{module_name}"], func_name)
    parameters = inspect.signature(func).parameters
    assert parameters[name].kind is kind
    if kind is KEYWORD_ONLY:
        assert sum(p.kind is not KEYWORD_ONLY for p in parameters.values()) <= position
    else:
        assert list(parameters)[position] == name

"""The package's public surface: how many values a caller can set, and that
every public name is used by the package itself."""

import collections
import importlib
import inspect
import pkgutil
import tokenize
from pathlib import Path

import hslag

# Parameters with defaults over the public API; lower it when an option goes,
# and raise it only with an option two callers need.
_SETTABLE_VALUES = 40

# Public names that no code in src/hslag references, each kept for a caller
# outside it
_UNREFERENCED = {
    "reduction.gradient_K": "a layer perfbench/probe.py times",
    "reduction.variation_potential": "a layer perfbench/probe.py times",
    "operators.eigensolve": "a layer perfbench/probe.py times",
    "fieldio.load_field": "the reader of save_field's files",
    "cli.main": "the hslag console script of pyproject.toml",
}


def _public_api():
    """(module.name, object) for every callable `__all__` name of the
    package, and (module.Class.method, function) for the public methods of
    those classes."""
    for info in pkgutil.iter_modules(hslag.__path__):
        module = importlib.import_module(f"hslag.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for key, member in vars(obj).items():
                    if not key.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{key}", member


def _settable_values() -> dict:
    """{qualified name: count} of parameters with defaults over `_public_api`:
    a function's own, a class's constructor's (for a dataclass, its init
    fields with defaults) and a method's."""
    counts = {}
    for name, obj in _public_api():
        count = sum(
            parameter.default is not inspect.Parameter.empty
            for parameter in inspect.signature(obj).parameters.values()
        )
        if count:
            counts[name] = count
    return counts


def _source_references() -> collections.Counter:
    """How often each name occurs in the code of src/hslag: name tokens, so
    strings and comments do not count, and the name that a `def` or `class`
    line defines does not either."""
    counts = collections.Counter()
    for path in sorted(Path(hslag.__file__).parent.glob("*.py")):
        with open(path) as source:
            previous = None
            for token in tokenize.generate_tokens(source.readline):
                if token.type == tokenize.NAME and previous not in ("def", "class"):
                    counts[token.string] += 1
                previous = token.string
    return counts


def test_public_settable_values_do_not_grow():
    counts = _settable_values()
    total = sum(counts.values())
    assert total <= _SETTABLE_VALUES, (
        f"{total} public settable values, above {_SETTABLE_VALUES}: {sorted(counts.items())}"
    )


def test_every_public_name_has_a_caller_in_the_package():
    """A public callable or method that only tests call belongs with the
    test oracles; one that nothing calls goes."""
    references = _source_references()
    unused = [
        name
        for name, _ in _public_api()
        if references[name.rsplit(".", 1)[-1]] == 0 and name not in _UNREFERENCED
    ]
    assert unused == []

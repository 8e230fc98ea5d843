"""The package's public surface: how many values a caller can set."""

import importlib
import inspect
import pkgutil

import hslag

# Parameters with defaults over the public API; lower it when an option goes,
# and raise it only with an option two callers need.
_SETTABLE_VALUES = 42


def _settable_values() -> dict:
    """{qualified name: count} of parameters with defaults in every callable
    `__all__` name of the package: a function's own, and a class's
    constructor's (for a dataclass, its init fields with defaults) and public
    methods'."""
    counts = {}
    for info in pkgutil.iter_modules(hslag.__path__):
        module = importlib.import_module(f"hslag.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            targets = [obj]
            if inspect.isclass(obj):
                targets += [
                    member
                    for key, member in vars(obj).items()
                    if not key.startswith("_") and inspect.isfunction(member)
                ]
            count = sum(
                parameter.default is not inspect.Parameter.empty
                for target in targets
                for parameter in inspect.signature(target).parameters.values()
            )
            if count:
                counts[f"{obj.__module__}.{obj.__qualname__}"] = count
    return counts


def test_public_settable_values_do_not_grow():
    counts = _settable_values()
    total = sum(counts.values())
    assert total <= _SETTABLE_VALUES, (
        f"{total} public settable values, above {_SETTABLE_VALUES}: {sorted(counts.items())}"
    )

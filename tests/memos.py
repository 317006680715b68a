"""Every module-level ``lru_cache`` of the package, found by scanning its
modules for ``cache_info``, so that a new memo is cleared and bound-checked
without being listed by hand."""

import importlib
import pkgutil

import pianocat

# The one memo kept to another bound: the reference fan, one per n.
FAN_MEMO, FAN_MEMO_SIZE = "generators.fan_generator", 64


def package_memos() -> dict:
    """``module.name`` -> memo, for every memo defined in a ``pianocat`` module."""
    memos = {}
    for info in pkgutil.iter_modules(pianocat.__path__):
        module = importlib.import_module(f"pianocat.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                memos[f"{info.name}.{name}"] = value
    return memos

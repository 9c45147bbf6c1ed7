"""Bundled task implementations.

Every module here whose name does not start with ``_`` is one task;
importing the package registers each with the framework registry.
"""

from importlib import import_module
from pkgutil import iter_modules

from ..framework import register

for _info in iter_modules(__path__):
    if not _info.name.startswith("_"):
        register(import_module(f"{__name__}.{_info.name}"))

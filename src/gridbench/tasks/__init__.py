"""Bundled task implementations.

Every module here whose name does not start with ``_`` is one task;
importing the package registers each with the framework registry.
"""

import os
from importlib import import_module, resources

from ..framework import TaskGenerator, register

_files = [entry.name for entry in resources.files(__name__).iterdir()]
for _name, _ext in sorted(map(os.path.splitext, _files)):
    if _ext == ".py" and _name.isidentifier() and not _name.startswith("_"):
        _task = import_module(f"{__name__}.{_name}")
        _validate = getattr(_task, "validate", None)
        register(TaskGenerator.from_callables(_task.TASK_ID, _task.generate, _task.verify, _validate))

"""Import of a module deferred until its first attribute is read."""

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name``, whose code runs when an attribute is first read.

    A module already in ``sys.modules`` is returned as it is.  Otherwise
    the module is found now, so a missing one raises
    ``ModuleNotFoundError`` here, and a placeholder is registered under
    ``name``; any attribute read, or a later ``import name`` anywhere,
    loads the module into that placeholder.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module

"""Wrap functions and methods of the ``repro`` package in place.

The benchmark never edits the program's source: it replaces attributes
at run time, inside the child process that runs one ``repro`` command.

``wrap_function`` replaces a module-level function everywhere it is
bound -- the defining module and every ``repro`` module that did
``from X import f`` -- so callers that hold their own reference see the
wrapper too.  ``wrap_method`` replaces a class attribute (plain method,
``classmethod`` or ``property`` getter) on the defining class.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

Wrapper = Callable[[Callable], Callable]


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def wrap_function(module_name: str, name: str, make: Wrapper) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, name)
    wrapper = make(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapper)


def wrap_method(module_name: str, qualname: str, make: Wrapper) -> None:
    _, cls, name = _resolve(module_name, qualname)
    original = cls.__dict__[name]
    if isinstance(original, property):
        replacement = property(
            make(original.fget), original.fset, original.fdel, original.__doc__
        )
    elif isinstance(original, classmethod):
        replacement = classmethod(make(original.__func__))
    else:
        replacement = make(original)
    setattr(cls, name, replacement)


def wrap(module_name: str, qualname: str, make: Wrapper) -> None:
    """``wrap_method`` for ``Class.attr`` names, else ``wrap_function``."""
    if "." in qualname:
        wrap_method(module_name, qualname, make)
    else:
        wrap_function(module_name, qualname, make)

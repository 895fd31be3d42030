"""`counting_calls`: how the tests count the calls a route makes.

The cost pins of the suite (Smith forms, Čech complexes, restrictions,
summands, posets and sheaves per run, complexes per open set) all count
through it, so each pin states only what it patches and what it expects.
"""

import inspect


def counting_calls(monkeypatch, owner, name):
    """Patch `owner.name`, a module function or a method of a class, to
    record every call, and return the growing list of records: per call,
    its arguments by parameter name, `self` included for a method.  The
    original runs unchanged and its result is returned."""
    original = getattr(owner, name)
    signature = inspect.signature(original)
    calls = []

    def counting(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls

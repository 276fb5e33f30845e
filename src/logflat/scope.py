"""The run scope: one memo of exact results, alive while a document runs.

``cli.run_document`` enters ``run_scope()`` once, around building the
workspace and running the tasks.  Inside it, ``polyalg.buchberger`` returns
the stored reduced basis for an input it has already computed, and
``abgrp.smith_normal_form`` the stored (U, D, V, W) for an equal matrix.
Both results are canonical for their input, so a hit returns what a fresh
computation would.  Outside every scope ``memo()`` is None and nothing is
stored; a library caller gets the same results either way, and may enter
``run_scope()`` itself to share work between calls.

The memo is held in a context variable, so it ends with its scope (also
when the scope is left by an exception) and no entry outlives it.  A nested
scope starts empty and gives the outer memo back when it ends.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

_MEMO = contextvars.ContextVar("logflat_run_memo", default=None)


@contextmanager
def run_scope():
    """Memoize Groebner bases and Smith forms until the block ends."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memo():
    """The dict of the innermost run scope, or None outside every scope."""
    return _MEMO.get()

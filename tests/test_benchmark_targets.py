"""Every callable the end-to-end benchmark wraps still exists under ``src/``.

``benchmarks/e2e/layers.py`` times the layers from outside by patching the
``module:callable`` names in its ``TARGETS`` table; a rename under ``src/``
would otherwise surface only when the benchmark runs.  Read-only use of
that file: it is loaded by path and nothing is patched.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [target for targets in module.TARGETS.values() for target in targets]


def test_every_traced_target_resolves():
    targets = _targets()
    assert len(targets) > 50
    missing = []
    for target in targets:
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        # The tracer patches the defining namespace itself, so an attribute
        # that is merely inherited does not count.
        if owner is None or not callable(_unwrap(vars(owner).get(attr))):
            missing.append(target)
    assert not missing


def _unwrap(attribute):
    return getattr(attribute, "__func__", attribute)


def _layers():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sized_targets_take_the_batch_first():
    """``index.query.windows_per_call`` is ``len()`` of the first argument after ``self``.

    The tracer sizes the spans of its ``_SIZED_LAYERS`` that way, so every
    such target must keep the window / point array first -- an optional
    argument such as ``roots`` goes after it -- and answer one row per
    element of it.
    """
    layers = _layers()
    batch = np.array([[0.0, 0.0, 1.0, 1.0], [0.2, 0.2, 0.3, 0.3], [5.0, 5.0, 6.0, 6.0]])
    for layer in layers._SIZED_LAYERS:
        for target in layers.TARGETS[layer]:
            module_name, _, qualname = target.partition(":")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(importlib.import_module(module_name), owner_name)
            first = list(inspect.signature(getattr(owner, attr)).parameters)[1]
            assert first in ("wins", "pts"), target
            index = owner.from_mbr_array(batch)
            args = (batch,) if first == "wins" else (batch[:, :2], batch[:, 2])
            answer = getattr(index, attr)(*args)
            rows = answer[0].shape[0] - 1 if isinstance(answer, tuple) else len(answer)
            assert rows == len(args[0]), target

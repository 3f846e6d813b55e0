"""Every callable the end-to-end benchmark wraps still exists under ``src/``.

``benchmarks/e2e/layers.py`` times the layers from outside by patching the
``module:callable`` names in its ``TARGETS`` table; a rename under ``src/``
would otherwise surface only when the benchmark runs.  Read-only use of
that file: it is loaded by path and nothing is patched.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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

"""The traced benchmark wraps the boundaries named in ``bench/tracer.py``
``LAYERS``; each must stay where the tracer looks it up, or the traced run
breaks.  A method is read from its class's own ``__dict__``, so moving it
onto a base class counts as a move."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_boundary_is_defined_on_its_owner():
    missing = []
    for module_name, targets in load_layers().items():
        module = importlib.import_module(f"g2crystal.{module_name}")
        for qualname, _span in targets:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    missing.append(f"{module_name}.{qualname}")
            elif not callable(getattr(module, attr, None)):
                missing.append(f"{module_name}.{qualname}")
    assert missing == []

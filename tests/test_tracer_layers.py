"""The traced benchmark wraps the boundaries named in ``bench/tracer.py``
``LAYERS``; each must stay where the tracer looks it up, or the traced run
breaks.  A method is read from its class's own ``__dict__``, so a traced
name must be bound on its own class, not merely inherited there: a method
shared through a base class is bound again in each subclass, which keeps
one span name per realization."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import g2crystal

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


def test_installed_tracer_keeps_each_realization_apart():
    """Install the tracer for real and call the shared methods on one element
    of each count realization: every call lands in its own realization's spans."""
    script = textwrap.dedent(
        f"""
        import importlib.util, json
        import g2crystal.cli  # install needs every module that LAYERS names
        from g2crystal.graph import highest_element

        spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER)!r})
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        elems = [highest_element(name).f(1).f(2) for name in ("minf", "tableaux", "cliff")]
        tracer = module.Tracer()
        tracer.install()
        for elem in elems:
            elem.eps(1), elem.phi(2), elem.to_json(), elem.key()
        totals, _spans, _bfs_keys = tracer.span_totals()
        print(json.dumps({{name: calls for name, (calls, _ns) in totals.items()}}))
        """
    )
    src = str(Path(g2crystal.__file__).parents[1])  # the package under test
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout)
    for name in ("minf", "tableaux", "cliff"):
        # eps(1) is one span; phi(2) is three: phi, and the eps and wt it calls
        assert calls[f"{name}.structure"] == 4
        assert calls[f"{name}.to_json"] >= 1 and calls[f"{name}.key"] >= 1
    assert calls["minf.signature"] >= 1 and calls["tableaux.signature"] >= 1

"""The perfbench tracer finds and wraps every layer it times.

``perfbench/tracer.py`` wraps the public calls of each layer by name
(``LAYERS``: module, owning class or instance, attribute).  A refactor that
moves one of them, or stops ``import repro.campaigns`` from loading its
module, breaks every traced benchmark run; this test catches that in the
tier-1 suite.  The tracer imports only the standard library, so it is
loaded straight from its file.
"""

import importlib.util
import sys
from pathlib import Path

import repro.campaigns  # noqa: F401  (what Tracer.install imports)
from repro.scenarios import default_registry

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(layers):
    return [target for group in layers.values() for target in group]


def bound(module_name, owner, attribute):
    """What ``attribute`` is bound to on its holder (``None`` when unset):
    the module, the class's own ``__dict__``, or the instance's."""
    holder = sys.modules[module_name]
    if owner is not None:
        holder = getattr(holder, owner)
    return vars(holder).get(attribute)


def test_install_wraps_every_layer_and_uninstall_restores_it():
    tracer_module = load_tracer_module()
    layers = targets(tracer_module.LAYERS)
    originals = [bound(*target) for target in layers]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        replaced = [bound(*target) for target in layers]
        unwrapped = [
            target
            for target, before, after in zip(layers, originals, replaced)
            if after is None or after is before
        ]
        assert unwrapped == []
        default_registry().get("small_die_uniform").content_hash()
        assert "scenarios.content_hash" in {span.name for span in tracer.spans}
    finally:
        tracer.uninstall()
    restored = [bound(*target) for target in layers]
    assert all(after is before for before, after in zip(originals, restored))

"""The traced benchmark's wrap points resolve against the package.

``perfbench/layers.py`` patches the functions named in ``WRAP_POINTS`` by
``module:attribute`` path. A renamed function or a dropped name import would
otherwise only show when ``perfbench/run.py --trace 1`` starts patching. This
test resolves every path and patches nothing.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(site):
    module_name, attr_path = site.split(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_wrap_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    importlib.import_module("edgewalk.cli")
    missing, not_callable, diverging = [], [], []
    for name, sites, _ in layers.WRAP_POINTS:
        found = []
        for site in sites:
            try:
                target = resolve(site)
            except (ImportError, AttributeError):
                missing.append(site)
                continue
            if not callable(target):
                not_callable.append(site)
            found.append(target)
        # All call sites of one span must see the same function.
        if len({id(target) for target in found}) > 1:
            diverging.append(name)
    assert len(layers.WRAP_POINTS) > 0
    assert missing == [] and not_callable == [] and diverging == []

"""The package facades: each package imports a public name on first use.

``repro`` and its packages bind no submodule at import time; a name is
imported from the module that defines it when it is first looked up (PEP
562).  Nothing then checks a facade's name table at import, so these tests
do: every name in a package's ``__all__`` resolves, is the very object its
defining module holds, and is listed by ``dir()``; an unknown name raises
``AttributeError``.  ``QUERY_CLASSES`` is lazy the same way, and must
still map the ten kinds to their classes, in order.
"""

import importlib
import pkgutil
from collections.abc import Mapping, MutableMapping
from types import ModuleType

import pytest

FACADES = ("repro", "repro.core", "repro.monitor", "repro.traffic",
           "repro.fleet", "repro.serve", "repro.experiments", "repro.queries")

#: Public values a package defines itself rather than importing lazily.
OWN = {"repro": ("__version__",),
       "repro.queries": ("MERGE_EXACTNESS", "MERGE_EXACT_KINDS",
                         "QUERY_CLASSES")}

#: kind -> (defining module, class), in registry order.
QUERY_KINDS = (
    ("application", "repro.queries.application", "ApplicationQuery"),
    ("autofocus", "repro.queries.autofocus", "AutofocusQuery"),
    ("counter", "repro.queries.counter", "CounterQuery"),
    ("flows", "repro.queries.flows", "FlowsQuery"),
    ("high-watermark", "repro.queries.high_watermark", "HighWatermarkQuery"),
    ("p2p-detector", "repro.queries.p2p_detector", "P2PDetectorQuery"),
    ("pattern-search", "repro.queries.pattern_search", "PatternSearchQuery"),
    ("super-sources", "repro.queries.super_sources", "SuperSourcesQuery"),
    ("top-k", "repro.queries.top_k", "TopKQuery"),
    ("trace", "repro.queries.trace", "TraceQuery"),
)


def _submodules(package: ModuleType):
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
            if info.name != "__main__"]


@pytest.mark.parametrize("name", FACADES)
def test_every_public_name_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for public in package.__all__:
        value = getattr(package, public)
        assert public in listed, public
        if public in OWN.get(name, ()):
            assert public in vars(package), public
        elif isinstance(value, ModuleType):
            assert value.__name__ == f"{name}.{public}", public
        elif hasattr(value, "__qualname__"):
            home = importlib.import_module(value.__module__)
            assert home.__name__.startswith("repro."), public
            assert getattr(home, value.__name__) is value, public
        else:
            holders = [module.__name__ for module in _submodules(package)
                       if getattr(module, public, None) is value]
            assert holders, f"{public} is held by no module of {name}"


@pytest.mark.parametrize("name", FACADES)
def test_an_unknown_name_raises_attribute_error_naming_the_module(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError,
                       match=f"module '{name}' has no attribute 'no_such'"):
        package.no_such
    assert not hasattr(package, "no_such")


def test_query_classes_map_the_ten_kinds_to_their_classes_in_order():
    from repro.queries import QUERY_CLASSES
    assert isinstance(QUERY_CLASSES, Mapping)
    assert not isinstance(QUERY_CLASSES, MutableMapping)
    assert [(kind, cls.__module__, cls.__qualname__)
            for kind, cls in QUERY_CLASSES.items()] == list(QUERY_KINDS)
    assert len(QUERY_CLASSES) == 10
    assert "bogus" not in QUERY_CLASSES
    with pytest.raises(KeyError):
        QUERY_CLASSES["bogus"]
    with pytest.raises(TypeError):
        QUERY_CLASSES["bogus"] = object

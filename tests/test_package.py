import importlib

import pytest

import flatm

MODULES = [
    "flatm",
    "flatm.corpus",
    "flatm.weighting",
    "flatm.fcm",
    "flatm.model",
    "flatm.evaluation",
    "flatm.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_each_library_name_once():
    # A name in two modules' lists would let one star import shadow the other.
    assert len(flatm.__all__) == len(set(flatm.__all__))
    exported = {"__version__"}
    for name in MODULES[1:-1]:
        module = importlib.import_module(name)
        exported.update(module.__all__)
        for attr in module.__all__:
            assert getattr(flatm, attr) is getattr(module, attr), (name, attr)
    assert set(flatm.__all__) == exported

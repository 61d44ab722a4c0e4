import importlib

import pytest

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

import ast
import importlib
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent

# Public names that only tests call, each kept for its reason.
ONLY_TESTS_CALL = {
    "tokenize": "the documented tokenizer; the reference for build_matrix's "
    "token totals",
    "update_memberships": "one FCM membership update, checked by acceptance "
    "test_02 (c)",
    "model_to_json": "the model file as text, checked by acceptance test_10",
}


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = sorted((ROOT / "src" / "flatm").glob("*.py"))
    sources = [p for p in sources if p.name != "__init__.py"]
    sources += sorted((ROOT / "pipebench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    allowed = set(ONLY_TESTS_CALL)
    assert sorted(set(flatm.__all__) - used - allowed) == []
    # A name that gains a caller leaves the list.
    assert sorted(allowed & used) == []

"""The mutation list (tests/mutations.py) cannot rot silently: every
mutation's old text occurs exactly once in its file, and every test it
expects to catch it exists, as an attribute of its imported test module
(not run here)."""

import importlib
import os

import pytest

from mutations import MUTATIONS, REPO


@pytest.mark.parametrize("mutation", MUTATIONS,
                         ids=[f"{i}-{m[0]}" for i, m in enumerate(MUTATIONS, start=1)])
def test_old_text_occurs_once_and_expected_tests_exist(mutation):
    name, old, new, tests, _ = mutation
    with open(os.path.join(REPO, "src", "mpdp", name), encoding="utf-8") as fh:
        assert fh.read().count(old) == 1
    assert old != new and tests
    for test in tests:
        path, *names = test.split("::")
        assert os.path.isfile(os.path.join(REPO, path))
        target = importlib.import_module(os.path.splitext(os.path.basename(path))[0])
        for name in names:  # a class, then a test, without a parametrize suffix
            target = getattr(target, name.split("[")[0])

"""The package's public surface is one list: ``blocksynth.__all__``."""

import types

import blocksynth


def test_every_exported_name_resolves_once():
    names = blocksynth.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(blocksynth, name), name


def test_every_public_binding_is_exported():
    # The import list and ``__all__`` cannot drift apart: every public,
    # non-module name bound in the package is exported, and nothing else.
    bound = {
        name
        for name, value in vars(blocksynth).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == set(blocksynth.__all__)

"""The package's public names."""

import graphtv


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is deleted fails here
    missing = [name for name in graphtv.__all__ if not hasattr(graphtv, name)]
    assert missing == []
    assert len(set(graphtv.__all__)) == len(graphtv.__all__)


def test_star_import():
    namespace = {}
    exec("from graphtv import *", namespace)
    assert set(graphtv.__all__) <= set(namespace)

"""The package's public surface."""

import storygraph


def test_every_export_resolves():
    missing = [name for name in storygraph.__all__ if not hasattr(storygraph, name)]
    assert missing == []

"""The package's public names all exist."""

import pqpoly


def test_every_exported_name_resolves():
    missing = [name for name in pqpoly.__all__ if not hasattr(pqpoly, name)]
    assert missing == []

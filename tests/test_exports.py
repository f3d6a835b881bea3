"""The package's public names."""

import fieldlab


def test_every_exported_name_resolves():
    missing = [name for name in fieldlab.__all__ if not hasattr(fieldlab, name)]
    assert not missing
    assert len(set(fieldlab.__all__)) == len(fieldlab.__all__)

"""The package's public names."""

import coopdetect


def test_every_exported_name_resolves():
    missing = [name for name in coopdetect.__all__ if not hasattr(coopdetect, name)]
    assert not missing
    assert len(set(coopdetect.__all__)) == len(coopdetect.__all__)

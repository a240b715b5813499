"""The package's public names."""

import fuzzyface


def test_every_public_name_resolves():
    for name in fuzzyface.__all__:
        assert hasattr(fuzzyface, name), name


def test_reference_entropy_is_not_public():
    # tests/conftest.py keeps the n-value entropy as feature_membership's reference
    for name in ("shannon_entropy", "eval_membership"):
        assert name not in fuzzyface.__all__
        assert not hasattr(fuzzyface, name)

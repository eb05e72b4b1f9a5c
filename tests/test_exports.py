"""The package's lazy public namespace."""

import rgg_spectra


def test_every_exported_name_resolves():
    for name in rgg_spectra.__all__:
        assert getattr(rgg_spectra, name) is not None, name

"""The exception hierarchy is part of the public API — verify it."""

import pytest

from repro.netbase import errors


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in errors.__all__:
            exc_class = getattr(errors, name)
            assert issubclass(exc_class, errors.ReproError)

    def test_codec_family(self):
        assert issubclass(errors.TruncatedMessage, errors.CodecError)
        assert issubclass(errors.MalformedMessage, errors.CodecError)
        assert issubclass(errors.UnsupportedFeature, errors.CodecError)
        assert issubclass(errors.CodecError, ValueError)

    def test_controller_family(self):
        assert issubclass(errors.StaleInputError, errors.ControllerError)
        assert issubclass(errors.InjectionError, errors.ControllerError)

    def test_address_error_is_value_error(self):
        assert issubclass(errors.AddressError, ValueError)

    def test_one_catch_all_at_api_boundary(self):
        with pytest.raises(errors.ReproError):
            raise errors.StaleInputError("boom")
        with pytest.raises(errors.ReproError):
            raise errors.TruncatedMessage("boom")

"""The exception taxonomy: one family per CLI exit code."""

import inspect

from headlab import errors
from headlab.errors import HeadLabError, InvalidInput, RunFailure


def test_every_error_belongs_to_exactly_one_family():
    families = (InvalidInput, RunFailure)
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, HeadLabError)
               and cls not in (HeadLabError, *families)]
    assert classes
    for cls in classes:
        assert sum(issubclass(cls, family) for family in families) == 1, cls

"""Deliberately bad module for EXP003: public definitions and no ``__all__``.

Never imported — parsed only.  ``tests/analysis/test_linter.py`` asserts
the exact finding count against this file.
"""


def exported_by_accident():  # EXP003
    return 1


class AlsoPublic:
    pass

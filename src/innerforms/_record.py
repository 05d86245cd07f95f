"""Frozen records without ``dataclasses``: fields are the class annotations, in
order, and defaults the class attributes, as for a frozen dataclass."""

from operator import attrgetter

_setattr = object.__setattr__
_MISSING = object()


class FrozenRecordError(AttributeError):
    """A record's attribute was assigned or deleted."""


class Record:
    """``__init__`` then ``__post_init__``, frozen attributes, field-wise
    ``__eq__``/``__hash__`` and the dataclass repr ``Name(field=value, ...)``."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__annotations__)
        cls._defaults = tuple(cls.__dict__.get(f, _MISSING) for f in fields)
        cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # the fields after the positional ones: by keyword, else by default
            rest = self._defaults[len(args):]
            if kwargs:
                rest = tuple(map(kwargs.pop, fields[len(args):], rest))
            if kwargs or len(args) > len(fields) or _MISSING in rest:
                raise TypeError(f"{type(self).__name__}() takes each of {fields} once, "
                                f"all but the defaulted ones")
            args += rest
        for name, value in zip(fields, args):  # keeps the instance's compact layout
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Validation and normalization; fields are rebound with ``object.__setattr__``."""

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

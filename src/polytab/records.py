"""Plain record classes for the package's value types.

Each record class writes its own `__init__`; the bases give it ==, the hash,
pickling and repr.  Nothing here generates code at import, which is what
`dataclasses` costs every process that imports the package.
"""


class Record:
    """A mutable record: its fields live in the instance dict.  Two records
    are equal when they are of the same class and have equal attributes
    (the fields, unless an attribute was added later).  Unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            f"{name}={value!r}" for name, value in vars(self).items()))


class Frozen:
    """An immutable record.  A subclass names its fields in `_fields`, in
    constructor order, and declares `__slots__ = ()`.

    The one slot is `_key`: the tuple of all fields, or, for a one-field
    record, the field itself.  `__init__` stores it once, with `set_key`,
    which skips `__setattr__`.  Each field is a read-only view of `_key`:
    the slot itself for a one-field record, else a property reading its
    index.  == and the hash read `_key` alone, so they build no tuple.
    """

    __slots__ = ("_key",)
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls._fields) == 1:
            setattr(cls, cls._fields[0], Frozen._key)
        else:
            for i, name in enumerate(cls._fields):
                setattr(cls, name, property(lambda self, i=i: self._key[i]))

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __reduce__(self):
        # slot state would be restored through __setattr__, so rebuild
        return (self.__class__,
                tuple(getattr(self, name) for name in self._fields))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))


set_key = Frozen._key.__set__

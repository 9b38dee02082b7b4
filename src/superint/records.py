"""Read-only records made without generated code.

A frozen dataclass execs about six generated functions when its class is
made, about 1.1 ms a class on a 2-vCPU VM with Python 3.11, and every cold
`superint` run imports 18 records.  A `Record` is a plain class instead:
it lists its fields as `__slots__` and sets each once in a written-out
`__init__` with `setfield`, as a frozen dataclass's generated `__init__`
does, and this base gives it the dataclass's `==`, hash and repr over
those fields.
"""

# Sets a field of a Record from its __init__; the record's own __setattr__ refuses.
setfield = object.__setattr__


class Record:
    """A record whose fields are its class's `__slots__`, set once in
    `__init__`; assigning or deleting one later raises AttributeError.

    `==` (between records of one class), hash and repr read the fields in
    slot order, less those the class names in `hidden`.  A `__dict__` slot,
    which a cached_property needs, is not a field.
    """

    __slots__ = ()
    hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__" and f not in cls.hidden)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

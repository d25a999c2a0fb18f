"""Immutable value records: the one base of the package's value types.

A subclass of :class:`Record` declares its fields as class annotations, in
MRO order.  They are read as names only and never evaluated (every module of
the package uses ``from __future__ import annotations``).  A class attribute
of the same name is the field's default.  A record

* takes its fields positionally or by name, then calls ``__post_init__``
  when its class defines one;
* refuses assignment and deletion with :class:`AttributeError`;
* compares and hashes by its field values, identity first;
* prints as ``Name(field=value, ...)``;
* keeps an instance ``__dict__``, so :func:`functools.cached_property` and
  per-instance memos work on it.

A class may define its own ``__init__`` and store its fields with
``object.__setattr__``.  :meth:`Record.replace` builds the copy through
``__init__``, so the class's validation runs again.  It therefore rebuilds
only records whose ``__init__`` takes their fields, as the default one and
``LatticeBasis`` do.  The six classes whose ``__init__`` takes other
arguments (``ConeSpec``, ``ThreefoldForm``, ``SurfaceForm``,
``RestrictionMap``, ``CurvePairing``, ``LinearAction``) raise
:class:`TypeError` or :class:`ValueError` from it instead.

The package does not use ``dataclasses``: importing it (with ``inspect``,
``ast`` and ``dis``) and generating each class's methods took most of the
time of ``import divstab.cli``, which every command pays.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    """An immutable value type whose fields are its class annotations."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names: dict[str, None] = {}
        for klass in reversed(cls.__mro__):
            names.update(dict.fromkeys(vars(klass).get("__annotations__", ())))
        fields = tuple(names)
        cls._fields = fields
        cls._field_set = frozenset(fields)
        cls._defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}
        # the field values, compared by __eq__ and hashed by __hash__
        cls._key = attrgetter(*fields)
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            pairs = zip(fields, args)
        elif not args and kwargs.keys() == self._field_set:
            pairs = kwargs.items()
        else:
            pairs = zip(fields, self._bind(args, kwargs))
        # one store per field, as a frozen dataclass does: reading self.__dict__
        # would give each record a dict of its own, twice the size, from which
        # CPython 3.11 reads a field about four times slower
        for name, value in pairs:
            _set(self, name, value)
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order, from arguments as a signature binds them."""
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        unknown, twice = kwargs.keys() - cls._field_set, kwargs.keys() & fields[:len(args)]
        if unknown:
            raise TypeError(f"{name}() got an unexpected keyword argument {min(unknown)!r}")
        if twice:
            raise TypeError(f"{name}() got multiple values for argument {min(twice)!r}")
        values = {**cls._defaults, **kwargs}
        rest = fields[len(args):]
        missing = [f for f in rest if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            f"{', '.join(map(repr, missing))}")
        return [*args, *map(values.__getitem__, rest)]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and validated by ``__init__``,
        which must take the record's fields (see the module docstring)."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

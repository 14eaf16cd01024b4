"""Frozen records: the immutable value classes of the library.

A subclass of ``Record`` lists its fields as class annotations, in
order, and gives a default as a class attribute.  The base generates
what ``@dataclass(frozen=True)`` generated before:

* ``__init__`` taking the fields positionally or by keyword, with
  ``TypeError`` for a missing, unknown, extra or repeated argument,
  then running ``__post_init__`` when the class defines one;
* ``__eq__``, true only between records of one class with equal
  fields, and ``__hash__``, the hash of the tuple of fields;
* the repr ``Name(field=value, ...)``;
* ``__setattr__`` and ``__delattr__``, which raise ``AttributeError``.

A ``__post_init__`` that normalizes a field rewrites it with
``object.__setattr__``.  Copying and pickling restore ``__dict__``
without calling ``__init__``, as for a dataclass.

Why not ``dataclasses``: every CLI command is one process, and most of
its time is start-up.  ``import dataclasses`` loads ``inspect``, ``ast``
and ``dis``, and the decorator compiles about six methods per class with
``exec``.  On a shared 2-vCPU host (Python 3.11, bytecode warm, median
of 60 fresh processes, a bare interpreter start being about 78 ms),
``import torsiontraj.cli`` took 51 ms with ``dataclasses``, 13 ms of it
in ``import dataclasses`` alone, and takes 17.5 ms with this base.
"""


class Record:
    def __init_subclass__(cls):
        # Since Python 3.10 a class's __annotations__ are its own, never a base's.
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                problem = "multiple values for" if name in values else "an unexpected keyword"
                raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
            values[name] = value
        d = self.__dict__
        for name in fields:
            if name in values:
                d[name] = values[name]
            elif name in cls._defaults:
                d[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        d = self.__dict__
        return hash(tuple([d[f] for f in self._fields]))

    def __repr__(self):
        d = self.__dict__
        body = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

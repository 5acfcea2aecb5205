"""Immutable records: tuple subclasses with named fields.

``collections.namedtuple`` compiles a ``__new__`` from generated source
for every class it makes.  A record names its fields in the class
statement instead, ``class Point(Record, fields="x y")``, and
``Record.__init_subclass__`` builds the rest without generating source:

- ``__new__`` is the shared template of the record's arity below, with its
  parameters renamed to the fields, so the constructor takes exactly one
  argument per field, by position or by name, and a wrong count raises
  namedtuple's ``TypeError``;
- each field is read through ``_collections._tuplegetter``, the C-level
  accessor namedtuple uses, and ``_fields`` lists the names.

``_replace``, ``__getnewargs__`` (for ``pickle`` and ``copy``) and the
``Point(x=1, y=2)`` repr are methods of ``Record`` itself.  Records
compare and hash as plain tuples of their fields, and a subclass that
keeps ``__slots__ = ()`` has no ``__dict__``.  A subclass that defines
its own ``__new__`` keeps it.
"""

from _collections import _tuplegetter
from types import FunctionType

_tuple_new = tuple.__new__


def _new0(_cls):
    return _tuple_new(_cls, ())


def _new1(_cls, a):
    return _tuple_new(_cls, (a,))


def _new2(_cls, a, b):
    return _tuple_new(_cls, (a, b))


def _new3(_cls, a, b, c):
    return _tuple_new(_cls, (a, b, c))


def _new4(_cls, a, b, c, d):
    return _tuple_new(_cls, (a, b, c, d))


def _new5(_cls, a, b, c, d, e):
    return _tuple_new(_cls, (a, b, c, d, e))


def _new6(_cls, a, b, c, d, e, f):
    return _tuple_new(_cls, (a, b, c, d, e, f))


_NEW = (_new0, _new1, _new2, _new3, _new4, _new5, _new6)

_field_repr = "{}={!r}".format


class Record(tuple):
    """Base of the package's value types; see the module docstring."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, fields=None, **kwargs):
        super().__init_subclass__(**kwargs)
        if fields is None:
            return
        names = tuple(fields.split())
        cls._fields = names
        for i, name in enumerate(names):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))
        if "__new__" not in cls.__dict__:
            template = _NEW[len(names)]
            code = template.__code__.replace(co_name="__new__", co_varnames=("_cls",) + names)
            new = FunctionType(code, template.__globals__, "__new__")
            new.__qualname__ = f"{cls.__qualname__}.__new__"
            cls.__new__ = staticmethod(new)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(_field_repr, self._fields, self))})"

    def __getnewargs__(self):
        return tuple(self)

    def _replace(self, /, **changes):
        """A copy with the named fields replaced."""
        result = type(self)(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return result

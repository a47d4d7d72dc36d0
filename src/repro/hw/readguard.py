"""Restricted cost tables: the seam behind the per-cell read-set guard.

:func:`restrict` turns one freshly built ``ArmCosts``/``X86Costs``
instance into a view that answers only the fields of a read set at full
speed and hands every other read to a callback.  The callback decides
what such a read means: :mod:`repro.hw.costs` raises (the field guard)
or records the field (the read-set generator), so one mechanism serves
both.

* **Plain fields.**  The instance's class is swapped for a cached
  subclass that holds a ``property`` for each field outside the read
  set.  An allowed field has no descriptor there, so reading it is the
  same instance-dict lookup as on the plain class.
* **Register-class tables** (``save``/``restore``, paper Table III).
  Each becomes a :class:`RegClassTable`: a ``dict`` holding only the
  allowed classes, so a lookup of one of them is the plain ``dict``
  lookup.  A withheld class goes to the callback through
  ``__missing__``; ``values()``/``items()`` go to it for every withheld
  class, so a whole-table sum such as ``full_save_cycles()`` cannot
  skip one unseen.

A read-set entry names a plain field as itself (``trap_to_el2``) and
one register class as ``<table>.<CLASS>`` (``save.VGIC``).
"""

import dataclasses
import functools


class RegClassTable(dict):
    """A RegClass-keyed cost table that holds only its allowed classes.

    Membership, length and key order are those of the complete table;
    only reading a withheld class's value goes through ``on_read(field,
    value)``, whose return value is the result.
    """

    def __init__(self, name, complete, allowed, on_read):
        super().__init__(
            (reg_class, value)
            for reg_class, value in complete.items()
            if "%s.%s" % (name, reg_class.name) in allowed
        )
        self.name = name
        self.complete = complete
        self.on_read = on_read

    def __missing__(self, reg_class):
        value = self.complete[reg_class]  # KeyError for a foreign key
        return self.on_read("%s.%s" % (self.name, reg_class.name), value)

    def get(self, reg_class, default=None):
        return self[reg_class] if reg_class in self.complete else default

    def __contains__(self, reg_class):
        return reg_class in self.complete

    def __iter__(self):
        return iter(self.complete)

    def __len__(self):
        return len(self.complete)

    def keys(self):
        return self.complete.keys()

    def values(self):
        return [self[reg_class] for reg_class in self.complete]

    def items(self):
        return [(reg_class, self[reg_class]) for reg_class in self.complete]


def _withheld_property(name, on_read):
    def read(instance):
        return on_read(name, instance.__dict__[name])

    return property(read)


@functools.cache
def _subclass(cls, withheld, on_read):
    """The restricted subclass of ``cls`` for one withheld-field set."""
    namespace = {name: _withheld_property(name, on_read) for name in withheld}
    return type(cls.__name__, (cls,), namespace)


def restrict(instance, allowed, on_read):
    """Restrict a cost-table instance to the fields in ``allowed``.

    Every read outside ``allowed`` returns ``on_read(field, value)``.
    The instance is changed in place (overrides must be applied first)
    and returned.
    """
    withheld = []
    for field in dataclasses.fields(instance):
        value = instance.__dict__[field.name]
        if isinstance(value, dict):
            instance.__dict__[field.name] = RegClassTable(
                field.name, value, allowed, on_read
            )
        elif field.name not in allowed:
            withheld.append(field.name)
    instance.__class__ = _subclass(type(instance), frozenset(withheld), on_read)
    return instance

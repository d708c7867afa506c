"""The base of the library's result types: small immutable value records.

A record class declares its fields once, in ``__slots__``, and `Record`
compiles its ``__init__`` from them: that builds as fast as a frozen
dataclass and keeps ``dataclasses`` (and the ``inspect``, ``ast`` and
``dis`` it pulls in) out of the import of every command.  Equality reads
the fields through ``attrgetter``, about 0.1 us slower per comparison than
the ``__eq__`` a dataclass compiles for its class; compiling one per class
too would cost more start-up than the comparisons a command makes save.
"""

from operator import attrgetter


class Record:
    """An immutable record whose fields are its class's ``__slots__``.

    A subclass lists its fields in ``__slots__`` in the order its
    ``__init__`` takes them, and gives defaults for the last ones as the
    tuple ``_defaults``.  A slot whose name starts with ``_`` is not a
    field but a cache: ``__init__`` sets it to a new empty dict.
    Two records are equal when they are of one class with equal fields.
    A record hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)``, pickles and copies by its fields (a copy
    starts with empty caches), and refuses assignment and deletion.
    """

    __slots__ = ()
    _defaults = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._names = names = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*names)
        # the fields as a tuple, read in C; attrgetter of one name returns the bare value.
        # Read from the class, where neither form binds to an instance.
        cls._fields = get if len(names) > 1 else lambda record: (get(record),)
        # one line per slot: a loop over *args and **kwargs builds 2-3 times slower
        body = "".join("\n    _set(self, %r, %s)" % (s, s if s in names else "{}") for s in cls.__slots__)
        scope = {"_set": object.__setattr__, "__name__": cls.__module__}
        exec("def __init__(self, %s):%s" % (", ".join(names), body), scope)
        cls.__init__ = init = scope["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = "%s.__init__" % cls.__qualname__  # names the class in a TypeError

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            fields = cls._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._fields(self))

    def __repr__(self):
        cls = self.__class__
        fields = ", ".join("%s=%r" % pair for pair in zip(cls._names, cls._fields(self)))
        return "%s(%s)" % (cls.__qualname__, fields)

    def __reduce__(self):
        return self.__class__, self.__class__._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

"""The package's one immutable-value idiom."""


class Immutable:
    """Slotted base for immutable values: a subclass fills its __slots__ once,
    in __init__, with object.__setattr__; afterwards assigning or deleting
    any attribute raises AttributeError.  A slot holds no mutable container:
    a sequence is a tuple, a mapping a types.MappingProxyType over a dict no
    one else holds.  A private slot may hold a cache of values derived from
    the others, filled on first use: it changes no value the object shows."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

"""Value classes built as `dataclasses.dataclass` would build them, at a
fraction of the start-up cost: no `inspect` import, and one `exec` per
class for its `__init__` (which ends with `__post_init__`, if the class
has one), `__eq__` and `__hash__`.  Fields are the annotations, in order,
with a class-attribute default or a `factory`."""


class factory:
    """A default made afresh per instance by `make()`.  With init=False the
    field is no `__init__` argument and is not compared, hashed or shown."""

    def __init__(self, make, init=True):
        self.make, self.init = make, init


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _repr(self):
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__record_compared__)
    return f"{self.__class__.__qualname__}({shown})"


def record(*, frozen=False):
    """The class as `dataclass(frozen=frozen)` builds it, keeping its own
    `__repr__`; a base class, or its own copy of a method made here, is refused."""
    def build(cls):
        own = cls.__dict__
        made = {"__init__", "__eq__", "__hash__", "__setattr__", "__delattr__"} & own.keys()
        if made or cls.__bases__ != (object,):
            raise TypeError(f"record {cls.__name__}: a base class or its own {made}")
        dflt = {f"_d_{n}": own[n] for n in cls.__annotations__ if n in own}
        params, body, compared = [], [], []
        for n in cls.__annotations__:
            value, d = n, own.get(n)
            if isinstance(d, factory):
                value = f"_d_{n}.make()" + (f" if {n} is _d_{n} else {n}" if d.init else "")
            if not isinstance(d, factory) or d.init:
                params.append(f"{n}=_d_{n}" if n in own else n)
                compared.append(n)
            body.append(f"_set(self, {n!r}, {value})" if frozen else f"self.{n} = {value}")
        body += ["self.__post_init__()"] if "__post_init__" in own else []
        this, other = (f"({''.join(f'{o}.{n},' for n in compared)})" for o in ("self", "other"))
        exec("\n ".join([
            f"def __create__(_set, {', '.join(dflt)}):",
            f"def __init__(self, {', '.join(params)}):", *[f" {b}" for b in body or ["pass"]],
            "def __eq__(self, other):", " if other.__class__ is self.__class__:",
            f"  return {this} == {other}", " return NotImplemented",
            "def __hash__(self):", f" return hash({this})",
            f"return __init__, __eq__, {'__hash__' if frozen else None}"]), ns := {})
        cls.__init__, cls.__eq__, cls.__hash__ = ns["__create__"](object.__setattr__, **dflt)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        cls.__repr__ = own.get("__repr__", _repr)
        cls.__record_compared__ = tuple(compared)
        return cls
    return build

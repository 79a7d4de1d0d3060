"""The one decoder and the one writer of waasim's JSON documents (configs,
workflow and workload documents, and reports), and the `valueclass` decorator
that builds their classes. A value class's annotations give each field's JSON
type; values are checked, never coerced, except that a finite int is read as
a float where the field's metadata holds `as_float`. A field with a default
or an `if_absent` value may be left out; a JSON null reads as the field's
`if_null` value. The class's `__init__` checks each field's `rule`, for the
decoder as for library use. Every error names the value's JSON path."""

from __future__ import annotations

import json
from functools import cache
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from sys import float_info
from types import UnionType
from typing import get_args, get_origin, get_type_hints


def read_file(path, error: type[Exception]) -> str:
    """The text of the document file at `path`, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def load(text: str, cls: type, root: str, error: type[Exception]):
    """`text` parsed as JSON and decoded as `cls`; errors are `error`s."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise error(f"{root}: invalid JSON: {exc}") from exc
    return decode(doc, cls, root, error)


def decode(doc, cls: type, root: str, error: type[Exception]):
    """Parsed JSON `doc` decoded as `cls`, as `load` decodes it."""
    return _reader(cls, error, False)(doc, None, root)


def _where(parent, key) -> str:
    """The path of the value at `key` in the container at `parent`. Readers
    pass locations on as (parent, key) pairs; only errors render them."""
    path = ""
    while parent is not None:
        path = (f"[{key}]" if type(key) is int else f".{key}") + path
        parent, key = parent
    return key + path


def _nullable(read, if_null):
    return lambda value, parent, key: if_null if value is None else read(value, parent, key)


@cache
def _reader(hint, error, as_float: bool):
    """A function read(value, parent, key) for values annotated `hint`."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        return _nullable(_reader(args[0], error, as_float), None)
    if hasattr(hint, "__fields__"):
        return _object_reader(hint, error)
    if origin is dict:  # dict[str, X]; JSON keys are strings
        read = _reader(args[1], error, as_float)

        def read_dict(value, parent, key):
            if not isinstance(value, dict):
                raise error(f"{_where(parent, key)}: must be a JSON object")
            here = (parent, key)
            return {k: read(v, here, k) for k, v in value.items()}
        return read_dict
    if origin in (list, tuple):  # list[X] or tuple[X, ...]
        read = _reader(args[0], error, as_float)

        def read_list(value, parent, key):
            if not isinstance(value, list):
                raise error(f"{_where(parent, key)}: must be a JSON list")
            here, items = (parent, key), []
            for i, item in enumerate(value):
                items.append(read(item, here, i))
            return items if origin is list else origin(items)
        return read_list
    # str, int, bool or float. A bool is not an int; an int is a float if a
    # float can hold it; a str must hold no lone surrogate, as UTF-8 cannot.
    types = (int, float) if hint is float else (hint,)

    def read_scalar(value, parent, key):
        if type(value) not in types:
            raise error(f"{_where(parent, key)}: expected {hint.__name__}")
        if hint is float:
            try:
                if isfinite(value):  # an int too large raises OverflowError
                    return float(value) if as_float else value
            except OverflowError:
                pass
            raise error(f"{_where(parent, key)}: must be finite")
        if hint is str and not value.isascii():
            try:
                value.encode()
            except UnicodeEncodeError:
                raise error(f"{_where(parent, key)}: must be encodable as UTF-8") from None
        return value
    return read_scalar


def _object_reader(cls, error):
    hints, table = get_type_hints(cls), cls.__fields__
    names = frozenset(f.name for f in table)
    if_absent = {f.name: f.metadata["if_absent"] for f in table if "if_absent" in f.metadata}
    readers = []  # (field name, reader, whether the document must hold it)
    for f in table:
        read = _reader(hints[f.name], error, f.metadata.get("as_float", False))
        if "if_null" in f.metadata:
            read = _nullable(read, f.metadata["if_null"])
        required = f.name not in if_absent and f.default is MISSING is f.default_factory
        readers.append((f.name, read, required))

    def read_object(value, parent, key):
        if not isinstance(value, dict):
            raise error(f"{_where(parent, key)}: must be a JSON object")
        if not names.issuperset(value):
            unknown = next(k for k in value if k not in names)
            raise error(f"{_where(parent, key)}: unknown field {unknown!r}")
        here, kwargs = (parent, key), if_absent.copy()
        for name, read, required in readers:
            if name in value:
                kwargs[name] = read(value[name], here, name)
            elif required:
                raise error(f"{_where(here, name)}: missing field")
        try:
            return cls(**kwargs)
        except error as exc:
            if getattr(exc, "rule_owner", None) is not cls:
                raise
            raise error(f"{_where(parent, key)}.{exc}") from None
    return read_object


class Written(list):
    """A list of items already written as JSON text at their place."""


@cache
def writer(hint, depth: int):
    """A function write(value) -> the JSON text of a value of type `hint`
    (an int is a float), as `json.dumps(indent=2, allow_nan=False)` writes
    it at nesting `depth`. A value instance at depth 0 is written as its
    `as_dict`, but that a field with `if_null` is null where its value is
    not finite, and one with `omit_default` is left out at its default."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None
        write = writer(args[0], depth)
        return lambda value: "null" if value is None else write(value)
    if hasattr(hint, "__fields__"):
        return _object_writer(hint, depth)
    if origin is dict:  # dict[str, X]
        write, join = writer(args[1], depth + 1), _joiner(depth, "{}")
        return lambda value: join([f"{encode_basestring_ascii(k)}: {write(v)}"
                                   for k, v in value.items()])
    if origin in (list, tuple):  # list[X] or tuple[X, ...]
        write, join = writer(args[0], depth + 1), _joiner(depth, "[]")
        return lambda value: join(value if type(value) is Written else [write(v) for v in value])
    return _scalar


def _joiner(depth: int, brackets: str):
    """A function join(texts) -> the JSON list (or, with brackets "{}", object)
    of written items that `json.dumps(indent=2)` lays out at nesting `depth`."""
    inner = "\n" + "  " * (depth + 1)
    opening, between, closing = brackets[0] + inner, "," + inner, "\n" + "  " * depth + brackets[1]
    return lambda texts: opening + between.join(texts) + closing if texts else brackets


# A string, a number, a bool or None as `json.dumps(allow_nan=False)` writes
# it, by json's C encoder (it has no indent to apply); and per scalar hint,
# the expression that writes the value `v` so, inline for the hint's type.
_scalar = json.JSONEncoder(allow_nan=False).encode
_INLINE = {str: "text_of(v) if type(v) is str else scalar(v)",
           int: "repr(v) if type(v) is int else scalar(v)",
           float: "repr(v) if type(v) is float and isfinite(v) else scalar(v)",
           bool: '"true" if v is True else "false" if v is False else scalar(v)'}


def _object_writer(cls, depth: int):
    """`write(obj)` for `cls` at nesting `depth`, compiled from its field
    table by one `exec`, as its `__init__` is."""
    env = {"scalar": _scalar, "text_of": encode_basestring_ascii, "isfinite": isfinite,
           "join": _joiner(depth, "{}")}
    hints, lines = get_type_hints(cls), ["texts = []"]
    for f in cls.__fields__:
        env[f"write_{f.name}"] = writer(hints[f.name], depth + 1)
        text = _INLINE.get(hints[f.name], f"write_{f.name}(v)")
        if "if_null" in f.metadata:
            text = f'({text}) if isfinite(v) else "null"'
        line = f"texts.append({encode_basestring_ascii(f.name) + ': '!r} + ({text}))"
        if f.metadata.get("omit_default"):
            env[f"default_{f.name}"] = f.default
            line = f"if v != default_{f.name}: {line}"
        lines += [f"v = obj.{f.name}", line]
    exec("def write(obj):" + "".join(f"\n    {line}" for line in lines + ["return join(texts)"]),
         env)
    return env["write"]


class _Sentinel:
    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name


MISSING = _Sentinel("MISSING")  # the default of a field that has none
_FACTORY = _Sentinel("<factory>")  # in a signature, the default a factory builds


class Rule:
    """The range of a numeric field: an int that is not a bool, or a finite
    float (an int a float can hold will do); at least `low` (above it if
    `strict`) and at most `high`, where given. With `each`, the field is a
    list and the rule holds for each item."""

    __slots__ = ("kind", "low", "strict", "high", "each")

    def __init__(self, kind: type, low: float | None = None, strict: bool = False,
                 high: int | None = None, each: bool = False):
        self.kind, self.low, self.strict, self.high, self.each = kind, low, strict, high, each

    def __str__(self) -> str:
        text = "an integer" if self.kind is int else "a finite number"
        if self.high is not None:
            return f"{text} from {self.low} to {self.high}"
        return text if self.low is None else f"{text} {'>' if self.strict else '>='} {self.low}"

    def test(self, v: str) -> str:
        """Python source that is true when the value named `v` keeps the rule."""
        test, low, high = f"type({v}) is int", self.low, self.high
        if self.kind is float:  # finite: within the largest floats
            test = f"type({v}) in (int, float)"
            low, high = -float_info.max if low is None else low, float_info.max
        if low is not None:
            test += f" and {low!r} {'<' if self.strict else '<='} {v}"
        return test if high is None else f"{test} and {v} <= {high!r}"


class Field:
    """One row of a value class's field table, one parameter of its
    `__init__`: its name, its default or default factory, and its metadata:
    the decoder's `as_float`, `if_absent` and `if_null`, the writer's
    `omit_default`, and the `Rule` that `__init__` checks."""

    __slots__ = ("name", "default", "default_factory", "metadata")

    def __init__(self, *, default=MISSING, default_factory=MISSING, metadata=None):
        self.name = ""  # set by valueclass
        self.default = default
        self.default_factory = default_factory
        self.metadata = metadata or {}


def valueclass(cls=None, /, *, frozen=False, error=ValueError):
    """Class decorator: every annotation of `cls` is a field, in order, and
    `cls.__fields__` holds their table. A class attribute is the field's
    default, or its `Field`. The decorator adds `__init__`, which takes the
    fields in order, defaults the ones left out, raises `error` naming the
    first field that breaks its `Rule`, and then calls `__post_init__` if
    `cls` has one; `__repr__`; and `__eq__`: instances are equal when their
    classes and field values are. A frozen instance is hashable and refuses
    every assignment and deletion (`__init__` sets its fields through
    `object.__setattr__`); any other is unhashable."""
    if cls is None:
        return lambda cls: valueclass(cls, frozen=frozen, error=error)
    table = []
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, MISSING)
        if isinstance(f, Field):
            if f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(default=f)
        f.name = name
        table.append(f)
    cls.__fields__ = tuple(table)
    cls.__init__ = _make_init(cls, frozen, error)
    cls.__repr__ = _repr
    cls.__eq__ = _eq
    cls.__hash__ = _hash if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


def _make_init(cls, frozen: bool, error):
    """`cls.__init__`, compiled from its field table by one `exec`."""
    def broken(text: str) -> Exception:  # the decoder names the JSON path instead
        exc = error(text)
        exc.rule_owner = cls
        return exc

    env = {"FACTORY": _FACTORY, "object_setattr": object.__setattr__, "broken": broken}
    params, defaults, checks, lines = [], [], [], []
    for f in cls.__fields__:
        name = param = f.name
        if f.default_factory is not MISSING:
            env[f"_factory_{name}"] = f.default_factory
            param = f"{name}=FACTORY"
            defaults.append(f"if {name} is FACTORY: {name} = _factory_{name}()")
        elif f.default is not MISSING:
            env[f"_default_{name}"] = f.default
            param = f"{name}=_default_{name}"
        params.append(param)
        rule = f.metadata.get("rule")
        if rule is not None:
            value, where = ("_item", f"{name}[{{_i}}]") if rule.each else (name, name)
            check = f"if not ({rule.test(value)}): raise broken(f'{where}: must be {rule}')"
            checks.append(f"for _i, _item in enumerate({name}):\n        {check}"
                          if rule.each else check)
        lines.append(f"object_setattr(self, {name!r}, {name})" if frozen
                     else f"self.{name} = {name}")
    lines = defaults + checks + lines
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    body = "".join(f"\n    {line}" for line in lines or ["pass"])
    exec(f"def __init__(self, {', '.join(params)}):{body}", env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _values(obj) -> tuple:
    return tuple([getattr(obj, f.name) for f in obj.__fields__])


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    items = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__fields__)
    return f"{type(self).__qualname__}({items})"


def _refuse(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot assign or delete {name!r}")


def replace(obj, /, **changes):
    """A new instance of `obj`'s value class with `changes` applied, built by
    its `__init__`, so `__post_init__` runs again."""
    for f in obj.__fields__:
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def as_dict(obj) -> dict:
    """The fields of value instance `obj` as a new dict in field order. It
    recurses into value instances, lists, tuples and dicts, rebuilding each,
    as `dataclasses.asdict` does; every other value, immutable in waasim's
    value classes, is shared rather than deep-copied."""
    if not hasattr(type(obj), "__fields__"):
        raise TypeError("as_dict() should be called on value class instances")
    return _plain(obj)


def _plain(obj):
    if hasattr(type(obj), "__fields__"):
        return {f.name: _plain(getattr(obj, f.name)) for f in obj.__fields__}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_plain(v) for v in obj)
    if isinstance(obj, dict):
        return type(obj)((_plain(k), _plain(v)) for k, v in obj.items())
    return obj

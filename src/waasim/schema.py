"""The one decoder of the JSON documents waasim reads: configs, workflow and
workload documents, and reports. A dataclass's annotations give each field's
JSON type; values are checked, never coerced, except that a finite int is
read as a float where the field's metadata holds `as_float`. A field with a
default or an `if_absent` value may be left out; a JSON null reads as the
field's `if_null` value. Every error names the value's JSON path."""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from math import isfinite
from types import UnionType
from typing import get_args, get_origin, get_type_hints


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
    if is_dataclass(hint):
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
    hints, names = get_type_hints(cls), frozenset(f.name for f in fields(cls))
    if_absent = {f.name: f.metadata["if_absent"] for f in fields(cls) if "if_absent" in f.metadata}
    readers = []  # (field name, reader, whether the document must hold it)
    for f in fields(cls):
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
        return cls(**kwargs)
    return read_object

"""The INI manifest format shared by every text artifact.

config.txt, checkpoint and model `manifest.txt`, epoch-archive
`manifest.txt` and preprocessing `info.txt` are all sections of
`key = value` lines, keys case-preserved and in the order written. A value
is written by `format_value` (floats by repr, so exactly; tuples
comma-joined) and read back by `parse_value` as a given type. A dataclass
maps to a section field by field through `section_of` and `from_section`,
which refuses a key that names no field rather than ignoring it.
"""
from __future__ import annotations

import configparser
import typing
from dataclasses import fields


def format_value(value):
    """Text of a manifest value: floats by repr (exact), tuples comma-joined."""
    if isinstance(value, tuple):
        return ",".join(format_value(v) for v in value)
    # float() first: repr of a numpy scalar names its type.
    return repr(float(value)) if isinstance(value, float) else str(value)


def parse_value(kind, text):
    """Parse `text` as type `kind`. `tuple[T, ...]` and `tuple[T, T]` parse
    element by element, skipping empty items; a fixed-length tuple must have
    its length. Raises ValueError."""
    if typing.get_origin(kind) is not tuple:
        return kind(text)
    items = [v for v in text.split(",") if v != ""]
    args = typing.get_args(kind)
    if args[-1] is not Ellipsis and len(items) != len(args):
        raise ValueError(f"expected {len(args)} comma-separated values, got {text!r}")
    return tuple(args[0](v) for v in items)


def section_of(obj):
    """The fields of dataclass `obj` as one section, in field order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def from_section(cls, section):
    """Dataclass `cls` from the text of a section: each field parses as its
    annotated type. A missing key raises KeyError; a bad value, or a key that
    names no field, ValueError."""
    hints = typing.get_type_hints(cls)
    for key in section:
        if key not in hints:
            raise ValueError(f"unknown {cls.__name__} key {key!r}")
    return cls(**{f.name: parse_value(hints[f.name], section[f.name]) for f in fields(cls)})


def write(path, sections):
    """Write {section: {key: value}} in the given order, values by format_value."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for name, values in sections.items():
        cp[name] = {k: format_value(v) for k, v in values.items()}
    with open(path, "w") as fh:
        cp.write(fh)


def read(path, inline_comments=False):
    """{section: {key: text}} of an INI file. `inline_comments` lets `#` after
    whitespace start a comment, as in hand-written config files. Malformed
    text raises ValueError, a missing file FileNotFoundError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",) if inline_comments else None)
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
        return {name: dict(cp[name]) for name in cp.sections()}
    except configparser.Error as exc:
        raise ValueError(str(exc)) from exc

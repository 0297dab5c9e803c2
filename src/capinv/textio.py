"""The text format of every capinv artifact file.

A file is a sequence of lines: `key=value` headers, `tag count` lines and
rows of floats written with repr and joined by commas, so that a
save/load round trip is bit exact. Readers skip blank lines.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np


def _row(values) -> str:
    return ",".join([repr(float(x)) for x in values])


def _header(tag: str, fields: dict, sep: str = " ") -> str:
    """`tag key=value ...`, or just the items when tag is empty."""
    return sep.join(([tag] if tag else []) + [f"{key}={value}" for key, value in fields.items()])


def _vector(tag: str, values) -> str:
    return f"{tag} {len(values)}\n{_row(values)}\n"


def _reader(fh, noun: str) -> SimpleNamespace:
    """Parsers over the non-blank lines of an open file, one line ahead.

    take(what) returns the next line; header(tag, types, sep) parses a
    header into its items, converting those named in types; floats(width,
    what) parses one row, rows(count, width, what) count rows into an
    array and vector(tag) a `tag count` line and its row; at_end() tells
    whether the file is used up. They are closures, not methods, so that
    tracers wrapping the public methods of capinv classes count parsing in
    the caller's span.
    """
    stream = (line.rstrip("\n") for line in fh if not line.isspace())
    ahead = next(stream, None)

    def take(what):
        nonlocal ahead
        if ahead is None:
            raise ValueError(f"{noun} ends before the {what}")
        line, ahead = ahead, next(stream, None)
        return line

    def header(tag, types, sep=" "):
        line = take(f"{tag or noun} header")
        items = line.split(sep)
        if tag:
            if items[0] != tag:
                raise ValueError(f"expected a {tag} header, got {line[:80]!r}")
            items = items[1:]
        try:
            fields = dict(item.split("=", 1) for item in items)
            return {**fields, **{key: kind(fields[key]) for key, kind in types.items()}}
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed {noun} header {line!r}") from exc

    def floats(width, what):
        parts = take(what).split(",")
        if len(parts) != width:
            raise ValueError(f"{what} has {len(parts)} values, expected {width}")
        try:
            return list(map(float, parts))
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None

    def rows(count, width, what):
        out = np.empty((count, width))
        for i in range(count):
            out[i] = floats(width, f"{what} {i}")
        return out

    def vector(tag):
        line = take(f"{tag} line")
        name, _, count = line.partition(" ")
        if name != tag or not count.isdigit():
            raise ValueError(f"expected '{tag} <count>', got {line[:80]!r}")
        return np.asarray(floats(int(count), f"{tag} row"))

    return SimpleNamespace(take=take, header=header, floats=floats, rows=rows, vector=vector,
                           at_end=lambda: ahead is None)


@contextmanager
def _reading(path, noun: str):
    """A _reader over the file at path, which must end where the body stops
    reading. Every ValueError from the body, including the checks of the
    objects it builds, is re-raised with "{path}: " in front."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = _reader(fh, noun)
            yield lines
            if not lines.at_end():
                raise ValueError(f"unexpected data after the {noun}: {lines.take('')[:80]!r}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

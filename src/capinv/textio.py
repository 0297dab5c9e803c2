"""The text format of every capinv artifact file.

A file is a sequence of lines: `key=value` headers, `tag count` lines and
rows of floats written with repr and joined by commas, so that a
save/load round trip is bit exact. Readers skip blank lines.

textio spells every value a capinv file holds: _text writes a float with
repr, which float() reads back bit for bit, a tuple joined by ":" and None
(an absent stage) as "-". It names the file of every failure: _named puts
"{path}: " in front of each ValueError a read raises. _sized names the flag
or key behind an array no machine can allocate. A header that repeats
a key is refused, not read with its last copy.

textio is the only capinv module that writes a file. _writing writes a
sibling temporary file and moves it over the target only once it is
complete, so every capinv output is complete or absent, and a writer that
fails part-way leaves the target as it was.

A block of float rows is parsed by one np.loadtxt call, whose C reader
rounds each value with the routine float() uses, so the array has the bits
float() gives. A block the C reader rejects, returns in another shape or
might read differently from float() is parsed again row by row with
float(). So every file loads to the same arrays, and fails with the same
message, as a float() parse of each row.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np


def _row(values) -> str:
    # tolist() gives the Python floats float() would, without a numpy scalar per value.
    return ",".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _text(value) -> str:
    """How a capinv file spells value: a float (numpy floats included) by
    repr, a tuple joined by ":", None as "-" and anything else by str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ":".join(map(str, value))
    return "-" if value is None else str(value)


def _header(tag: str, fields: dict, sep: str = " ") -> str:
    """`tag key=value ...`, or just the items when tag is empty, each value
    spelled by _text. A value whose text holds sep or a line break would not
    split back, so it is refused."""
    items = []
    for key, value in fields.items():
        text = _text(value)
        for bad in (sep, "\n", "\r"):
            if bad in text:
                raise ValueError(f"cannot write {key}={text!r}: a header value must not hold {bad!r}")
        items.append(f"{key}={text}")
    return sep.join(([tag] if tag else []) + items)


def _field_block(meta: dict, values) -> str:
    """A meta line of meta's items and grid=<rows>, then the grid rows."""
    head = _header("", {**meta, "grid": values.shape[0]}, ",")
    return "".join(line + "\n" for line in [head, *map(_row, values)])


def _vector(tag: str, values) -> str:
    """`tag count` and the values' row. An empty row would be a blank line,
    which readers skip, so an empty vector is refused."""
    if len(values) == 0:
        raise ValueError(f"cannot write the empty vector {tag!r}: its row would be a blank line")
    return f"{tag} {len(values)}\n{_row(values)}\n"


# The C reader strips these ASCII separators around a value as whitespace,
# and float() rejects them; they are the only ASCII characters the two read
# differently.
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


@contextmanager
def _named(name):
    """Re-raise every ValueError from the body with "{name}: " in front."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


@contextmanager
def _sized(name: str, size: int):
    """Re-raise numpy's refusal of a size-value array from the body naming
    the flag or key that gave the size: ", asked for by {name} {size}"
    goes after numpy's message, which names the shape it was asked for."""
    try:
        yield
    except MemoryError as exc:
        if getattr(exc, "shape", None) != (size,):
            raise
        raise MemoryError(f"{exc}, asked for by {name} {size}") from exc


def _floats(line: str, width: int, what: str) -> list:
    """One row of exactly width floats, as float() parses them."""
    parts = line.split(",")
    if len(parts) != width:
        raise ValueError(f"{what} has {len(parts)} values, expected {width}")
    with _named(what):
        return list(map(float, parts))


def _reader(fh, noun: str) -> SimpleNamespace:
    """Parsers over the non-blank lines of an open file, read forward once.

    take(what) returns the next line; header(tag, types, sep) parses a
    header into its items, converting those named in types; rows(count,
    width, what) parses the next count lines into a (count, width) array
    and vector(tag) a `tag count` line and its row; rest() returns the next
    line, or None where the file is used up. rows and vector hold the lines
    of one block, not the file, and hand them to np.loadtxt in one call.
    When that call fails or its result is out of shape, the same lines are
    parsed one by one with float(), so a bad block fails on its first bad
    row, with that row's message. They are closures, not methods, so that
    tracers wrapping the public methods of capinv classes count parsing in
    the caller's span.
    """
    stream = (line.rstrip("\n") for line in fh if not line.isspace())

    def take(what):
        line = next(stream, None)
        if line is None:
            raise ValueError(f"{noun} ends before the {what}")
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
            if len(fields) < len(items):
                raise ValueError("a key is repeated")
            return {**fields, **{key: kind(fields[key]) for key, kind in types.items()}}
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed {noun} header {line!r}") from exc

    def block(count, width, name):
        """count rows of width floats; name(i) is row i's name in errors."""
        # zip with range, not islice, which refuses a count past sys.maxsize.
        lines = [line for _, line in zip(range(count), stream)]
        if lines and len(lines) == count and not any(sep in line for line in lines for sep in _SEPARATORS):
            try:
                out = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            except ValueError:
                pass
            else:
                if out.shape == (count, width):
                    return out
        # Only rows that are there size the array, whatever count says.
        out = [_floats(line, width, name(i)) for i, line in enumerate(lines)]
        if len(out) < count:
            take(name(len(out)))  # raises: the file ends before this row
        return np.array(out, dtype=np.float64).reshape(count, width)

    def rows(count, width, what):
        if count < 0:
            raise ValueError(f"{what} count must be nonnegative, got {count}")
        return block(count, width, lambda i: f"{what} {i}")

    def vector(tag):
        line = take(f"{tag} line")
        name, _, count = line.partition(" ")
        if name != tag or not count.isdigit():
            raise ValueError(f"expected '{tag} <count>', got {line[:80]!r}")
        return block(1, int(count), lambda i: f"{tag} row")[0]

    return SimpleNamespace(take=take, header=header, rows=rows, vector=vector, rest=lambda: next(stream, None))


@contextmanager
def _reading(path, noun: str):
    """A _reader over the file at path, which must end where the body stops
    reading. Every ValueError from the body, including the checks of the
    objects it builds, is re-raised with "{path}: " in front."""
    with _named(path), open(path, "r", encoding="ascii") as fh:
        lines = _reader(fh, noun)
        yield lines
        extra = lines.rest()
        if extra is not None:
            raise ValueError(f"unexpected data after the {noun}: {extra[:80]!r}")


@contextmanager
def _writing(path):
    """An open text file that replaces the file at path when the body ends.

    The body writes a temporary file next to path, which os.replace then
    moves into place; when the body raises, the temporary file is removed
    and path is left as it was, or absent. The temporary file is made by
    open, not mkstemp, so its mode follows the umask like any new file's.
    newline="" writes every "\n" as is, and csv.writer's "\r\n" untranslated.
    A path to anything but a regular file (a directory, a device, a symlink
    such as /dev/stdout) is refused, since os.replace would put a file there.
    """
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        raise ValueError(f"{os.fspath(path)}: not a regular file; an output replaces its target whole, "
                         "so the path must name a regular file or nothing")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="ascii", newline="")
    except OSError as exc:
        exc.filename = os.fspath(path)  # the message names the target the caller gave
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise

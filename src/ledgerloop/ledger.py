"""Append-only, hash-chained event ledger: the system's source of truth.

Wire format: one record per line, each a canonical JSON object with
lexicographically sorted keys, no insignificant whitespace, integers in base
10, and every float carried as a 16-hex-digit big-endian IEEE-754 string (see
:func:`encode_float`). Record ``n`` has ``seq == n``; its ``hash`` is the
SHA-256 of ``prev_hash`` concatenated with the canonical bytes of the record
body (everything except the ``hash`` field itself), and record 0 chains from
32 zero bytes. The line is the body with the ``hash`` member inserted where
sorting puts it, just before ``payload``. Any single corrupted byte
therefore breaks either a hash recomputation or the chain linkage.

Canonical bytes have one definition, :func:`_dumps` (``json`` with sorted
keys and compact ASCII separators). :func:`canonical_json_bytes` is it with
a check for raw floats first; reports (:func:`report_bytes`), the config
digest and the HEADER's config are written with it, and the read pass's JSON
path re-encodes every line it reads with it. :meth:`Ledger.append` writes a
record's members before and after ``hash`` (see :data:`_HEAD`) with one
%-format each, hashes them, and writes them around the hash member with one
unbuffered write; :meth:`EventEnvelope.to_line` is the ``_dumps`` reference.

Every payload is a typed value: an instance of its event type's class in
``events.PAYLOADS``. One annotation compiler, :func:`_converter`, reads each
payload class's annotations two ways. With :data:`LEDGER_TEXT`, one table
that states each scalar's check, text, regex and converter side by side, it
generates straight-line code on the class's first use (never at import):
the writer (:func:`_writer_piece`), which checks each member's type and
writes a record of the class's event type whose payload is the bytes
``_dumps`` would give for ``map_floats(value, encode_float)`` (a dataclass
member, the HEADER's typed config, as ``canonical_json_bytes`` of its
``map_floats``, once the walk reads those back); and the line
matcher (:func:`_line_reader`), one anchored regex over a whole record line
with a converter from its groups to the typed value, which converts each
tuple or bytes member in a fixed number of C calls and builds the value
through the class's own ``__init__`` (a :func:`frozen_record` class's
sets each slot with one C call). Regex and converter together take only
the canonical bytes of a record carrying that class's payload, but for the
``hash`` and ``prev_hash`` texts, which the regex admits as any 64
characters but a quote and leaves to the chain check; the regex also
admits a bytes member with an odd digit count, which its converter's
``bytes.fromhex`` refuses. With :data:`LEDGER_FORMAT` it builds the
annotation walk (:func:`_dataclass`, behind :func:`decode_as`), which
decodes a payload dict and names the member it refuses; the walk also reads
a run config (:data:`CONFIG_FORMAT`).

A :class:`Ledger` only writes: it keeps its last record, whose seq gives the
count and whose hash is the chain head, never a copy of the records before
it. Every read of a ledger file goes through one verified pass
(:func:`_verified`): :func:`read_records`, :meth:`Ledger.open` and
:func:`verify_chain` all check the same things, so a record a reader sees has
passed the chain check and carries its typed payload. Each line's matcher is
tried first, then the seq, linkage and SHA-256 comparisons. A match that
passes them proves that the line is canonical, holds exactly the envelope's
members and its class's, each of its annotation's type, and that the class
takes the value. Any other line (the HEADER, whose config no matcher
reads; a string with an escape; every malformed line, an odd-length bytes
member among them; a value the class refuses), and a matched line that
fails a comparison, goes through the JSON path (:func:`_json_record`):
:func:`_parse_line`, the same comparisons, and the walk
(``events.decode_payload``) over the payload, whose refusal is a
DecodeError without a seq. So the JSON path gives every verdict and
message a line gets.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import re
import struct
import threading
import types
import typing
from dataclasses import MISSING, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import ConfigurationError, DecodeError, LedgerLoopError, StorageError

GENESIS_HASH = b"\x00" * 32

ENVIRONMENT_PROFILES = ("dev", "test", "prod-sim")

FORMAT_VERSION = 1


def encode_float(x: float) -> str:
    """Big-endian IEEE-754 bit pattern of a float64 as 16 lowercase hex chars.

    Total on the bit level: negative zero and NaN payloads survive intact.
    """
    return struct.pack(">d", x).hex()


def decode_float(hex_str: str) -> float:
    """Inverse of :func:`encode_float`; rejects anything but 16 lowercase hex chars."""
    if type(hex_str) is str and len(hex_str) == 16:
        raw = _unhex(hex_str)
        if raw is not None:
            return _UNPACK_FLOAT(raw)[0]
    raise _Refusal(f"expected 16 lowercase hex chars, {_got(hex_str)}")


_UNPACK_FLOAT = struct.Struct(">d").unpack


def _unhex(text) -> bytes | None:
    """The bytes whose lowercase hex is ``text``, or None if there are none.
    ``bytes.fromhex`` also takes uppercase and whitespace, so the round trip
    must give ``text`` back too."""
    if type(text) is not str:
        return None
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        return None
    return raw if raw.hex() == text else None


_NESTED = (dict, list, tuple, float)  # the only values the check must look into


def _reject_floats(obj, path="$"):
    if isinstance(obj, float):
        raise ConfigurationError(
            f"raw float at {path}; canonical payloads must hex-encode floats"
        )
    # Leaves are skipped without a call, so paths are only built for
    # containers and floats.
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ConfigurationError(f"non-string key at {path}: {k!r}")
            if isinstance(v, _NESTED):
                _reject_floats(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            if isinstance(v, _NESTED):
                _reject_floats(v, f"{path}[{i}]")


def canonical_json_bytes(obj) -> bytes:
    """Serialize to canonical JSON: sorted keys, compact separators, ASCII.

    Raw floats are refused outright so a non-canonical number can never leak
    into hashed bytes; callers encode floats with :func:`encode_float` first.
    """
    _reject_floats(obj)
    return _dumps(obj)


def config_digest(config) -> str:
    """The SHA-256, in hex, of a HEADER config's canonical bytes: those of
    ``map_floats(config, encode_float)``, which the HEADER's writer writes
    for its ``events.RunHeader``."""
    return hashlib.sha256(canonical_json_bytes(map_floats(config, encode_float))).hexdigest()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _dumps(obj) -> bytes:
    # The encoding step of canonical_json_bytes, for values already checked.
    return _ENCODER.encode(obj).encode("ascii")


_LEAVES = {str, int, bool, type(None)}


def map_floats(obj, show):
    """``obj`` ready for :func:`canonical_json_bytes`: every float replaced by
    ``show(float)`` (the run header uses :func:`encode_float`), bytes by
    their lowercase hex, a tuple by a list, and a dataclass by the dict of
    the fields its ``__init__`` takes. ``decode_as(hint, value,
    LEDGER_FORMAT)`` reads back what ``show=encode_float`` gives; a ledger
    payload's compiled writer writes the canonical bytes of exactly that."""
    kind = type(obj)
    if kind in _LEAVES:
        return obj
    if kind is float:
        return show(obj)
    if kind is list or kind is tuple:
        return [map_floats(v, show) for v in obj]
    if kind is dict:
        return {str(k): map_floats(v, show) for k, v in obj.items()}
    if kind is bytes:
        return obj.hex()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        return {f.name: map_floats(getattr(obj, f.name), show) for f in fields if f.init}
    for plain in (float, int, str, dict, list, tuple, bytes):  # a numpy float64 is a float
        if isinstance(obj, plain):
            return map_floats(plain(obj), show)
    raise ConfigurationError(f"cannot encode {obj!r} canonically")


class _Refusal(DecodeError):
    """A value :func:`decode_as` does not take, met at ``path`` (steps
    ``.member`` and ``[index]``) inside the value being decoded."""

    def __init__(self, problem: str, path: str = ""):
        super().__init__(f"{path.lstrip('.')}: {problem}" if path else problem)
        self.problem, self.path = problem, path


def _got(value) -> str:
    """``got <repr>``, a repr over 64 characters cut to 64 and its length, so a refusal stays short."""
    text = repr(value)
    return f"got {text}" if len(text) <= 64 else f"got {text[:64]}... ({len(text)} characters)"


def _exactly(kind: type, what: str):
    def convert(value):
        if type(value) is not kind:  # so an int is never a bool
            raise _Refusal(f"expected {what}, {_got(value)}")
        return value

    return convert


def _bytes(value) -> bytes:
    raw = _unhex(value)
    if raw is None:
        raise _Refusal(f"expected lowercase hex, {_got(value)}")
    return raw


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _tuple_of(convert):
    def convert_all(value):
        if type(value) is not list:
            raise _Refusal(f"expected a list, {_got(value)}")
        items = []
        for i, item in enumerate(value):
            try:
                items.append(convert(item))
            except _Refusal as refusal:
                raise _Refusal(refusal.problem, f"[{i}]{refusal.path}") from None
        return tuple(items)

    return convert_all


def _dict_of(convert):
    def convert_all(value):
        if type(value) is not dict:
            raise _Refusal(f"expected an object, {_got(value)}")
        converted = {}
        for key, item in value.items():
            if type(key) is not str:
                raise _Refusal(f"expected a string key, {_got(key)}")
            try:
                converted[key] = convert(item)
            except _Refusal as refusal:
                raise _Refusal(refusal.problem, f".{key}{refusal.path}") from None
        return converted

    return convert_all


def _dataclass(cls: type, fmt: Format):
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    spec = tuple((f.name, _converter(hints[f.name], fmt)) for f in fields)
    members = frozenset(name for name, _ in spec)
    # The members a value must hold: every one, or in a format with
    # defaults, those of the fields without one.
    required = frozenset(
        f.name for f in fields
        if not fmt.defaults or (f.default is MISSING and f.default_factory is MISSING)
    )

    def convert(value):
        if type(value) is not dict:
            raise _Refusal(f"expected an object, {_got(value)}")
        if value.keys() != members:
            missing, unknown = required - value.keys(), value.keys() - members
            if missing or unknown:
                # A misspelt member is both; its spelling here names the typo.
                name = min(unknown or missing, key=str)
                raise _Refusal("not a member" if unknown else "missing", f".{name}")
        kwargs = {}
        for name, member in spec:
            if name in value:
                try:
                    kwargs[name] = member(value[name])
                except _Refusal as refusal:
                    raise _Refusal(refusal.problem, f".{name}{refusal.path}") from None
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise _Refusal(str(exc)) from None

    return convert


def _number(value) -> float:
    if type(value) is float:
        return value
    if type(value) is int:  # never a bool
        try:
            return float(value)
        except OverflowError:
            pass
    raise _Refusal(f"expected a number, {_got(value)}")


# A NamedTuple, not a frozen dataclass: it is built at import in a fifth of the time.
class Format(NamedTuple):
    """How typed values are read from or written as JSON-like data.

    ``converters`` maps each scalar annotation to its converter (the
    compiler adds the ones it builds, once per annotation), and
    ``defaults`` says whether a dataclass member left out takes its field's
    default. The ``of_*`` builders make the converter of a dataclass, a
    ``tuple[X, ...]``, a ``dict[str, X]`` and an ``X | None`` from those of
    its parts (None: the format has no converter for that form). They read
    by default (the annotation walk); :data:`LEDGER_TEXT` swaps in builders
    of the :class:`_Text` that the compiled writers and line matchers are
    generated from.
    """

    converters: dict
    defaults: bool
    of_dataclass: typing.Callable = _dataclass
    of_tuple: typing.Callable = _tuple_of
    of_dict: typing.Callable | None = _dict_of
    of_optional: typing.Callable = _optional


# Ledger payloads and the run header: floats and bytes as lowercase hex,
# exactly the ``__init__`` fields as members.
LEDGER_FORMAT = Format(
    {
        float: decode_float,
        bytes: _bytes,
        int: _exactly(int, "an integer"),
        str: _exactly(str, "a string"),
        bool: _exactly(bool, "a boolean"),
    },
    defaults=False,
)
# A YAML run config: any number but a bool is a float, and a member left out
# takes its default.
CONFIG_FORMAT = Format(
    {
        float: _number,
        int: _exactly(int, "an integer"),
        str: _exactly(str, "a string"),
        bool: _exactly(bool, "a boolean"),
    },
    defaults=True,
)


def _converter(hint, fmt: Format):
    """The converter for values of the field annotation ``hint`` in ``fmt``,
    built once."""
    convert = fmt.converters.get(hint)
    if convert is not None:
        return convert
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        convert = fmt.of_dataclass(hint, fmt)
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        convert = fmt.of_tuple(_converter(args[0], fmt))
    elif origin is dict and args[0] is str and fmt.of_dict is not None:
        convert = fmt.of_dict(_converter(args[1], fmt))
    elif origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        convert = fmt.of_optional(_converter(args[0] if args[1] is type(None) else args[1], fmt))
    else:
        raise TypeError(f"no canonical form for {hint!r}")
    fmt.converters[hint] = convert
    return convert


# -- the ledger's text of each annotation --------------------------------------------


class _Text(NamedTuple):
    """The canonical JSON text of the values of one annotation, both ways, as
    source text with ``{0}`` standing for a value or its text.

    Written by a compiled writer: ``check`` is true exactly for the values
    it takes (described by ``what``), and ``arg`` is what the %-format
    ``spec`` turns into a value's text. Read by a line matcher: ``regex``,
    with no capture group, admits those texts, and ``convert`` is an
    expression for the value whose text is ``{0}``. The regex admits only
    canonical texts, but for one: a bytes text with an odd digit count
    matches it, and its converter's ``bytes.fromhex`` refuses it with a
    ValueError, so the line takes the JSON path. ``items``, if set, is an
    expression for the tuple of the values whose list text ``{0}`` holds at
    least one item, in a fixed number of C calls (see :func:`_tuple_text`);
    ``json_value``: the JSON value of each text is the value itself;
    ``scalar``: no text holds a comma outside a string. An empty ``regex``
    means no matcher reads the annotation (a dataclass), so a line holding
    one is read by :func:`_parse_line`. ``{1}`` in ``arg`` stands for the
    member's name as a refusal gives it, and ``binds`` holds the names the
    texts use beside the module's, with their values. ``write`` is set for
    a payload class only: its compiled writer, which is all of its text."""

    check: str = ""
    spec: str = ""
    arg: str = ""
    what: str = ""
    regex: str = ""
    convert: str = ""
    items: str = ""
    json_value: bool = False
    scalar: bool = True
    binds: tuple = ()
    write: typing.Callable | None = None

    def inline(self) -> "_Text":
        if not self.check:
            raise TypeError("no compiled encoding for a payload inside a payload")
        return self

    def text(self, value: str) -> str:
        """An expression for the JSON text of ``value``, as a str."""
        arg = self.arg.replace("{0}", value)
        if self.spec != "%s":
            return f"({self.spec!r} % ({arg},))"
        # An int is its own %s argument; a join needs its text.
        return f"str({arg})" if self.arg == "{0}" else arg


_FLOAT_BITS = struct.Struct(">d").pack  # encode_float is _FLOAT_BITS(x).hex()
_quoted = json.encoder.encode_basestring_ascii  # a string's JSON text, as _dumps writes it
# What a string's JSON text holds when encode_basestring_ascii leaves every
# character as it is: printable ASCII but the quote and the backslash.
_PLAIN = r"[ !#-\[\]-~]*"
_INT = "0|-?[1-9][0-9]*"
_fromhex = bytes.fromhex
_unpack = struct.unpack


def _nested_text(value, member: str) -> str:
    """The text of a dataclass ``value`` inside a payload: the canonical
    bytes of ``map_floats(value, encode_float)``, once the annotation walk
    reads them back, so a member holds no value the read pass refuses. A
    refusal is a ConfigurationError naming ``member`` and the path inside
    it."""
    try:
        mapped = map_floats(value, encode_float)
        decode_as(type(value), mapped, LEDGER_FORMAT)
    except (ConfigurationError, _Refusal) as exc:
        raise ConfigurationError(f"{member}: {exc}") from None
    return canonical_json_bytes(mapped).decode("ascii")


def _misfit(member: str, what: str, value):
    raise ConfigurationError(f"{member}: expected {what}, {_got(value)}")


def _tuple_text(item: _Text) -> _Text:
    """A tuple's text: a JSON list of its items' texts. A line matcher
    converts a list in one piece: with the item's ``items``, or if each
    item's JSON value is the item (an integer, a boolean or a string, or one
    of them or None), with one call of the JSON scanner. No matcher reads a
    list of any other item (an optional float, bytes)."""
    item = item.inline()
    items = item.items or ("tuple(_scan({0}, 0)[0])" if item.json_value else "")
    return _Text(
        f"(isinstance({{0}}, tuple) and all([{item.check.replace('{0}', '_i')} for _i in {{0}}]))",
        "[%s]",
        f"\",\".join([{item.text('_i')} for _i in {{0}}])",
        f"a tuple, each item {item.what}",
        rf"\[(?:(?:{item.regex})(?:,(?:{item.regex}))*)?\]" if item.regex and item.scalar and items else "",
        f"(() if {{0}} == '[]' else {items})",
        scalar=False,
        binds=item.binds,
    )


def _optional_text(inner: _Text) -> _Text:
    inner = inner.inline()
    return _Text(
        f"({{0}} is None or {inner.check})",
        "%s",
        f"(\"null\" if {{0}} is None else {inner.text('{0}')})",
        f"{inner.what} or None",
        inner.regex and f"null|{inner.regex}",
        f"(None if {{0}} == 'null' else {inner.convert})",
        json_value=inner.json_value,
        scalar=inner.scalar,
        binds=inner.binds,
    )


# A record's line on either side of its ``hash`` member, in sorted member
# order, with the event type's and the payload's text to fill in. Each then
# takes one %-format; append and the writers check that every int is exact,
# so %s writes it as %d would, and faster.
_HEAD = '{"backend_ts":%%s,"device_ts":%%s,"environment_profile":%%s,"event_type":%s'
_TAIL = ',"payload":%s,"prev_hash":"%%s","seq":%%s,"stream_id":%%s,"version_id":%%s}'


def _writer_piece(cls: type, fmt: Format) -> _Text:
    """Compile the writer of the payload class ``cls``, with its event type
    (``events.PAYLOADS``) baked in: a function of a value and the record's
    envelope members (``stream`` and ``profile`` as their JSON text, the
    previous hash as hex) that returns the event type and the record's head
    and tail as ASCII bytes (see :data:`_HEAD`), each with one %-format,
    once every member has passed its check. A member that does not raises
    ConfigurationError naming it.

    A class that is no event type's payload gets the text of a payload
    member holding one instead (:func:`_nested_text`), which no line
    matcher reads."""
    from .events import _EVENT_TYPES  # the schema; it imports this module

    event_type = _EVENT_TYPES.get(cls)
    if event_type is None:
        name = f"_{cls.__name__}"
        return _Text(f"isinstance({{0}}, {name})", "%s", "_nested_text({0}, {1})", f"a {cls.__name__}",
                     binds=((name, cls),))
    hints = typing.get_type_hints(cls)
    names = sorted(f.name for f in dataclasses.fields(cls) if f.init)
    members = [(name, f"m{i}", _converter(hints[name], fmt).inline()) for i, name in enumerate(names)]
    payload = "{" + ",".join(_quoted(name) + ":" + piece.spec for name, _, piece in members) + "}"
    checks = [piece.check.replace("{0}", var) for _, var, piece in members]
    args = "".join(piece.arg.replace("{0}", var).replace("{1}", repr(f"{event_type} payload: {name}")) + ", "
                   for name, var, piece in members)
    source = "\n".join([
        "def write(value, backend_ts, device_ts, profile, prev_hex, seq, stream, version_id):",
        *(f"    {var} = value.{name}" for name, var, _ in members),
        f"    if not ({' and '.join(checks) or 'True'}):",
        *(f"        if not {check}: _misfit({event_type + ' payload: ' + name!r}, {piece.what!r}, {var})"
          for (name, var, piece), check in zip(members, checks)),
        f"    return ({event_type!r}, ({_HEAD % _quoted(event_type)!r} % (backend_ts,"
        " 'null' if device_ts is None else device_ts, profile)).encode('ascii'),",
        f"            ({_TAIL % payload!r} % ({args}prev_hex, seq, stream, _quoted(version_id))).encode('ascii'))",
    ])
    # The module's own names, and those the members' texts bind.
    namespace = {**globals(), **{name: value for _, _, piece in members for name, value in piece.binds}}
    exec(compile(source, f"<writer of {cls.__qualname__}>", "exec"), namespace)
    return _Text(write=namespace["write"])


# LEDGER_FORMAT's values as the ledger writes and reads their text: per
# scalar, its check, its text, its regex, its converter and, for a list of
# it, its list converter. A writer takes any float for a float member and
# only an exact int for an int member, as the walk and the matcher read
# back; a line matcher takes each value only in its canonical text. A bytes
# text with an odd digit count matches its regex but not its converter,
# whose ValueError sends the line to the JSON path. A list of floats is one
# ``fromhex`` of its joined digits and one unpack (each item's text and its
# comma are 19 characters); a list of plain strings, which hold no quote,
# is one split at the quotes and comma between two of them. The JSON value of
# an int's, a bool's and a plain string's text is the value, so a list of
# them, or of them or None, is one call of the JSON scanner.
LEDGER_TEXT = Format(
    {
        float: _Text("isinstance({0}, float)", '"%s"', "_FLOAT_BITS({0}).hex()", "a float",
                     '"[0-9a-f]{16}"', "_UNPACK_FLOAT(_fromhex({0}[1:-1]))[0]",
                     """_unpack('>%dd' % (len({0}) // 19), _fromhex({0}[2:-2].replace('","', '')))"""),
        int: _Text("type({0}) is int", "%s", "{0}", "an integer", _INT, "int({0})", json_value=True),
        bool: _Text("type({0}) is bool", "%s", '("true" if {0} else "false")', "a boolean",
                    "true|false", "({0} == 'true')", json_value=True),
        str: _Text("isinstance({0}, str)", "%s", "_quoted({0})", "a string",
                   f'"{_PLAIN}"', "{0}[1:-1]", """tuple({0}[2:-2].split('","'))""", True),
        bytes: _Text("isinstance({0}, bytes)", '"%s"', "{0}.hex()", "bytes",
                     '"[0-9a-f]*"', "_fromhex({0}[1:-1])"),
    },
    defaults=False,
    of_dataclass=_writer_piece,
    of_tuple=_tuple_text,
    of_dict=None,
    of_optional=_optional_text,
)


def decode_as(hint, value, fmt: Format):
    """``value`` read as a value of type ``hint`` (a dataclass, or an
    annotation built from the scalars of ``fmt``, ``X | None``,
    ``tuple[X, ...]`` and ``dict[str, X]``) with the converter compiled from
    the annotations on first use, once per type and format. A dataclass
    needs its ``__init__`` fields as members, those with defaults only if
    ``fmt.defaults`` is false, and no other; a tuple comes from a list.
    Anything else, and a ConfigurationError from ``__post_init__``, raises
    ``DecodeError("<member path>: <problem>")``: a :class:`_Refusal` naming
    the first problem in field and item order, or an unknown member before
    a missing one."""
    return _converter(hint, fmt)(value)


def _shown(value: float) -> dict:
    return {"dec": repr(value), "hex": encode_float(value)}


def report_bytes(title: str, items: Iterable) -> bytes:
    """A report: the line ``# ledgerloop <title> report v1``, then one
    canonical JSON line per item, every float shown as
    ``{"dec": repr, "hex": bits}``."""
    lines = [f"# ledgerloop {title} report v1".encode("ascii")]
    lines.extend(canonical_json_bytes(map_floats(item, _shown)) for item in items)
    return b"\n".join(lines) + b"\n"


class EventEnvelope(NamedTuple):
    """One ledger record. ``payload`` is its typed value, an instance of its
    event type's class in ``events.PAYLOADS``, whether the record was
    appended or read back. ``prev_hash``/``hash`` are 32-byte digests."""

    seq: int
    stream_id: str
    environment_profile: str
    device_ts: int | None
    backend_ts: int
    version_id: str
    event_type: str
    payload: object
    prev_hash: bytes
    hash: bytes

    def body_dict(self) -> dict:
        """Record body as written to disk, minus the hash field; the payload
        as ``map_floats(payload, encode_float)``, whose canonical bytes its
        class's writer wrote."""
        return {
            "seq": self.seq,
            "stream_id": self.stream_id,
            "environment_profile": self.environment_profile,
            "device_ts": self.device_ts,
            "backend_ts": self.backend_ts,
            "version_id": self.version_id,
            "event_type": self.event_type,
            "payload": map_floats(self.payload, encode_float),
            "prev_hash": self.prev_hash.hex(),
        }

    def to_line(self) -> bytes:
        """The record's line, without the newline: the canonical bytes of
        its body dict with the ``hash`` member, which :meth:`Ledger.append`
        wrote without building that dict."""
        return _dumps({**self.body_dict(), "hash": self.hash.hex()})


def compute_record_hash(prev_hash: bytes, body_bytes: bytes) -> bytes:
    return hashlib.sha256(prev_hash + body_bytes).digest()


def _reject_number(text: str):
    raise ValueError(f"raw number {text}; canonical records hex-encode floats")


# No canonical record holds a float literal or NaN/Infinity. The C scanner
# calls these hooks only when it meets one, so valid lines pay nothing.
_DECODER = json.JSONDecoder(parse_float=_reject_number, parse_constant=_reject_number)
_scan = _DECODER.scan_once  # (the value at an index of a text, the index after it)


_KEYS = frozenset((
    "backend_ts", "device_ts", "environment_profile", "event_type", "hash",
    "payload", "prev_hash", "seq", "stream_id", "version_id",
))
# The envelope's members up to ``payload``, in EventEnvelope's field order.
_ENVELOPE_MEMBERS = itemgetter(
    "seq", "stream_id", "environment_profile", "device_ts", "backend_ts",
    "version_id", "event_type", "payload",
)
_HASH_MEMBER = len(b',"hash":"') + 64 + 1  # the hash member's bytes in a line


def _parse_line(line: bytes, seq_hint: int) -> tuple:
    """The envelope members up to ``payload`` of a stored line, with its
    ``prev_hash`` and ``hash`` texts, once the line has passed every check
    that needs no other record: valid JSON, exactly the envelope's members
    with their types, and canonical form. Whether the hash texts are the
    right lowercase hex is for the chain check to find (:func:`_verified`)."""
    try:
        obj = _DECODER.decode(line.decode("ascii"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, a raw float
        raise DecodeError(f"record {seq_hint} is not valid JSON: {exc}", seq=seq_hint) from None
    try:
        if type(obj) is not dict or obj.keys() != _KEYS:
            raise ValueError(f"members must be {', '.join(sorted(_KEYS))}")
        fields = _ENVELOPE_MEMBERS(obj)
        seq, stream_id, profile, device_ts, backend_ts, version_id, event_type, payload = fields
        if type(seq) is not int or type(backend_ts) is not int:
            raise ValueError("seq and backend_ts must be integers")
        # An integer (bool is not one) or None: every member that sorts
        # before "hash" is then a scalar, which _verified relies on.
        if device_ts is not None and type(device_ts) is not int:
            raise ValueError("device_ts must be an integer or null")
        if not (type(stream_id) is type(profile) is type(version_id) is type(event_type) is str):
            raise ValueError("stream_id, environment_profile, version_id, event_type must be strings")
        if type(payload) is not dict:
            raise ValueError("payload must be an object")
        prev_text, hash_text = obj["prev_hash"], obj["hash"]
        if not (type(prev_text) is type(hash_text) is str and len(hash_text) == 64):
            raise ValueError("hashes must be 64-char strings")
    except ValueError as exc:
        raise DecodeError(f"malformed record at seq {seq_hint}: {exc}", seq=seq_hint) from None
    # Sorting puts "hash" just before "payload", so re-encoding the parsed
    # object must give back the stored line byte for byte.
    if _dumps(obj) != line:
        raise DecodeError(f"record {seq_hint} is not in canonical form", seq=seq_hint)
    return fields, prev_text, hash_text


# -- the compiled line matchers ------------------------------------------------------

# A record's line, its members in sorted order; the groups are backend_ts,
# device_ts, environment_profile, hash, the payload's members, prev_hash,
# seq, stream_id and version_id.
_LINE = (
    r'\{"backend_ts":(%(int)s),"device_ts":(null|%(int)s),"environment_profile":"(%(plain)s)",'
    r'"event_type":%(event_type)s,"hash":"([^"]{64})","payload":\{%(payload)s\},'
    r'"prev_hash":"([^"]{64})","seq":(%(int)s),"stream_id":"(%(plain)s)","version_id":"(%(plain)s)"\}'
)


@functools.cache
def _line_reader(event_type: str, cls: type):
    """Compile, on first use and never at import, the line matcher of the
    records of ``event_type`` whose payload class is ``cls``: a function of
    a line's text that returns what :func:`_parse_line` returns for the
    line, with the payload's typed value built through ``cls``'s own
    ``__init__`` (the one :func:`frozen_record` generates, which runs
    ``__post_init__`` as the walk's does). One anchored regex admits the
    canonical bytes of such a record; a bytes member with an odd digit
    count, which the converter refuses; and, as the ``hash`` and
    ``prev_hash`` texts, any 64 characters but a quote. Whether those are
    lowercase hex is left to the chain comparisons of :func:`_verified`,
    which prove it or send the line to the JSON path. So a line it takes
    whose hash texts pass them would pass every check of
    :func:`_parse_line` and decode to the same value. It returns None for
    any other line and for a value ``cls`` refuses; the JSON path reads
    those. None for a class with a member no regex reads."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    texts = {f.name: _converter(hints[f.name], LEDGER_TEXT) for f in fields}
    if not all(text.regex for text in texts.values()):
        return None
    names = sorted(texts)
    regex = _LINE % {
        "int": _INT, "plain": _PLAIN, "event_type": re.escape(_quoted(event_type)),
        "payload": ",".join(f"{re.escape(_quoted(name))}:({texts[name].regex})" for name in names),
    }
    var = {name: f"m{i}" for i, name in enumerate(names)}
    args = [texts[f.name].convert.replace("{0}", var[f.name]) for f in fields]
    source = "\n".join([
        "def read(text):",
        "    m = fullmatch(text)",
        "    if m is None:",
        "        return None",
        f"    backend_ts, device_ts, profile, hash_text, {''.join(v + ', ' for v in var.values())}"
        "prev_text, seq, stream_id, version_id = m.groups()",
        "    try:",
        f"        value = cls({', '.join(args)})",  # a frozen_record class: no keyword-only field
        "        return (int(seq), stream_id, profile, None if device_ts == 'null' else int(device_ts),",
        "                int(backend_ts), version_id, event_type, value), prev_text, hash_text",
        "    except (ConfigurationError, ValueError):  # ValueError: an int too long, odd hex digits",
        "        return None",
    ])
    # The module's own names, and the three this matcher binds.
    namespace = {**globals(), "fullmatch": re.compile(regex).fullmatch, "cls": cls, "event_type": event_type}
    exec(compile(source, f"<line matcher of {cls.__qualname__}>", "exec"), namespace)
    return namespace["read"]


def frozen_record(cls: type) -> type:
    """``@dataclass(frozen=True)`` over a class with ``__slots__`` and no
    instance dict. Its ``__init__``, generated in place of the dataclass one
    with the same parameters, sets each field with one C call (its slot's
    ``__set__``), then runs ``__post_init__`` if the class has one. The
    slotted class is built from ``cls`` before ``dataclass`` sees it, so
    the frozen ``__setattr__`` guards the class returned; a default, which
    cannot share its name with a slot, is put back on its field. Pickling
    and copying build the value again through ``__init__`` (``__reduce__``),
    as the frozen ``__setattr__`` refuses the default slot restore. A field
    made with ``dataclasses.field`` is refused."""
    own = cls.__dict__.get("__annotations__", {})
    defaults = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
    if any(isinstance(value, dataclasses.Field) for value in defaults.values()):
        raise TypeError(f"{cls.__qualname__}: no generated __init__ for its fields")
    namespace = dict(
        cls.__dict__, __slots__=tuple(own), __qualname__=cls.__qualname__,
        __doc__="-",  # any docstring spares dataclass building one
        __reduce__=lambda self: (type(self), tuple([getattr(self, name) for name in names])),
    )
    for name in (*defaults, "__dict__", "__weakref__"):
        namespace.pop(name, None)
    doc = cls.__doc__
    cls = dataclass(frozen=True, init=False)(type(cls)(cls.__name__, cls.__bases__, namespace))
    fields = dataclasses.fields(cls)
    names, scope, params = [], {}, []
    for f in fields:
        names.append(f.name)
        scope[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.name in defaults:
            f.default = defaults[f.name]
        if f.default is not MISSING:
            scope[f"_default_{f.name}"] = f.default
        params.append(f"{f.name}=_default_{f.name}" if f.default is not MISSING else f.name)
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):",
        *[f"    _set_{name}(self, {name})" for name in names],
        *(["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []),
    ])
    exec(compile(source, f"<__init__ of {cls.__qualname__}>", "exec"), scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__doc__ = doc or f"{cls.__name__}({', '.join(names)})"
    return cls


class Ledger:
    """Append-only event log for exactly one stream and environment profile.

    A ledger is a writer: it chains and hashes each record and keeps only
    the last one, whose seq gives :func:`len` and whose hash is the chain
    head. With a ``path`` each record's line is written to that file with one
    unbuffered write (and fsynced by default) before the append returns, so
    a reader sees it at once; read the records back with :func:`read_records`. With ``path=None``, as the digital twin's
    throwaway evaluation runs use, nothing else is kept: the records are
    chained and hashed exactly as they would be written, so the head is the
    one the same run's file would end at. The file is opened for appending
    only when a new ledger creates it or a loaded one is first appended to,
    so loading and auditing a ledger needs no write access.

    Appends are serialized by an internal lock, so concurrent appends
    chain one after another.
    """

    def __init__(
        self,
        stream_id: str,
        environment_profile: str,
        path: str | Path | None = None,
        fsync: bool = True,
        _create: bool = True,
    ):
        if environment_profile not in ENVIRONMENT_PROFILES:
            raise ConfigurationError(
                f"unknown environment_profile {environment_profile!r}; "
                f"expected one of {ENVIRONMENT_PROFILES}"
            )
        if not isinstance(stream_id, str):
            raise ConfigurationError(f"stream_id must be a string, got {stream_id!r}")
        self.stream_id = stream_id
        self.environment_profile = environment_profile
        # Their JSON text, as every record's line holds it.
        self._stream_text, self._profile_text = _quoted(stream_id), _quoted(environment_profile)
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self._lock = threading.Lock()
        self._last: EventEnvelope | None = None
        self._handle = None
        self._size = 0  # file offset just past the last whole record
        self._torn = False  # a failed append left bytes that could not be cut
        if self.path is not None and _create:
            if self.path.exists():
                raise StorageError(f"refusing to overwrite existing ledger {self.path}")
            self._fh  # creates the file

    @property
    def _fh(self):
        """The append handle of a file-backed ledger, opened on first use."""
        if self._handle is None and self.path is not None:
            try:
                self._handle = open(self.path, "ab", buffering=0)
            except OSError as exc:
                raise StorageError(f"cannot open ledger file for appending: {exc}") from None
            self._size = self._handle.tell()  # append mode starts at the end
        return self._handle

    @_fh.setter
    def _fh(self, handle) -> None:
        self._handle = handle

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "Ledger":
        """Open an existing ledger file, streaming it through the verified
        read pass and keeping only its last record.

        Raises DecodeError carrying the first bad seq when any record fails
        the chain check (the seq :func:`verify_chain` returns), and a
        DecodeError without a seq at a payload the schema refuses or when
        the file is empty. The ledger holds no file handle until its first
        append; close it after appending, or use it as a context manager.
        """
        records = read_records(path)
        first = last = next(records)
        for last in records:
            pass
        ledger = cls(first.stream_id, first.environment_profile, path=path, _create=False)
        ledger._last = last
        return ledger

    # -- core operations ---------------------------------------------------

    def append(
        self,
        value: object,
        backend_ts: int,
        version_id: str,
        device_ts: int | None = None,
    ) -> EventEnvelope:
        """Append ``value`` as the payload of a record of its event type:
        assigns seq, chains hashes, writes durably.

        ``value`` is an instance of one of ``events.PAYLOADS``, written by its
        class's compiled writer, which gives the event type: the bytes of
        ``map_floats(value, encode_float)``, once every member holds its
        annotation's type (a float member any float, an int member an exact
        int). A value that cannot be written is a ConfigurationError naming
        the class, or the event type and the member, raised before anything
        is written. A write that fails or is short is a StorageError, and
        the file is cut back to its last record. Every record is stamped
        with the ledger's stream and profile, as the fold requires.
        """
        with self._lock:
            envelope, line = self._record(value, backend_ts, version_id, device_ts, self._last)
            if self.path is not None:
                self._write(line)
            self._last = envelope
            return envelope

    def append_together(self, values, backend_ts: int, version_id: str) -> list[EventEnvelope]:
        """Append each of ``values`` as :meth:`append` appends it, with no
        ``device_ts``, all with one write: a value that cannot be written
        appends none of them, a failed write cuts the file back to its last
        record, and a reader of the file sees all of them or none."""
        with self._lock:
            envelopes, lines, last = [], [], self._last
            for value in values:
                last, line = self._record(value, backend_ts, version_id, None, last)
                envelopes.append(last)
                lines.append(line)
            if self.path is not None:
                self._write(b"".join(lines))
            self._last = last
            return envelopes

    def _record(self, value, backend_ts, version_id, device_ts, last) -> tuple[EventEnvelope, bytes]:
        """The record of ``value`` chained after ``last``, and its line (empty
        for a ledger with no file); ConfigurationError as :meth:`append`
        says, and StorageError if the file ends in bytes a failed write left
        that could not be cut."""
        if device_ts is not None and type(device_ts) is not int:  # as _parse_line checks it
            raise ConfigurationError(f"device_ts must be an integer or None, got {device_ts!r}")
        if type(backend_ts) is not int or not isinstance(version_id, str):
            raise ConfigurationError("backend_ts must be an integer and version_id a string")
        kind = type(value)
        piece = LEDGER_TEXT.converters.get(kind)
        if piece is None and dataclasses.is_dataclass(kind):
            piece = _converter(kind, LEDGER_TEXT)
        if piece is None or piece.write is None:
            raise ConfigurationError(f"payload must be an instance of a payload class, got {kind.__name__}")
        seq, prev_hash = (0, GENESIS_HASH) if last is None else (last.seq + 1, last.hash)
        event_type, head, tail = piece.write(value, backend_ts, device_ts, self._profile_text,
                                             prev_hash.hex(), seq, self._stream_text, version_id)
        if self._torn:
            raise StorageError(f"{self.path} ends in a torn record; refusing to append")
        if event_type == "HEADER" and seq != 0:
            raise ConfigurationError("HEADER is only valid at seq 0")
        rec_hash = hashlib.sha256(prev_hash + head + tail).digest()
        envelope = tuple.__new__(EventEnvelope, (  # EventEnvelope(...), minus a Python call
            seq, self.stream_id, self.environment_profile, device_ts, backend_ts,
            version_id, event_type, value, prev_hash, rec_hash,
        ))
        if self.path is None:
            return envelope, b""
        return envelope, b'%s,"hash":"%s"%s\n' % (head, rec_hash.hex().encode("ascii"), tail)

    def _write(self, data: bytes) -> None:
        """Write the lines ``data`` to the ledger's file with one write on its
        unbuffered handle; StorageError, with the file cut back to its last
        record, if that write fails or is short."""
        fh = self._handle or self._fh
        try:
            # The handle is unbuffered: one write, which may be short.
            written = fh.write(data)
            if written != len(data):
                raise OSError(f"wrote {written} of {len(data)} bytes")
            if self.fsync:
                os.fsync(fh.fileno())
        except OSError as exc:
            self._cut_torn_tail()
            raise StorageError(f"append to {self.path} failed: {exc}") from None
        self._size += len(data)

    def _cut_torn_tail(self) -> None:
        """Truncate the file to the last whole record after a failed write, so
        the file never holds bytes of a record the ledger did not append. If
        that fails too, every later append is refused instead of chaining onto
        them."""
        try:
            self._fh.truncate(self._size)
        except OSError:
            self._torn = True

    def last(self) -> EventEnvelope | None:
        """The last record appended, or None while the ledger is empty."""
        return self._last

    def __len__(self) -> int:
        last = self._last
        return 0 if last is None else last.seq + 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_BLOCK = 1 << 20


def _file_lines(path: str | Path) -> Iterator[bytes]:
    """The lines of a ledger file, split as ``bytes.splitlines`` splits the
    whole file, read in blocks of 1 MiB so the whole file is never held at
    once. Each block is cut just after its last ``\n`` and split with one
    ``splitlines``; the bytes after the cut start the next block. A cut
    after a ``\n`` never parts a ``\r\n``, so the split is the whole
    file's."""
    try:
        with open(path, "rb") as fh:
            pieces: list[bytes] = []  # the bytes after the last cut
            while block := fh.read(_BLOCK):
                cut = block.rfind(b"\n") + 1
                if cut:
                    pieces.append(block[:cut])
                    yield from b"".join(pieces).splitlines()
                    pieces = [block[cut:]]
                else:
                    pieces.append(block)
            yield from b"".join(pieces).splitlines()
    except OSError as exc:
        raise StorageError(f"cannot read ledger file {path}: {exc}") from None


def _json_record(line: bytes, seq: int, prev_hash: bytes, prev_text: str) -> tuple:
    """The JSON path of the read pass for the line of record ``seq``: the
    envelope's members up to ``payload``, with the payload decoded by the
    annotation walk (``events.decode_payload``), the line's SHA-256
    (:func:`_body_digest`) and its hash text, once the line has passed
    :func:`_parse_line` and the seq, linkage and hash comparisons, in that
    order. A line that fails one raises the DecodeError carrying ``seq``
    that names it, and a payload the walk refuses one without a seq."""
    from .events import decode_payload  # the schema; it imports this module

    fields, line_prev_text, hash_text = _parse_line(line, seq)
    if fields[0] != seq:
        raise DecodeError(f"record {seq} carries seq {fields[0]}", seq=seq)
    if line_prev_text != prev_text:
        raise DecodeError(f"record {seq} does not chain from the record before it", seq=seq)
    digest = _body_digest(prev_hash, line)
    if digest.hex() != hash_text:
        raise DecodeError(f"record {seq} does not match its hash", seq=seq)
    return (*fields[:7], decode_payload(fields[6], fields[7])), digest, hash_text


def _body_digest(prev_hash: bytes, line: bytes) -> bytes:
    """The SHA-256 of ``prev_hash`` and the body of ``line``: the line with
    its ``hash`` member cut out, the head and tail :meth:`Ledger.append`
    hashed."""
    # Every member ahead of "hash" is a scalar, so the first match is it.
    at = line.index(b',"hash":"')
    digest = hashlib.sha256(prev_hash)
    digest.update(line[:at])
    digest.update(line[at + _HASH_MEMBER:])
    return digest.digest()


def _verified(lines: Iterable[bytes]) -> Iterator[EventEnvelope]:
    """The one read pass: yield each record, with its typed payload, once it
    has passed every check; raise DecodeError carrying the seq of the first
    record whose line does not, one without a seq for the first payload the
    schema refuses, or one without a seq after the last line if there was
    none.

    Each line is first offered to the line matcher of its event type's class
    (:func:`_line_reader`), whose match gives the typed payload. Then the
    seq and ``prev_hash`` linkage are compared, and the line's one SHA-256
    (:func:`_body_digest`) is compared with the ``hash`` text. Both hashes are compared as the text they are stored as,
    which proves them lowercase hex; the matcher leaves that to these
    comparisons. A line the matcher does not take, and a typed line that
    fails any comparison, is read again from the start by the JSON path
    (:func:`_json_record`), so its verdict, message and seq are the JSON
    path's. The envelope's digests are the bytes of the SHA-256.
    """
    from .events import PAYLOADS  # the schema; it imports this module

    readers = {event_type: _line_reader(event_type, cls) for event_type, cls in PAYLOADS.items()}
    prev_hash, prev_text = GENESIS_HASH, GENESIS_HASH.hex()
    for seq, line in enumerate(lines):
        # A matcher takes only whole lines of its own event type, so a
        # malformed line's slice at worst finds one that does not match.
        text = line.decode("latin-1")
        at = text.find('"event_type":"') + 14
        reader = readers.get(text[at:text.find('"', at)])
        parsed = None if reader is None else reader(text)
        if parsed is not None:
            fields, line_prev_text, hash_text = parsed
            rec_hash = _body_digest(prev_hash, line)
            if fields[0] != seq or line_prev_text != prev_text or rec_hash.hex() != hash_text:
                parsed = None
        if parsed is None:
            fields, rec_hash, hash_text = _json_record(line, seq, prev_hash, prev_text)
        yield tuple.__new__(EventEnvelope, (*fields, prev_hash, rec_hash))  # minus a Python call
        prev_hash, prev_text = rec_hash, hash_text
    if prev_hash is GENESIS_HASH:
        raise DecodeError("ledger file is empty")


def read_records(path: str | Path) -> Iterator[EventEnvelope]:
    """Stream the verified records of a ledger file, each with its typed
    payload (see :func:`_verified`); raises DecodeError carrying the first
    bad seq, without a seq at a payload the schema refuses, or without a
    seq once an empty file is read to its end. A StorageError or
    DecodeError is raised only after every record before it."""
    return _in_blocks(_verified(_file_lines(path)))


def _in_blocks(records: Iterator[EventEnvelope], size: int = 1024) -> Iterator[EventEnvelope]:
    """``records`` in order, read ``size`` at a time, so that the read pass
    and the reader's checks each run in long stretches with their code and
    data in the CPU's caches. A problem the read pass meets is raised only
    after the records before it."""
    block: list[EventEnvelope] = []
    try:
        for record in records:
            block.append(record)
            if len(block) == size:
                yield from block
                block.clear()
    except LedgerLoopError:
        yield from block
        raise
    yield from block


def verify_chain(source: "Ledger | str | Path") -> int | None:
    """Check seq gaplessness, chain linkage, every hash, that every line is
    the canonical encoding of its record (no raw floats), and that every
    payload is one the schema takes, with the same pass that
    :func:`read_records` and :meth:`Ledger.open` run.

    Returns None when the whole file verifies, otherwise the number of
    records read before the first refusal: the offending seq, or 0 for an
    empty file. Takes a file path or a file-backed Ledger, whose file is
    re-read so on-disk corruption is what gets checked; an in-memory ledger
    has no records to check and is a ConfigurationError.
    """
    if isinstance(source, Ledger):
        if source.path is None:
            raise ConfigurationError("an in-memory ledger keeps no records to verify")
        source = source.path
    count = 0
    try:
        for _ in _verified(_file_lines(source)):
            count += 1
    except DecodeError:
        return count
    return None

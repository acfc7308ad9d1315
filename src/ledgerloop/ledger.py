"""Append-only, hash-chained event ledger: the system's source of truth.

Wire format: one record per line, each a canonical JSON object with
lexicographically sorted keys, no insignificant whitespace, integers in base
10, and every float carried as a 16-hex-digit big-endian IEEE-754 string (see
:func:`encode_float`). Record ``n`` has ``seq == n``; its ``hash`` is the
SHA-256 of ``prev_hash`` concatenated with the canonical bytes of the record
body (everything except the ``hash`` field itself), and record 0 chains from
32 zero bytes. The line is the body with the ``hash`` member inserted (see
:func:`_line`). Any single corrupted byte therefore breaks either a hash
recomputation or the chain linkage.

A :class:`Ledger` only writes: it keeps its last record, whose seq gives the
count and whose hash is the chain head, never a copy of the records before
it. Every read of a ledger file goes through one verified pass
(:func:`_verified`): :func:`read_records`, :meth:`Ledger.open` and
:func:`verify_chain` all check the same things, so a record a reader sees has
passed the chain check.

This module is the one canonical encode path: ledger lines, the run header
and record payloads (:func:`map_floats`) and every report
(:func:`report_bytes`) are built with :func:`canonical_json_bytes`.
:func:`strict_inverse` reads a payload back into its typed value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import threading
import types
import typing
from dataclasses import MISSING, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import ConfigurationError, DecodeError, IsolationError, StorageError

GENESIS_HASH = b"\x00" * 32

ENVIRONMENT_PROFILES = ("dev", "test", "prod-sim")

EVENT_TYPES = (
    "HEADER",
    "DATA_INGESTED",
    "FEATURE_SNAPSHOT",
    "DECISION",
    "OUTCOME_OBSERVED",
    "MODEL_UPDATE",
    "VERSION_CHANGE",
    "ERROR",
    "ALERT",
)

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
    raise _Refusal(f"expected 16 lowercase hex chars, got {hex_str!r}")


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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)
# JSONEncoder.encode builds a C encoder on every call; build it once. Without
# the C accelerator the pure-Python encoder gives the same bytes.
_C_ENCODE = None if json.encoder.c_make_encoder is None else json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True
)


def _dumps(obj) -> bytes:
    # The encoding step of canonical_json_bytes, for bodies already checked.
    if _C_ENCODE is None:
        return _ENCODER.encode(obj).encode("ascii")
    return "".join(_C_ENCODE(obj, 0)).encode("ascii")


# The fields of each dataclass that map_floats has met: those its __init__ takes.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}
_LEAVES = {str, int, bool, type(None)}


def map_floats(obj, show):
    """``obj`` ready for :func:`canonical_json_bytes`: every float replaced by
    ``show(float)`` (ledger payloads and the run header use
    :func:`encode_float`), bytes by their lowercase hex, a tuple by a list,
    and a dataclass by the dict of the fields its ``__init__`` takes.
    :func:`strict_inverse` reads back what ``show=encode_float`` gives."""
    kind = type(obj)
    if kind in _LEAVES:
        return obj
    if kind is float:
        return show(obj)
    if kind is list or kind is tuple:
        kinds = set(map(type, obj))  # most lists hold one kind of leaf
        if kinds <= _LEAVES:
            return list(obj)
        if kinds == {float}:
            return [show(v) for v in obj]
        return [map_floats(v, show) for v in obj]
    names = _FIELD_NAMES.get(kind)
    if names is not None:
        fields = {}
        for name in names:  # most fields hold a leaf
            value = getattr(obj, name)
            fields[name] = value if type(value) in _LEAVES else map_floats(value, show)
        return fields
    if kind is dict:
        return {str(k): map_floats(v, show) for k, v in obj.items()}
    if kind is bytes:
        return obj.hex()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _FIELD_NAMES[kind] = tuple(f.name for f in dataclasses.fields(obj) if f.init)
        return map_floats(obj, show)
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


def _exactly(kind: type, what: str):
    def convert(value):
        if type(value) is not kind:  # so an int is never a bool
            raise _Refusal(f"expected {what}, got {value!r}")
        return value

    return convert


def _bytes(value) -> bytes:
    raw = _unhex(value)
    if raw is None:
        raise _Refusal(f"expected lowercase hex, got {value!r}")
    return raw


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _tuple_of(convert):
    def convert_all(value):
        if type(value) is not list:
            raise _Refusal(f"expected a list, got {value!r}")
        try:
            return tuple(map(convert, value))
        except _Refusal:
            for i, item in enumerate(value):  # only to name the item
                try:
                    convert(item)
                except _Refusal as refusal:
                    raise _Refusal(refusal.problem, f"[{i}]{refusal.path}") from None
            raise

    return convert_all


def _dict_of(convert):
    def convert_all(value):
        if type(value) is not dict:
            raise _Refusal(f"expected an object, got {value!r}")
        converted = {}
        for key, item in value.items():
            if type(key) is not str:
                raise _Refusal(f"expected a string key, got {key!r}")
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
            raise _Refusal(f"expected an object, got {value!r}")
        given = spec
        if value.keys() != members:
            missing, unknown = required - value.keys(), value.keys() - members
            if missing or unknown:
                # A misspelt member is both; its spelling here names the typo.
                name = min(unknown or missing, key=str)
                raise _Refusal("not a member" if unknown else "missing", f".{name}")
            given = [(name, member) for name, member in spec if name in value]
        try:
            kwargs = {name: member(value[name]) for name, member in given}
        except _Refusal:
            for name, member in given:  # only to name the member
                try:
                    member(value[name])
                except _Refusal as refusal:
                    raise _Refusal(refusal.problem, f".{name}{refusal.path}") from None
            raise
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
    raise _Refusal(f"expected a number, got {value!r}")


@dataclass(frozen=True)
class Format:
    """How typed values are written as JSON-like data: ``converters`` maps
    each scalar annotation to its converter (the compiler adds the ones it
    builds, once per annotation), and ``defaults`` says whether a dataclass
    member left out takes its field's default."""

    converters: dict
    defaults: bool


# Ledger payloads and the run header: floats and bytes as lowercase hex,
# exactly the ``__init__`` fields as members.
LEDGER_FORMAT = Format(
    {
        float: decode_float,
        bytes: _bytes,
        int: _exactly(int, "an integer"),
        str: _exactly(str, "a string"),
        bool: _exactly(bool, "a boolean"),
        dict: _exactly(dict, "an object"),
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
        convert = _dataclass(hint, fmt)
    elif origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        convert = _tuple_of(_converter(args[0], fmt))
    elif origin is dict and args[0] is str:
        convert = _dict_of(_converter(args[1], fmt))
    elif origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        convert = _optional(_converter(args[0] if args[1] is type(None) else args[1], fmt))
    else:
        raise TypeError(f"no canonical decoding for {hint!r}")
    fmt.converters[hint] = convert
    return convert


def decode_as(hint, value, fmt: Format):
    """``value`` read as a value of type ``hint`` (a dataclass, or an
    annotation built from the scalars of ``fmt``, ``X | None``,
    ``tuple[X, ...]`` and ``dict[str, X]``) with the converter compiled from
    the annotations on first use, once per type and format. A dataclass
    needs its ``__init__`` fields as members, those with defaults only if
    ``fmt.defaults`` is false, and no other; a tuple comes from a list.
    Anything else, and a ConfigurationError from ``__post_init__``, raises
    ``DecodeError("<member path>: <problem>")``."""
    return _converter(hint, fmt)(value)


def strict_inverse(hint, what: str):
    """The decoder of what ``map_floats(value, encode_float)`` gives for a
    ``value`` of type ``hint``: :func:`decode_as` in :data:`LEDGER_FORMAT`,
    where an int is never a bool and floats and bytes are lowercase hex.
    It raises ``DecodeError("<what>: <member>: <problem>")``."""

    def decode(value):
        try:
            return _converter(hint, LEDGER_FORMAT)(value)
        except _Refusal as refusal:
            raise DecodeError(f"{what}: {refusal}") from None

    return decode


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
    """One ledger record. ``payload`` is a canonical-ready dict (no raw
    floats); ``prev_hash``/``hash`` are 32-byte digests."""

    seq: int
    stream_id: str
    environment_profile: str
    device_ts: int | None
    backend_ts: int
    version_id: str
    event_type: str
    payload: dict
    prev_hash: bytes
    hash: bytes

    def body_dict(self) -> dict:
        """Record body as written to disk, minus the hash field."""
        return {
            "seq": self.seq,
            "stream_id": self.stream_id,
            "environment_profile": self.environment_profile,
            "device_ts": self.device_ts,
            "backend_ts": self.backend_ts,
            "version_id": self.version_id,
            "event_type": self.event_type,
            "payload": self.payload,
            "prev_hash": self.prev_hash.hex(),
        }

    def to_line(self) -> bytes:
        """The record's line, without the newline: the bytes :meth:`Ledger.append` wrote."""
        return _line(_dumps(self.body_dict()), self.hash)


def compute_record_hash(prev_hash: bytes, body_bytes: bytes) -> bytes:
    return hashlib.sha256(prev_hash + body_bytes).digest()


def _line(body: bytes, rec_hash: bytes) -> bytes:
    """A record's line: its canonical body with ``,"hash":"<hex>"`` inserted
    just before ``,"payload":``, where sorting puts it. Every member ahead of
    ``payload`` is a scalar, so the first ``,"payload":`` is the member."""
    at = body.index(b',"payload":')
    return body[:at] + b',"hash":"' + rec_hash.hex().encode("ascii") + b'"' + body[at:]


def _is_device_ts(value) -> bool:
    # An integer (bool is not one) or None. Keeping it a scalar keeps every
    # member that sorts before "payload" a scalar, which _line relies on.
    return value is None or type(value) is int


def _reject_number(text: str):
    raise ValueError(f"raw number {text}; canonical records hex-encode floats")


# No canonical record holds a float literal or NaN/Infinity. The C scanner
# calls these hooks only when it meets one, so valid lines pay nothing.
_DECODER = json.JSONDecoder(parse_float=_reject_number, parse_constant=_reject_number)


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
        if not _is_device_ts(device_ts):
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


class Ledger:
    """Append-only event log for exactly one stream and environment profile.

    A ledger is a writer: it chains and hashes each record and keeps only
    the last one, whose seq gives :func:`len` and whose hash is the chain
    head. With a ``path`` each record's line is written to that file (flushed,
    and fsynced by default, before the append returns); read the records
    back with :func:`read_records`. With ``path=None``, as the digital twin's
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
                self._handle = open(self.path, "ab")
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
        DecodeError without a seq when the file is empty. The ledger holds
        no file handle until its first append; close it after appending, or
        use it as a context manager.
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
        event_type: str,
        payload: object,
        backend_ts: int,
        version_id: str,
        device_ts: int | None = None,
        stream_id: str | None = None,
        environment_profile: str | None = None,
    ) -> EventEnvelope:
        """Append one record: assigns seq, chains hashes, writes durably.

        ``payload`` is a canonical-ready dict, checked for raw floats, or a
        typed payload (a dataclass instance), written as
        ``map_floats(payload, encode_float)``.
        ``stream_id``/``environment_profile`` default to the ledger's own;
        passing a mismatching value is an isolation error, which is how
        mixed-profile ledgers are made unrepresentable.
        """
        if event_type not in EVENT_TYPES:
            raise ConfigurationError(f"unknown event_type {event_type!r}")
        if not _is_device_ts(device_ts):
            raise ConfigurationError(f"device_ts must be an integer or None, got {device_ts!r}")
        if type(backend_ts) is not int or not isinstance(version_id, str):
            raise ConfigurationError("backend_ts must be an integer and version_id a string")
        if isinstance(payload, dict):
            _reject_floats(payload, "$.payload")
        elif dataclasses.is_dataclass(payload) and not isinstance(payload, type):
            # map_floats leaves only strings, ints, bools, None, lists and
            # string-keyed dicts, so there is no raw float to look for.
            payload = map_floats(payload, encode_float)
        else:
            raise ConfigurationError(
                f"payload must be a dict or a payload dataclass, got {type(payload).__name__}"
            )
        if stream_id is not None and stream_id != self.stream_id:
            raise IsolationError(
                f"stream {stream_id!r} does not match ledger stream {self.stream_id!r}"
            )
        if environment_profile is not None and environment_profile != self.environment_profile:
            raise IsolationError(
                f"profile {environment_profile!r} does not match ledger "
                f"profile {self.environment_profile!r}"
            )
        with self._lock:
            if self._torn:
                raise StorageError(f"{self.path} ends in a torn record; refusing to append")
            last = self._last
            seq, prev_hash = (0, GENESIS_HASH) if last is None else (last.seq + 1, last.hash)
            if event_type == "HEADER" and seq != 0:
                raise ConfigurationError("HEADER is only valid at seq 0")
            body = _dumps({
                "seq": seq,
                "stream_id": self.stream_id,
                "environment_profile": self.environment_profile,
                "device_ts": device_ts,
                "backend_ts": backend_ts,
                "version_id": version_id,
                "event_type": event_type,
                "payload": payload,
                "prev_hash": prev_hash.hex(),
            })
            rec_hash = compute_record_hash(prev_hash, body)
            envelope = EventEnvelope(
                seq, self.stream_id, self.environment_profile, device_ts, backend_ts,
                version_id, event_type, payload, prev_hash, rec_hash,
            )
            if self.path is not None:
                line = _line(body, rec_hash) + b"\n"
                fh = self._fh
                try:
                    fh.write(line)
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                except OSError as exc:
                    self._cut_torn_tail()
                    raise StorageError(f"append to {self.path} failed: {exc}") from None
                self._size += len(line)
            self._last = envelope
            return envelope

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


def _file_lines(path: str | Path) -> Iterator[bytes]:
    """The lines of a ledger file, split as ``bytes.splitlines`` splits them,
    read one file line at a time so the whole file is never held at once."""
    try:
        with open(path, "rb") as fh:
            for chunk in fh:
                yield from chunk.splitlines()
    except OSError as exc:
        raise StorageError(f"cannot read ledger file {path}: {exc}") from None


def _verified(lines: Iterable[bytes]) -> Iterator[EventEnvelope]:
    """The one read pass: yield each record once it has passed every check;
    raise DecodeError carrying the seq of the first record that does not,
    or one without a seq after the last line if there was none.

    Per line: one parse, which also checks the line's own shape and
    canonical form (:func:`_parse_line`), then the seq and ``prev_hash``
    linkage, and one SHA-256 over ``prev_hash`` plus the body: the line with
    its ``hash`` member cut out (the inverse of :func:`_line`). Both hashes
    are compared as the text they are stored as; the envelope's digests are
    the bytes of that SHA-256.
    """
    prev_hash, prev_text = GENESIS_HASH, GENESIS_HASH.hex()
    for seq, line in enumerate(lines):
        fields, line_prev_text, hash_text = _parse_line(line, seq)
        if fields[0] != seq:
            raise DecodeError(f"record {seq} carries seq {fields[0]}", seq=seq)
        if line_prev_text != prev_text:
            raise DecodeError(f"record {seq} does not chain from the record before it", seq=seq)
        # Every member ahead of "hash" is a scalar, so the first match is it.
        at = line.index(b',"hash":"')
        digest = hashlib.sha256(prev_hash + line[:at] + line[at + _HASH_MEMBER:])
        if digest.hexdigest() != hash_text:
            raise DecodeError(f"record {seq} does not match its hash", seq=seq)
        rec_hash = digest.digest()
        yield EventEnvelope(*fields, prev_hash, rec_hash)
        prev_hash, prev_text = rec_hash, hash_text
    if prev_hash is GENESIS_HASH:
        raise DecodeError("ledger file is empty")


def read_records(path: str | Path) -> Iterator[EventEnvelope]:
    """Stream the verified records of a ledger file (see :func:`_verified`);
    raises DecodeError carrying the first bad seq, or without a seq once an
    empty file is read to its end."""
    return _verified(_file_lines(path))


def verify_chain(source: "Ledger | str | Path") -> int | None:
    """Check seq gaplessness, chain linkage, every hash, and that every line
    is the canonical encoding of its record (no raw floats), with the same
    pass that :func:`read_records` and :meth:`Ledger.open` run.

    Returns None when the whole file verifies, otherwise the smallest
    offending seq. Takes a file path or a file-backed Ledger, whose file is
    re-read so on-disk corruption is what gets checked; an in-memory ledger
    has no records to check and is a ConfigurationError.
    """
    if isinstance(source, Ledger):
        if source.path is None:
            raise ConfigurationError("an in-memory ledger keeps no records to verify")
        source = source.path
    try:
        for _ in _verified(_file_lines(source)):
            pass
    except DecodeError as exc:
        return exc.seq
    return None

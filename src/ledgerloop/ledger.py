"""Append-only, hash-chained event ledger: the system's source of truth.

Wire format: one record per line, each a canonical JSON object with
lexicographically sorted keys, no insignificant whitespace, integers in base
10, and every float carried as a 16-hex-digit big-endian IEEE-754 string (see
:func:`encode_float`). Record ``n`` has ``seq == n``; its ``hash`` is the
SHA-256 of ``prev_hash`` concatenated with the canonical bytes of the record
body (everything except the ``hash`` field itself, which is the record's line
with its ``"hash":"<64 hex>",`` member cut out), and record 0 chains from 32
zero bytes. Any single corrupted byte therefore breaks either a hash
recomputation or the chain linkage.

Every read of a ledger file goes through one verified pass (:func:`_verified`):
:func:`read_records`, :meth:`Ledger.open` and :func:`verify_chain` all check
the same things, so a record a reader sees has passed the chain check.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

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
    """Inverse of :func:`encode_float`; rejects anything but 16 hex chars."""
    if not isinstance(hex_str, str) or len(hex_str) != 16:
        raise DecodeError(f"float encoding must be 16 hex chars, got {hex_str!r}")
    try:
        raw = bytes.fromhex(hex_str)
    except ValueError:
        raise DecodeError(f"malformed float encoding {hex_str!r}") from None
    return struct.unpack(">d", raw)[0]


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


def _dumps(obj) -> bytes:
    # The encoding step of canonical_json_bytes, for bodies already checked.
    return _ENCODER.encode(obj).encode("ascii")


@dataclass(frozen=True)
class EventEnvelope:
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
        """The record's line, without the newline. The body is not checked
        for raw floats here: :meth:`Ledger.append` checks it with
        :func:`canonical_json_bytes`, and the read pass refuses them on
        parse."""
        body = self.body_dict()
        body["hash"] = self.hash.hex()
        return _dumps(body)


def compute_record_hash(prev_hash: bytes, body_bytes: bytes) -> bytes:
    return hashlib.sha256(prev_hash + body_bytes).digest()


def _is_device_ts(value) -> bool:
    # An integer (bool is not one) or None. Keeping it a scalar keeps every
    # member that sorts before "hash" a scalar, which _verified relies on.
    return value is None or type(value) is int


def _envelope_from_dict(obj: dict, seq_hint: int) -> EventEnvelope:
    try:
        prev_hash = bytes.fromhex(obj["prev_hash"])
        rec_hash = bytes.fromhex(obj["hash"])
        if len(prev_hash) != 32 or len(rec_hash) != 32:
            raise ValueError("hashes must be 32 bytes")
        if not _is_device_ts(obj["device_ts"]):
            raise ValueError("device_ts must be an integer or null")
        if not isinstance(obj["environment_profile"], str) or not isinstance(obj["event_type"], str):
            raise ValueError("environment_profile and event_type must be strings")
        return EventEnvelope(
            seq=int(obj["seq"]),
            stream_id=obj["stream_id"],
            environment_profile=obj["environment_profile"],
            device_ts=obj["device_ts"],
            backend_ts=int(obj["backend_ts"]),
            version_id=obj["version_id"],
            event_type=obj["event_type"],
            payload=obj["payload"],
            prev_hash=prev_hash,
            hash=rec_hash,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DecodeError(f"malformed record at seq {seq_hint}: {exc}", seq=seq_hint) from None


def _reject_number(text: str):
    raise ValueError(f"raw number {text}; canonical records hex-encode floats")


# No canonical record holds a float literal or NaN/Infinity. The C scanner
# calls these hooks only when it meets one, so valid lines pay nothing.
_DECODER = json.JSONDecoder(parse_float=_reject_number, parse_constant=_reject_number)


def _parse_line(line: bytes, seq_hint: int) -> EventEnvelope:
    try:
        obj = _DECODER.decode(line.decode("ascii"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, a raw float
        raise DecodeError(f"record {seq_hint} is not valid JSON: {exc}", seq=seq_hint) from None
    if not isinstance(obj, dict):
        raise DecodeError(f"record {seq_hint} is not an object", seq=seq_hint)
    return _envelope_from_dict(obj, seq_hint)


class Ledger:
    """Append-only event log for exactly one stream and environment profile.

    File-backed when ``path`` is given (each append is flushed, and fsynced
    by default, before returning) or purely in-memory when ``path`` is None,
    which the digital twin uses for throwaway evaluation runs. The record
    bytes are identical either way.

    Appends are serialized by an internal lock; readers always observe a
    prefix of the final record sequence.
    """

    def __init__(
        self,
        stream_id: str,
        environment_profile: str,
        path: str | Path | None = None,
        fsync: bool = True,
        _records: list[EventEnvelope] | None = None,
        _create: bool = True,
    ):
        if environment_profile not in ENVIRONMENT_PROFILES:
            raise ConfigurationError(
                f"unknown environment_profile {environment_profile!r}; "
                f"expected one of {ENVIRONMENT_PROFILES}"
            )
        self.stream_id = stream_id
        self.environment_profile = environment_profile
        self.path = Path(path) if path is not None else None
        self.fsync = fsync
        self._lock = threading.Lock()
        self._records: list[EventEnvelope] = _records or []
        self._last_hash = self._records[-1].hash if self._records else GENESIS_HASH
        self._fh = None
        self._size = 0  # file offset just past the last whole record
        self._torn = False  # a failed append left bytes that could not be cut
        if self.path is not None:
            if _create:
                if self.path.exists():
                    raise StorageError(f"refusing to overwrite existing ledger {self.path}")
                try:
                    self._fh = open(self.path, "ab")
                except OSError as exc:
                    raise StorageError(f"cannot create ledger file: {exc}") from None
            else:
                try:
                    self._fh = open(self.path, "ab")
                except OSError as exc:
                    raise StorageError(f"cannot open ledger file: {exc}") from None
            self._size = self._fh.tell()  # append mode starts at the end

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "Ledger":
        """Load an existing ledger file through the verified read pass.

        Raises DecodeError carrying the first bad seq when any record fails
        the chain check (the seq :func:`verify_chain` returns), and a
        DecodeError without a seq when the file is empty. The ledger holds
        the file open for appends; close it, or use it as a context manager.
        """
        records = list(read_records(path))
        if not records:
            raise DecodeError("ledger file is empty")
        first = records[0]
        ledger = cls(
            stream_id=first.stream_id,
            environment_profile=first.environment_profile,
            path=path,
            _records=records,
            _create=False,
        )
        return ledger

    # -- core operations ---------------------------------------------------

    def append(
        self,
        event_type: str,
        payload: dict,
        backend_ts: int,
        version_id: str,
        device_ts: int | None = None,
        stream_id: str | None = None,
        environment_profile: str | None = None,
    ) -> EventEnvelope:
        """Append one record: assigns seq, chains hashes, writes durably.

        ``stream_id``/``environment_profile`` default to the ledger's own;
        passing a mismatching value is an isolation error, which is how
        mixed-profile ledgers are made unrepresentable.
        """
        if event_type not in EVENT_TYPES:
            raise ConfigurationError(f"unknown event_type {event_type!r}")
        if not _is_device_ts(device_ts):
            raise ConfigurationError(f"device_ts must be an integer or None, got {device_ts!r}")
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
            seq = len(self._records)
            if event_type == "HEADER" and seq != 0:
                raise ConfigurationError("HEADER is only valid at seq 0")
            fields = dict(
                seq=seq,
                stream_id=self.stream_id,
                environment_profile=self.environment_profile,
                device_ts=device_ts,
                backend_ts=backend_ts,
                version_id=version_id,
                event_type=event_type,
                payload=payload,
                prev_hash=self._last_hash,
            )
            body = canonical_json_bytes(EventEnvelope(**fields, hash=b"").body_dict())
            rec_hash = compute_record_hash(self._last_hash, body)
            envelope = EventEnvelope(**fields, hash=rec_hash)
            if self._fh is not None:
                line = envelope.to_line() + b"\n"
                try:
                    self._fh.write(line)
                    self._fh.flush()
                    if self.fsync:
                        os.fsync(self._fh.fileno())
                except OSError as exc:
                    self._cut_torn_tail()
                    raise StorageError(f"append to {self.path} failed: {exc}") from None
                self._size += len(line)
            self._records.append(envelope)
            self._last_hash = rec_hash
            return envelope

    def _cut_torn_tail(self) -> None:
        """Truncate the file to the last whole record after a failed write, so
        the file never holds bytes the in-memory ledger does not. If that fails
        too, every later append is refused instead of chaining onto them."""
        try:
            self._fh.truncate(self._size)
        except OSError:
            self._torn = True

    def iterate(
        self, from_seq: int = 0, event_types: Iterable[str] | None = None
    ) -> Iterator[EventEnvelope]:
        """Yield records in seq order, optionally filtered by event type."""
        if from_seq < 0:
            raise ConfigurationError("from_seq must be >= 0")
        wanted = None if event_types is None else frozenset(event_types)
        with self._lock:
            snapshot = self._records[from_seq:]
        for record in snapshot:
            if wanted is None or record.event_type in wanted:
                yield record

    def records(self) -> list[EventEnvelope]:
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def next_seq(self) -> int:
        return len(self)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_HASH_MEMBER = b',"hash":"'
_HASH_MEMBER_LEN = len(_HASH_MEMBER) + 64 + 1  # the key, 64 hex digits, the closing quote


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
    raise DecodeError carrying the seq of the first record that does not.

    Per line: one parse (the decoder refuses raw floats and NaN/Infinity),
    the seq and ``prev_hash`` linkage, one canonical re-encode that must equal
    the stored line byte for byte, and one SHA-256 over ``prev_hash`` plus the
    body bytes. The body bytes are the line with its ``"hash":"<64 hex>",``
    member cut out: the line is canonical by then, its members are sorted and
    those before ``hash`` are scalars, so the first ``,"hash":"`` is the
    record's own. A wrong cut could only fail the hash comparison.
    """
    prev_hash = GENESIS_HASH
    for seq, line in enumerate(lines):
        record = _parse_line(line, seq)
        if record.seq != seq:
            raise DecodeError(f"record {seq} carries seq {record.seq}", seq=seq)
        if record.prev_hash != prev_hash:
            raise DecodeError(f"record {seq} does not chain from the record before it", seq=seq)
        if record.to_line() != line:
            raise DecodeError(f"record {seq} is not in canonical form", seq=seq)
        cut = line.find(_HASH_MEMBER)
        body = line[:cut] + line[cut + _HASH_MEMBER_LEN:]
        if compute_record_hash(prev_hash, body) != record.hash:
            raise DecodeError(f"record {seq} does not match its hash", seq=seq)
        prev_hash = record.hash
        yield record


def read_records(path: str | Path) -> Iterator[EventEnvelope]:
    """Stream the verified records of a ledger file (see :func:`_verified`);
    raises DecodeError carrying the first bad seq."""
    return _verified(_file_lines(path))


def verify_chain(source: "Ledger | str | Path") -> int | None:
    """Check seq gaplessness, chain linkage, every hash, and that every line
    is the canonical encoding of its record (no raw floats), with the same
    pass that :func:`read_records` and :meth:`Ledger.open` run.

    Returns None when the whole ledger verifies, otherwise the smallest
    offending seq. Works on a file path or a Ledger (file-backed ledgers are
    re-read from disk so on-disk corruption is what gets checked).
    """
    if isinstance(source, Ledger) and source.path is None:
        lines = (record.to_line() for record in source.records())
    else:
        lines = _file_lines(source.path if isinstance(source, Ledger) else source)
    try:
        for _ in _verified(lines):
            pass
    except DecodeError as exc:
        return exc.seq
    return None

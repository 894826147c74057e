"""Fixed-width binary artifact files.

relations file ("GTSR"): little-endian header of magic, version u16,
fps u16, entity_count u16, reserved u16, followed by an entity table of
{id u16, kind u8, name_len u8, name utf-8}, then packed 22-byte records
sorted by (frame, a, b).

framelog file ("GTFL"): same header shape plus frame_count u32, the
same entity table, then float64 poses (x, y, z, yaw_deg) frame-major in
entity-table order.  Poses stay f64 so spatial records recompute
bit-identically from a reloaded log.
"""

from __future__ import annotations

import struct

import numpy as np

from .collectors import RELATION_DTYPE
from .errors import CorruptCorpus
from .model import EntityKind
from .simulation import FrameLog

RELATIONS_MAGIC = b"GTSR"
FRAMELOG_MAGIC = b"GTFL"
FORMAT_VERSION = 1

_KIND_CODE = {
    EntityKind.CAMERA: 0,
    EntityKind.ACTOR: 1,
    EntityKind.OBJECT: 2,
    EntityKind.POI: 3,
}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def _pack_entity_table(ids, kinds, names) -> bytes:
    rows = []
    for eid, kind, name in zip(ids, kinds, names):
        if not 0 <= eid <= 0xFFFF:
            raise ValueError(f"entity id {eid} does not fit the u16 id field")
        # a name longer than 255 bytes is cut on a character boundary
        raw = name.encode("utf-8")[:255].decode("utf-8", "ignore").encode("utf-8")
        rows.append(struct.pack("<HBB", eid, _KIND_CODE[kind], len(raw)) + raw)
    return b"".join(rows)


def _unpack_entity_table(buf: bytes, offset: int, count: int):
    ids, kinds, names = [], [], []
    for _ in range(count):
        if offset + 4 > len(buf):
            raise CorruptCorpus("truncated entity table")
        eid, kind_code, name_len = struct.unpack_from("<HBB", buf, offset)
        offset += 4
        if offset + name_len > len(buf):
            raise CorruptCorpus("truncated entity name")
        try:
            kind = _CODE_KIND[kind_code]
        except KeyError:
            raise CorruptCorpus(f"unknown entity kind code {kind_code}") from None
        ids.append(eid)
        kinds.append(kind)
        try:
            names.append(buf[offset:offset + name_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptCorpus(f"entity {eid} name is not UTF-8: {exc}") from None
        offset += name_len
    return tuple(ids), tuple(kinds), tuple(names), offset


def write_relations(path, records: np.ndarray, fps: int, ids, kinds, names):
    header = RELATIONS_MAGIC + struct.pack("<HHHH", FORMAT_VERSION, fps, len(ids), 0)
    table = _pack_entity_table(ids, kinds, names)
    body = np.ascontiguousarray(records.astype(RELATION_DTYPE, copy=False))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table)
        fh.write(body.tobytes())


def read_relations(path):
    """-> (fps, (ids, kinds, names), records array)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:4] != RELATIONS_MAGIC:
        raise CorruptCorpus(f"{path}: not a relations file")
    version, fps, entity_count, _ = struct.unpack_from("<HHHH", buf, 4)
    if version != FORMAT_VERSION:
        raise CorruptCorpus(f"{path}: unsupported version {version}")
    ids, kinds, names, offset = _unpack_entity_table(buf, 12, entity_count)
    payload = len(buf) - offset
    if payload % RELATION_DTYPE.itemsize:
        raise CorruptCorpus(f"{path}: record payload not a multiple of "
                            f"{RELATION_DTYPE.itemsize} bytes")
    records = np.frombuffer(buf, dtype=RELATION_DTYPE, offset=offset)
    return fps, (ids, kinds, names), records


def write_framelog(path, log: FrameLog):
    header = FRAMELOG_MAGIC + struct.pack(
        "<HHHHI", FORMAT_VERSION, log.fps, log.entity_count, 0, log.frame_count)
    table = _pack_entity_table(log.entity_ids, log.entity_kinds, log.entity_names)
    poses = np.concatenate([log.positions, log.yaws[:, :, None]], axis=2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(table)
        fh.write(np.ascontiguousarray(poses, dtype="<f8").tobytes())


def read_framelog(path) -> FrameLog:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 16 or buf[:4] != FRAMELOG_MAGIC:
        raise CorruptCorpus(f"{path}: not a framelog file")
    version, fps, entity_count, _, frame_count = struct.unpack_from("<HHHHI", buf, 4)
    if version != FORMAT_VERSION:
        raise CorruptCorpus(f"{path}: unsupported version {version}")
    ids, kinds, names, offset = _unpack_entity_table(buf, 16, entity_count)
    expect = frame_count * entity_count * 4 * 8
    if len(buf) - offset != expect:
        raise CorruptCorpus(f"{path}: pose payload is {len(buf) - offset} bytes, "
                            f"expected {expect}")
    poses = np.frombuffer(buf, dtype="<f8", offset=offset).reshape(
        frame_count, entity_count, 4).copy()
    return FrameLog(
        positions=poses[:, :, :3],
        yaws=poses[:, :, 3],
        fps=fps,
        entity_ids=tuple(ids),
        entity_kinds=tuple(kinds),
        entity_names=tuple(names),
    )

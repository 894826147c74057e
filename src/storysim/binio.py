"""Fixed-width binary artifact files.

relations file ("GTSR"): little-endian header of magic, version u16,
fps u16, entity_count u16, reserved u16, followed by an entity table of
{id u16, kind u8, name_len u8, name utf-8}, then 13 bytes per record in
four planes over the frames x E(E-1) records: every distance_m f4, then
every azimuth_deg f4, every elevation_deg f4 and every compass u8.  The
key is implied by position: record p is frame p // E(E-1) and the
(p % E(E-1))-th ordered pair (a, b), a != b, in (a, b) order over the
table's sorted ids.  A coincident pair is the one whose distance is 0.

framelog file ("GTFL"): same header shape plus frame_count u32, the
same entity table, then float64 poses (x, y, z, yaw_deg) frame-major in
entity-table order; the table holds the camera.  Poses stay f64 so
spatial records recompute bit-identically from a reloaded log.

A parser takes a file's bytes and raises CorruptCorpus saying what is
wrong with them; the caller names the file.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .collectors import RelationPlanes
from .errors import CorruptCorpus
from .model import CAMERA_ID, EntityKind
from .simulation import FrameLog

RELATIONS_MAGIC = b"GTSR"
FRAMELOG_MAGIC = b"GTFL"
FORMAT_VERSION = 2

_KIND_CODE = {
    EntityKind.CAMERA: 0,
    EntityKind.ACTOR: 1,
    EntityKind.OBJECT: 2,
    EntityKind.POI: 3,
}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def _pack_entity_table(ids, kinds, names) -> bytes:
    if len(set(ids)) != len(ids):
        raise ValueError(f"entity ids {tuple(ids)} repeat an id")
    rows = []
    for eid, kind, name in zip(ids, kinds, names):
        if not 0 <= eid <= 0xFFFF:
            raise ValueError(f"entity id {eid} does not fit the u16 id field")
        # a name longer than 255 bytes is cut on a character boundary
        raw = name.encode("utf-8")[:255].decode("utf-8", "ignore").encode("utf-8")
        rows.append(struct.pack("<HBB", eid, _KIND_CODE[kind], len(raw)) + raw)
    return b"".join(rows)


def _unpack_entity_table(buf: bytes, offset: int, count: int):
    ids: dict[int, None] = {}  # ordered, and a repeat is found at once
    kinds, names = [], []
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
        if eid in ids:
            raise CorruptCorpus(f"entity id {eid} appears twice in the entity table")
        ids[eid] = None
        kinds.append(kind)
        try:
            names.append(buf[offset:offset + name_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptCorpus(f"entity {eid} name is not UTF-8: {exc}") from None
        offset += name_len
    return tuple(ids), tuple(kinds), tuple(names), offset


def _parse_prefix(buf: bytes, magic: bytes, header_fmt: str, what: str):
    """-> (header fields after the version, (ids, kinds, names), payload
    offset) of a file's bytes."""
    size = 4 + struct.calcsize(header_fmt)
    if len(buf) < size or buf[:4] != magic:
        raise CorruptCorpus(f"not a {what} file")
    version, *header = struct.unpack_from(header_fmt, buf, 4)
    if version != FORMAT_VERSION:
        raise CorruptCorpus(f"unsupported version {version}")
    ids, kinds, names, offset = _unpack_entity_table(buf, size, header[1])
    return header, (ids, kinds, names), offset


_RECORD_BYTES = sum(t.itemsize for t in RelationPlanes.DTYPES)


def relations_bytes(records: RelationPlanes, fps: int, ids, kinds,
                    names) -> memoryview:
    """The bytes of a relations file; the records are copied once.
    ValueError when the planes do not have E(E-1) columns for the E
    entities of the table."""
    pairs = len(ids) * (len(ids) - 1)
    if records.distance_m.shape[1] != pairs:
        raise ValueError(f"relation planes of shape {records.distance_m.shape} do not "
                         f"hold {pairs} pairs per frame for {len(ids)} entities")
    prefix = (RELATIONS_MAGIC + struct.pack("<HHHH", FORMAT_VERSION, fps, len(ids), 0)
              + _pack_entity_table(ids, kinds, names))
    planes = (np.ascontiguousarray(plane, dtype).view(np.uint8).ravel()
              for plane, dtype in zip(records.planes(), RelationPlanes.DTYPES))
    return np.concatenate((np.frombuffer(prefix, np.uint8), *planes)).data


def parse_relations(buf: bytes):
    """-> (fps, (ids, kinds, names), RelationPlanes) of a relations file's
    bytes; the planes are views of `buf`, not copies."""
    (fps, _, _), table, offset = _parse_prefix(buf, RELATIONS_MAGIC, "<HHHH",
                                               "relations")
    entities = len(table[0])
    pairs, payload = entities * (entities - 1), len(buf) - offset
    if not pairs and payload:
        raise CorruptCorpus(f"record payload of {payload} bytes for {entities} "
                            f"entities, which make no pair")
    if pairs and payload % (_RECORD_BYTES * pairs):
        raise CorruptCorpus(f"record payload of {payload} bytes is not a whole number "
                            f"of {_RECORD_BYTES * pairs}-byte frames")
    frames = payload // (_RECORD_BYTES * pairs) if pairs else 0
    planes = []
    for dtype in RelationPlanes.DTYPES:
        planes.append(np.frombuffer(buf, dtype, frames * pairs, offset).reshape(
            frames, pairs))
        offset += frames * pairs * dtype.itemsize
    return fps, table, RelationPlanes(*planes)


def framelog_bytes(log: FrameLog) -> memoryview:
    """The bytes of a framelog file; the poses are copied once."""
    if CAMERA_ID not in log.entity_ids:
        raise ValueError(f"entity ids {tuple(log.entity_ids)} lack the camera's "
                         f"id {CAMERA_ID}")
    prefix = (FRAMELOG_MAGIC + struct.pack("<HHHHI", FORMAT_VERSION, log.fps,
                                           log.entity_count, 0, log.frame_count)
              + _pack_entity_table(log.entity_ids, log.entity_kinds, log.entity_names))
    buf = np.empty(len(prefix) + log.frame_count * log.entity_count * 4 * 8, np.uint8)
    buf[:len(prefix)] = np.frombuffer(prefix, np.uint8)
    poses = buf[len(prefix):].view("<f8").reshape(log.frame_count, log.entity_count, 4)
    poses[:, :, :3] = log.positions
    poses[:, :, 3] = log.yaws
    return buf.data


def parse_framelog(buf: bytes) -> FrameLog:
    """The FrameLog of a framelog file's bytes."""
    (fps, entity_count, _, frame_count), (ids, kinds, names), offset = _parse_prefix(
        buf, FRAMELOG_MAGIC, "<HHHHI", "framelog")
    if CAMERA_ID not in ids:
        raise CorruptCorpus(f"entity table lacks the camera's id {CAMERA_ID}")
    expect = frame_count * entity_count * 4 * 8
    if len(buf) - offset != expect:
        raise CorruptCorpus(
            f"pose payload is {len(buf) - offset} bytes, expected {expect}")
    poses = np.frombuffer(buf, dtype="<f8", offset=offset).reshape(
        frame_count, entity_count, 4).copy()
    return FrameLog(
        positions=poses[:, :, :3],
        yaws=poses[:, :, 3],
        fps=fps,
        entity_ids=ids,
        entity_kinds=kinds,
        entity_names=names,
    )


def write_relations(path, records: RelationPlanes, fps: int, ids, kinds, names):
    Path(path).write_bytes(relations_bytes(records, fps, ids, kinds, names))


def read_relations(path):
    """-> (fps, (ids, kinds, names), RelationPlanes) of a relations file."""
    return parse_relations(Path(path).read_bytes())


def write_framelog(path, log: FrameLog):
    Path(path).write_bytes(framelog_bytes(log))


def read_framelog(path) -> FrameLog:
    return parse_framelog(Path(path).read_bytes())

"""Binary artifact files: each holds per-frame columns as change runs.

Both files start with a little-endian header of magic, version u16,
fps u16, entity_count u16, reserved u16 and frame_count u32, then an
entity table of {id u16, kind u8, name_len u8, name utf-8}, then a start
bitmap, then each value plane over all runs.  A run is a maximal run of
frames over which its column's value is bitwise equal, and its start
cell is column * frame_count + its start frame.  The bitmap has one bit
per cell, set at each run's start cell, most significant bit first
within a byte (as np.packbits writes them), and its ceil(cells / 8)
bytes end in zero pad bits; the value planes hold the runs in start cell
order, so column-major and in frame order within a column.  So a file
holds no run count and no start frame, only 1/8 byte per cell; that
costs less than a u32 start per run while runs start at one cell in 32
or more, and loses to it below that: seed-7 stories of the bench's
workloads start runs at 0.024 to 0.159 of a file's cells, and a log
whose every pose changes every frame at all of them.  Each column's
first run starts at frame 0, no two adjacent runs of a column are equal,
and reserved is 0, so a dense content has exactly one encoding.  The
story's dense poses, frame_count times entity_count times 32 bytes, take
at most MAX_DENSE_BYTES in either file: frame_log expands them, so a
relations file is refused exactly when its story's framelog is.

relations file ("GTSR"): a column is an ordered pair (a, b), a != b, in
(a, b) order over the table's sorted ids, and its value is a record:
distance_m f4, azimuth_deg f4, elevation_deg f4 and compass u8, so 13
bytes per run.  A coincident pair is the one whose distance is 0.

framelog file ("GTFL"): a column is an entity in table order, and its
value is its pose as float64 x, y, z and yaw_deg, so 32 bytes per run;
the table holds the camera.  Poses stay f64 so spatial records
recompute bit-identically from a reloaded log.

Every value is finite.  Runs holds either file's runs in memory as the
bitmap's set bits and the value planes, so neither the writer nor the
parser translates between them.  One rule, _check_runs, says which runs
a file may hold: the writers refuse the runs the parser refuses, with
the same message.  Both parsers take a file's bytes and return its
(fps, (ids, kinds, names), Runs), unexpanded, and raise CorruptCorpus
saying what is wrong with them; the caller names the file.  A parser
checks the dense bound, then that the bitmap is whole and its pad bits
clear, then that the value planes fill the rest, one value per set bit,
before it unpacks the bitmap's nonzero bytes into start cells; so what
it allocates is bounded by a multiple of the file's own size, whatever
the header says.  The relations' Runs are what relations_bytes takes,
and frame_log expands a framelog's into the FrameLog that framelog_bytes
takes.  A table holds u16 ids and names of at most MAX_NAME_BYTES of
UTF-8 (model.py), which the document readers enforce.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CorruptCorpus
from .model import CAMERA_ID, MAX_ENTITY_ID, MAX_FPS, MAX_NAME_BYTES, EntityKind
from .simulation import FrameLog

RELATIONS_MAGIC = b"GTSR"
FRAMELOG_MAGIC = b"GTFL"
FORMAT_VERSION = 4
# after the magic: version, fps, entity_count, reserved, frame_count
_HEADER = struct.Struct("<HHHHI")
# The most bytes a story's dense poses may take, 32 per entity and frame:
# 256 MiB, over 4 hours of a 20-entity story at 25 fps.  The runs do not
# bound the header's frame_count, from which the framelog reader expands
# poses and readers of relations index records: a damaged one must not.
MAX_DENSE_BYTES = 1 << 28

_KIND_CODE = {
    EntityKind.CAMERA: 0,
    EntityKind.ACTOR: 1,
    EntityKind.OBJECT: 2,
}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


# a run's value: a spatial record, or a pose
_RECORD_DTYPES = tuple(np.dtype(t) for t in ("<f4", "<f4", "<f4", "u1"))
_POSE_DTYPES = (np.dtype("<f8"),) * 4


@dataclass(frozen=True)
class Runs:
    """Per-frame columns as change runs.  Column k of `frames` frames is
    cut into runs of frames over which its value is bitwise equal; a run
    is its start cell, k * frames + its start frame, and its value.
    `cells` holds every run's start cell in increasing order, so the runs
    are column-major and in frame order within a column, exactly the set
    bits of a file's start bitmap; each plane of `values` holds their
    values in that order.  len() is the cell count, frames x columns.  A
    value is a spatial record (distance_m, azimuth_deg, elevation_deg,
    compass) or a pose (x, y, z, yaw_deg)."""
    frames: int
    columns: int
    cells: np.ndarray  # each run's start cell, intp: there can be 2**32 cells
    values: tuple[np.ndarray, ...]  # each value plane, over the runs

    def __post_init__(self):
        lengths, runs = [len(plane) for plane in self.values], len(self.cells)
        if lengths != [runs] * len(lengths):
            raise ValueError(f"run planes of lengths {lengths} for {runs} runs")

    def __len__(self) -> int:
        return self.frames * self.columns

    def _repeats(self) -> np.ndarray:
        """Whether each run bitwise repeats the run before it in its
        column: the runs that are not maximal."""
        # each column's first run is where its frame 0 sorts among the
        # start cells; a column of no run past the last one sorts to the
        # slot past the runs
        same = np.ones(len(self.cells) + 1, bool)
        same[np.searchsorted(self.cells, np.arange(self.columns) * self.frames)] = False
        same = same[:-1]
        for plane in self.values:
            bits = plane.view(f"u{plane.dtype.itemsize}")
            same[1:] &= bits[1:] == bits[:-1]
        return same

    def merged(self) -> Runs:
        """These runs with each run that repeats the run before it joined
        to that run: maximal runs, the only ones a file holds."""
        kept = np.flatnonzero(~self._repeats())
        return Runs(self.frames, self.columns, self.cells[kept],
                    tuple(plane[kept] for plane in self.values))

    def at(self, frame, column) -> tuple[np.ndarray, ...]:
        """The value planes' values at each (frame, column), broadcast
        together: the value of the run of `column` that holds `frame`.
        ValueError for a cell outside frames x columns."""
        cell = np.ravel_multi_index((column, frame), (self.columns, self.frames))
        run = np.searchsorted(self.cells, cell, side="right") - 1
        return tuple(plane[run] for plane in self.values)

    def dense(self) -> list[np.ndarray]:
        """The C-contiguous (frames, columns) array of each value plane;
        a run lasts until the next start cell or the last cell."""
        lengths = np.diff(self.cells, append=len(self))
        return [np.repeat(plane, lengths).reshape(self.columns, self.frames).T.copy()
                for plane in self.values]


def _pack_entity_table(ids, kinds, names) -> bytes:
    if len(set(ids)) != len(ids):
        raise ValueError(f"entity ids {tuple(ids)} repeat an id")
    rows = []
    for eid, kind, name in zip(ids, kinds, names):
        if not 0 <= eid <= MAX_ENTITY_ID:
            raise ValueError(f"entity id {eid} does not fit the u16 id field")
        raw = name.encode("utf-8")
        if len(raw) > MAX_NAME_BYTES:
            raise ValueError(f"entity {eid} name of {len(raw)} UTF-8 bytes does not fit "
                             f"the u8 name length")
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
            names.append(str(buf[offset:offset + name_len], "utf-8"))
        except UnicodeDecodeError as exc:
            raise CorruptCorpus(f"entity {eid} name is not UTF-8: {exc}") from None
        offset += name_len
    return tuple(ids), tuple(kinds), tuple(names), offset


def _check_dense(frames: int, entities: int, error: type[Exception]):
    """`error` unless a story of `frames` frames of `entities` entities
    has dense poses of at most MAX_DENSE_BYTES."""
    size = frames * entities * 32  # four float64 per pose, as frame_log expands them
    if size > MAX_DENSE_BYTES:
        raise error(f"{frames} frames of {entities} entities expand to {size} bytes of "
                    f"poses, past the bound of {MAX_DENSE_BYTES}")


def _check_runs(runs: Runs, entities: int, column: str, error: type[Exception]):
    """`error` unless `runs` may be a file's for a story of `entities`
    entities: the story's dense poses take at most MAX_DENSE_BYTES, the
    start cells strictly increase inside the frames x columns cells, each
    column has a run at frame 0, no run repeats the one before it in its
    column, and every value is finite."""
    frames, cells = runs.frames, runs.cells
    _check_dense(frames, entities, error)
    if not len(cells):
        if len(runs):
            raise error(f"{column} column 0 has no run over {frames} frames")
        return  # and a file of no frame allocates nothing per column
    for cell in (cells.min(), cells.max()):
        if not 0 <= cell < len(runs):
            raise error(f"{column} runs start at cell {cell}, outside the {len(runs)} "
                        f"cells of {frames} frames of {runs.columns} columns")
    back = np.zeros(len(cells), bool)  # a start cell at or before the one before it
    np.less_equal(cells[1:], cells[:-1], out=back[1:])
    finite = np.ones(len(cells), bool)
    for plane in runs.values:
        if plane.dtype.kind == "f":
            finite &= np.isfinite(plane)
    for bad, why in (
            (back, "has a run at frame {start} after one at frame {before}"),
            (runs._repeats(), "repeats at frame {start} the value of its run at "
                              "frame {before}"),
            (~finite, "holds a non-finite value at frame {start}")):
        if bad.any():
            at = int(np.argmax(bad))
            owner, start = divmod(int(cells[at]), frames)
            raise error(f"{column} column {owner} "
                        + why.format(start=start, before=cells[at - 1] % frames))
    heads = np.arange(runs.columns) * frames  # each column's frame 0
    # the start frame of each column's first run, not in [0, frames) if it has none
    first = cells.take(np.searchsorted(cells, heads), mode="clip") - heads
    if first.any():
        owner = int(np.argmax(first != 0))
        if 0 < first[owner] < frames:
            raise error(f"{column} column {owner} starts at frame {first[owner]}, not 0")
        raise error(f"{column} column {owner} has no run over {frames} frames")


def _runs_bytes(magic: bytes, fps: int, ids, kinds, names, runs: Runs, dtypes,
                column: str) -> memoryview:
    """The bytes of a file of `runs` of `column` columns, their values
    stored as `dtypes`; the planes are copied once.  ValueError for runs
    that the parser refuses (_check_runs) and for an fps past the u16
    field."""
    if not 0 <= fps <= MAX_FPS:
        raise ValueError(f"fps {fps} does not fit the u16 fps field")
    values = tuple(np.ascontiguousarray(plane, dtype)
                   for plane, dtype in zip(runs.values, dtypes))
    runs = replace(runs, values=values)
    _check_runs(runs, len(ids), column, ValueError)
    bits = np.zeros(len(runs), bool)  # one per cell, set where a run starts
    bits[runs.cells] = True
    prefix = (magic + _HEADER.pack(FORMAT_VERSION, fps, len(ids), 0, runs.frames)
              + _pack_entity_table(ids, kinds, names))
    parts = (np.packbits(bits), *(plane.view(np.uint8) for plane in values))
    return np.concatenate((np.frombuffer(prefix, np.uint8), *parts)).data


def _parse(buf: bytes, magic: bytes, what: str, columns_of, dtypes, column: str):
    """-> (fps, (ids, kinds, names), Runs) of a file's bytes, which hold
    the runs of columns_of(ids) columns for the table's `ids`, their
    values stored as `dtypes`.  The value planes are copied out of `buf`,
    where the entity table can leave them unaligned, which numpy reads
    slowly."""
    size = 4 + _HEADER.size
    if len(buf) < size or buf[:4] != magic:
        raise CorruptCorpus(f"not a {what} file")
    version, fps, entity_count, reserved, frames = _HEADER.unpack_from(buf, 4)
    if version != FORMAT_VERSION:
        raise CorruptCorpus(f"unsupported version {version}")
    if reserved:
        raise CorruptCorpus(f"reserved field is {reserved}, not 0")
    ids, kinds, names, offset = _unpack_entity_table(buf, size, entity_count)
    columns = columns_of(ids)
    _check_dense(frames, len(ids), CorruptCorpus)
    cells = frames * columns
    size = -(-cells // 8)
    if len(buf) - offset < size:
        raise CorruptCorpus(f"payload of {len(buf) - offset} bytes holds no start bitmap "
                            f"of {size} bytes for {frames} frames of {columns} columns")
    bitmap = np.frombuffer(buf, np.uint8, size, offset)
    offset += size
    if cells % 8 and bitmap[-1] & (0xFF >> cells % 8):
        raise CorruptCorpus(f"start bitmap sets a pad bit past its {cells} cells")
    total = int(np.bitwise_count(bitmap).sum())
    expect = total * sum(dtype.itemsize for dtype in dtypes)
    if len(buf) - offset != expect:
        raise CorruptCorpus(f"run payload is {len(buf) - offset} bytes, expected "
                            f"{expect} for {total} runs")
    values = []
    for dtype in dtypes:
        values.append(np.frombuffer(buf, dtype, total, offset).copy())
        offset += total * dtype.itemsize
    # each run's start cell: only the nonzero bytes are unpacked, and each
    # of their set bits moves on 8 cells per zero byte before its byte
    byte = np.flatnonzero(bitmap)
    packed = bitmap[byte]
    cell = np.flatnonzero(np.unpackbits(packed))
    byte -= np.arange(len(byte))
    byte *= 8
    cell += np.repeat(byte, np.bitwise_count(packed))
    runs = Runs(frames, columns, cell, tuple(values))
    _check_runs(runs, len(ids), column, CorruptCorpus)
    return fps, (ids, kinds, names), runs


def _pairs(ids) -> int:
    """The ordered pairs of `ids`: a relations file's columns."""
    return len(ids) * (len(ids) - 1)


def relations_bytes(records: Runs, fps: int, ids, kinds, names) -> memoryview:
    """The bytes of a relations file; the runs are copied once.
    ValueError when the runs do not have E(E-1) columns for the E
    entities of the table."""
    if records.columns != _pairs(ids):
        raise ValueError(f"relation runs of {records.columns} columns do not "
                         f"hold {_pairs(ids)} pairs per frame for {len(ids)} entities")
    return _runs_bytes(RELATIONS_MAGIC, fps, ids, kinds, names, records,
                       _RECORD_DTYPES, "pair")


def parse_relations(buf: bytes | memoryview):
    """-> (fps, (ids, kinds, names), Runs) of a relations file's bytes."""
    return _parse(buf, RELATIONS_MAGIC, "relations", _pairs, _RECORD_DTYPES, "pair")


def framelog_bytes(log: FrameLog) -> memoryview:
    """The bytes of a framelog file; the poses are copied once."""
    if CAMERA_ID not in log.entity_ids:
        raise ValueError(f"entity ids {tuple(log.entity_ids)} lack the camera's "
                         f"id {CAMERA_ID}")
    changes = log.pose_changes().T
    entity, frame = np.nonzero(changes)
    runs = Runs(log.frame_count, log.entity_count, np.flatnonzero(changes),
                (*log.positions[frame, entity].T, log.yaws[frame, entity]))
    return _runs_bytes(FRAMELOG_MAGIC, log.fps, log.entity_ids, log.entity_kinds,
                       log.entity_names, runs, _POSE_DTYPES, "entity")


def parse_framelog(buf: bytes | memoryview):
    """-> (fps, (ids, kinds, names), Runs) of a framelog file's bytes,
    unexpanded: frame_log expands them."""
    fps, table, poses = _parse(buf, FRAMELOG_MAGIC, "framelog", len, _POSE_DTYPES,
                               "entity")
    if CAMERA_ID not in table[0]:
        raise CorruptCorpus(f"entity table lacks the camera's id {CAMERA_ID}")
    return fps, table, poses


def frame_log(fps: int, table, poses: Runs) -> FrameLog:
    """The FrameLog of parse_framelog's (fps, table, poses): the poses
    expanded to every frame, for the callers that label clips."""
    x, y, z, yaws = poses.dense()
    ids, kinds, names = table
    return FrameLog(positions=np.stack((x, y, z), axis=2), yaws=yaws, fps=fps,
                    entity_ids=ids, entity_kinds=kinds, entity_names=names)


def write_relations(path, records: Runs, fps: int, ids, kinds, names):
    Path(path).write_bytes(relations_bytes(records, fps, ids, kinds, names))


def read_relations(path):
    """-> (fps, (ids, kinds, names), Runs) of a relations file."""
    return parse_relations(Path(path).read_bytes())


def write_framelog(path, log: FrameLog):
    Path(path).write_bytes(framelog_bytes(log))


def read_framelog(path) -> FrameLog:
    return frame_log(*parse_framelog(Path(path).read_bytes()))

"""Spatial relation records: anchor values, dual-route agreement, file I/O."""

from __future__ import annotations

import math
import random
import struct
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storysim import binio, collectors
from storysim.binio import (
    FORMAT_VERSION,
    FRAMELOG_MAGIC,
    RELATIONS_MAGIC,
    Runs,
    framelog_bytes,
    parse_framelog,
    parse_relations,
    read_framelog,
    read_relations,
    relations_bytes,
    write_framelog,
    write_relations,
)
from storysim.collectors import (
    COMPASS_NAMES,
    collect_event_mappings,
    collect_story_relations,
    compass_bin,
    compute_pair_relation,
)
from storysim.default_registry import build_default_registry
from storysim.errors import CorruptCorpus
from storysim.model import EntityKind, EventKind
from storysim.pipeline import build_story, CorpusConfig
from storysim.procgen import GenConfig
from storysim.simulation import FrameLog

from _oracles import (FLAG_COINCIDENT, collect_frame, dense_collect_story_relations,
                      numpy_collect_story_relations, planes_of, runs_of)


def pose(x, y, z=0.0, yaw=0.0):
    return ((x, y, z), yaw)


@pytest.fixture(scope="module")
def story():
    cfg = CorpusConfig(gen=GenConfig(master_seed=2))
    return build_story(cfg, build_default_registry(), 0)


@pytest.fixture(scope="module")
def log(story):
    _, _, log = story
    return log


# ------------------------------------------------------------ pair maths

def test_due_north_anchor():
    r = compute_pair_relation(pose(0, 0), pose(0, 5))
    assert r.distance_m == 5.0
    assert r.compass == "N"
    assert r.azimuth_deg == 0.0
    assert r.elevation_deg == 0.0
    assert not r.coincident


def test_three_four_five_anchor():
    r = compute_pair_relation(pose(0, 0), pose(3, 4))
    assert r.distance_m == pytest.approx(5.0)
    assert r.compass == "NE"
    assert r.azimuth_deg == pytest.approx(-math.degrees(math.atan2(3, 4)))
    assert r.azimuth_deg == pytest.approx(-36.8698976)


def test_cardinal_compass_bins():
    for bearing, name in ((0, "N"), (45, "NE"), (90, "E"), (135, "SE"),
                          (180, "S"), (225, "SW"), (270, "W"), (315, "NW")):
        assert COMPASS_NAMES[compass_bin(bearing)] == name


def test_bin_edges_are_half_open_clockwise():
    assert COMPASS_NAMES[compass_bin(22.5)] == "NE"
    assert COMPASS_NAMES[compass_bin(22.5 - 1e-9)] == "N"
    assert COMPASS_NAMES[compass_bin(-22.5)] == "N"
    assert COMPASS_NAMES[compass_bin(-22.5 - 1e-6)] == "NW"
    assert COMPASS_NAMES[compass_bin(337.5)] == "N"


def test_bearing_ulps_below_the_nw_edge_is_nw_in_both_routes():
    # (bearing + 22.5) % 360.0 rounds up to exactly 360.0 here
    a, b = pose(0.0, 0.0), pose(-0.41421356237309565, 1.0)
    bearing = math.degrees(math.atan2(b[0][0], b[0][1]))
    assert bearing < -22.5 and (bearing + 22.5) % 360.0 == 360.0
    assert compass_bin(bearing) == 7
    assert compute_pair_relation(a, b).compass == "NW"
    positions = np.array([[a[0], b[0]]])
    log = FrameLog(positions=positions, yaws=np.zeros((1, 2)), fps=25,
                   entity_ids=(0, 1), entity_kinds=(EntityKind.CAMERA, EntityKind.ACTOR),
                   entity_names=("camera", "Anna"))
    assert collect_story_relations(log).at(0, 0)[3] == COMPASS_NAMES.index("NW")


def test_azimuth_sign_is_positive_left():
    # target due north, observer facing east: target is 90 deg to the left
    r = compute_pair_relation(pose(0, 0, yaw=90.0), pose(0, 5))
    assert r.azimuth_deg == pytest.approx(90.0)
    r = compute_pair_relation(pose(0, 0, yaw=-90.0), pose(0, 5))
    assert r.azimuth_deg == pytest.approx(-90.0)


def test_elevation_overhead():
    r = compute_pair_relation(pose(0, 0), pose(0, 0, z=2.0))
    assert r.elevation_deg == pytest.approx(90.0)
    r = compute_pair_relation(pose(0, 0, z=2.0), pose(0, 0))
    assert r.elevation_deg == pytest.approx(-90.0)


def test_coincident_pair_is_flagged_and_zeroed():
    r = compute_pair_relation(pose(1, 2, 3, yaw=77.0), pose(1, 2, 3, yaw=12.0))
    assert r.coincident
    assert (r.distance_m, r.azimuth_deg, r.elevation_deg) == (0.0, 0.0, 0.0)
    assert r.compass == "N"


def test_compass_opposition_off_bin_edges():
    rng = random.Random(6)
    checked = 0
    while checked < 200:
        a = (rng.uniform(-9, 9), rng.uniform(-9, 9), 0.0)
        b = (rng.uniform(-9, 9), rng.uniform(-9, 9), 0.0)
        bearing = math.degrees(math.atan2(b[0] - a[0], b[1] - a[1]))
        # skip draws near a bin edge where fp noise could flip the bin
        d = (bearing - 22.5) % 45.0
        if min(d, 45.0 - d) < 0.5 or math.dist(a, b) < 1e-6:
            continue
        fwd = compute_pair_relation((a, 0.0), (b, 0.0))
        rev = compute_pair_relation((b, 0.0), (a, 0.0))
        i, j = COMPASS_NAMES.index(fwd.compass), COMPASS_NAMES.index(rev.compass)
        assert (i - j) % 8 == 4
        checked += 1


# ------------------------------------------------------ story collection

PLANES = ("distance_m", "azimuth_deg", "elevation_deg", "compass")


def _first_frames(log: FrameLog, frames: int) -> FrameLog:
    return replace(log, positions=log.positions[:frames], yaws=log.yaws[:frames])


def test_records_are_13_bytes_in_four_planes(log):
    records = collect_story_relations(log)
    e = log.entity_count
    planes = records.values
    assert [p.dtype for p in planes] == [np.dtype(t) for t in ("<f4", "<f4", "<f4", "u1")]
    assert binio._RECORD_DTYPES == tuple(p.dtype for p in planes)
    assert sum(p.itemsize for p in planes) == 13
    assert {p.shape for p in planes_of(records)} == {(log.frame_count, e * (e - 1))}
    assert planes_of(records)._fields == PLANES


def test_record_count_and_ordering(log):
    records = collect_story_relations(log)
    e = log.entity_count
    assert len(records) == log.frame_count * e * (e - 1)
    records = planes_of(records)
    # column k of a frame's row is the k-th ordered pair over sorted ids
    ids = sorted(log.entity_ids)
    pairs = [(a, b) for a in ids for b in ids if a != b]
    frame = log.frame_count // 2
    for k, (a, b) in enumerate(pairs):
        ia, ib = log.index_of(a), log.index_of(b)
        r = compute_pair_relation((log.positions[frame, ia], log.yaws[frame, ia]),
                                  (log.positions[frame, ib], log.yaws[frame, ib]))
        assert records.distance_m[frame, k] == np.float32(r.distance_m)


def test_vectorized_matches_scalar_route(log):
    records = planes_of(collect_story_relations(log))
    rng = random.Random(13)
    for frame in rng.sample(range(log.frame_count), 5):
        scalar = collect_frame(log, frame)
        block = zip(*(plane[frame].tolist() for plane in records))
        for rec, (distance, azimuth, elevation, compass) in zip(scalar, block):
            # identical fp operation order: f32 casts must agree bitwise
            assert np.float32(rec.distance_m) == distance
            assert np.float32(rec.azimuth_deg) == azimuth
            assert np.float32(rec.elevation_deg) == elevation
            assert COMPASS_NAMES.index(rec.compass) == compass
            assert rec.coincident == (distance == 0.0)


def _assert_equals_the_numpy_route(log):
    """Each plane equals the reference's field bitwise, and distance 0
    marks exactly the records the reference flags coincident."""
    records = planes_of(collect_story_relations(log))
    rows = numpy_collect_story_relations(log)
    for name in PLANES:
        assert getattr(records, name).tobytes() == rows[name].tobytes(), name
    assert np.array_equal(records.distance_m.ravel() == 0.0,
                          rows["flags"] == FLAG_COINCIDENT)


@pytest.fixture(scope="module")
def dense_logs():
    registry = build_default_registry()
    logs = []
    for seed in (7, 11):
        cfg = CorpusConfig(gen=GenConfig(
            master_seed=seed, actors_min_max=(6, 6), max_actors_per_region=6,
            regions_to_visit=3, relation_prob=1.0, interaction_prob=0.6,
            exchange_prob=0.3))
        logs += [build_story(cfg, registry, index)[2] for index in range(3)]
    return logs


def test_collector_matches_the_numpy_remainder_route_on_dense_stories(dense_logs):
    for log in dense_logs:
        assert log.entity_count >= 7  # six actors and the camera, plus objects
        _assert_equals_the_numpy_route(log)


# bearings of the compass bin centres (0 and the +-180 wrap among them) and edges
_OCTANT_BEARINGS = tuple(range(-180, 181, 45)) + tuple(b + 22.5 for b in range(-180, 180, 45))
_SPECIAL = (0.0, -0.0, 1e-9, -1e-9, 5e-10, -7e-10, 1e-300, -1e-300, 1.0, -1.0, 3.0)


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


_coordinate = st.one_of(st.sampled_from(_SPECIAL),
                        st.floats(-50.0, 50.0, allow_subnormal=True))
_free_delta = st.tuples(_coordinate, _coordinate, _coordinate)
_edge_delta = st.builds(
    lambda bearing, r, ulps, z: (_nudged(r * math.sin(math.radians(bearing)), ulps),
                                 r * math.cos(math.radians(bearing)), z),
    st.sampled_from(_OCTANT_BEARINGS), st.sampled_from((1e-6, 1.0, 7.5, 40.0)),
    st.integers(-4, 4), st.sampled_from((0.0, -0.0, 1e-9, 2.0)))
_yaw = st.one_of(st.sampled_from((0.0, -0.0, 180.0, -180.0, 90.0, -22.5)),
                 st.sampled_from(_OCTANT_BEARINGS).map(float),
                 st.floats(-180.0, 180.0))


@st.composite
def _frame_logs(draw):
    """Small logs whose pair deltas hit signed zeros, coincident and
    1e-9 m pairs, tiny deltas and bearings a few ulps off each compass
    edge; entity ids need not be in index order."""
    n = draw(st.integers(2, 5))
    frames = draw(st.integers(1, 3))
    positions = np.empty((frames, n, 3))
    for f in range(frames):
        origin = draw(st.sampled_from(((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
                                       (12.25, -3.5, 0.0))))
        positions[f, 0] = origin
        for e in range(1, n):
            delta = draw(st.one_of(_free_delta, _edge_delta))
            positions[f, e] = np.add(origin, delta)
    yaws = np.array(draw(st.lists(_yaw, min_size=frames * n, max_size=frames * n)),
                    dtype=np.float64).reshape(frames, n)
    ids = tuple(draw(st.lists(st.integers(0, 0xFFFF), min_size=n, max_size=n,
                              unique=True)))
    return FrameLog(positions=positions, yaws=yaws, fps=25, entity_ids=ids,
                    entity_kinds=(EntityKind.OBJECT,) * n,
                    entity_names=tuple(f"e{i}" for i in ids))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_frame_logs())
def test_collector_matches_the_numpy_remainder_route_on_edge_cases(log):
    _assert_equals_the_numpy_route(log)


def _assert_equals_the_dense_kernel(log):
    """at() reads every record of the kernel that computed every record
    bitwise, and the runs are exactly the change runs of its planes."""
    runs, planes = collect_story_relations(log), dense_collect_story_relations(log)
    assert len(runs) == planes.distance_m.size
    for name, got, want in zip(PLANES, runs.at(*np.indices(planes.distance_m.shape)),
                               planes):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    cut = runs_of(planes)
    assert (runs.frames, runs.columns) == (cut.frames, cut.columns) == (
        log.frame_count, planes.distance_m.shape[1])
    for got, want in zip(_run_planes(runs), _run_planes(cut)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_runs_expand_to_the_dense_kernel_on_dense_stories(dense_logs):
    for log in dense_logs:
        _assert_equals_the_dense_kernel(log)


@st.composite
def _moving_logs(draw):
    """Logs of up to 6 frames that start as a _frame_logs frame.  At each
    later frame every entity, or only one chosen entity, stays still,
    moves next to another entity, turns, flips the sign of its zeros or
    joins another entity's position."""
    first = draw(_frame_logs())
    n, frames = first.entity_count, draw(st.integers(1, 6))
    positions, yaws = np.empty((frames, n, 3)), np.empty((frames, n))
    positions[0], yaws[0] = first.positions[0], first.yaws[0]
    movers = draw(st.sampled_from((range(n),) + tuple((e,) for e in range(n))))
    for f in range(1, frames):
        positions[f], yaws[f] = positions[f - 1], yaws[f - 1]
        for e in movers:
            other = draw(st.integers(0, n - 1))
            step = draw(st.sampled_from(("still", "move", "turn", "flip", "join")))
            if step == "move":
                delta = draw(st.one_of(_free_delta, _edge_delta))
                positions[f, e] = np.add(positions[f, other], delta)
            elif step == "turn":
                yaws[f, e] = draw(_yaw)
            elif step == "flip":
                positions[f, e] = np.where(positions[f, e] == 0.0, -positions[f, e],
                                           positions[f, e])
                yaws[f, e] = -yaws[f, e] if yaws[f, e] == 0.0 else yaws[f, e]
            elif step == "join":
                positions[f, e] = positions[f, other]
    return replace(first, positions=positions, yaws=yaws)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_moving_logs(), st.integers(1, 4))
def test_runs_expand_to_the_dense_kernel_on_edge_cases(log, chunk):
    _assert_equals_the_dense_kernel(log)
    # these logs hold far fewer cells than a chunk; in chunks of a few
    # cells, a flip or a join can lie on either side of a chunk boundary
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collectors, "_CHUNK_CELLS", chunk)
        _assert_equals_the_dense_kernel(log)


def _three_entities(frames: int) -> FrameLog:
    positions = np.zeros((frames, 3, 3))
    positions[:, 1] = (0.0, 5.0, 0.0)
    positions[:, 2] = (3.0, 4.0, 0.0)
    return FrameLog(positions=positions, yaws=np.zeros((frames, 3)), fps=25,
                    entity_ids=(0, 1, 2),
                    entity_kinds=(EntityKind.CAMERA, EntityKind.ACTOR, EntityKind.OBJECT),
                    entity_names=("camera", "Anna", "cup"))


def test_only_the_pairs_of_a_moving_entity_change():
    log = _three_entities(40)
    log.positions[:, 2, 0] += np.arange(40)
    runs = collect_story_relations(log)
    # columns (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1): one run at
    # frame 0 of each still pair, a run at every frame of each other
    assert runs.cells.tolist() == [0, *range(40, 80), 80, *range(120, 240)]
    assert len(runs) == 40 * 6
    _assert_equals_the_dense_kernel(log)


def test_a_signed_zero_flip_is_a_pose_change():
    log = _three_entities(3)
    log.positions[1, 1, 0] = -0.0
    log.yaws[2, 2] = -0.0
    assert log.pose_changes().tolist() == [[True] * 3, [False, True, False],
                                           [False, True, True]]
    _assert_equals_the_dense_kernel(log)


def test_collector_rejects_yaws_outside_its_exact_range():
    log = FrameLog(positions=np.zeros((1, 2, 3)), yaws=np.array([[0.0, 180.5]]),
                   fps=25, entity_ids=(0, 1),
                   entity_kinds=(EntityKind.CAMERA, EntityKind.ACTOR),
                   entity_names=("camera", "Anna"))
    with pytest.raises(ValueError, match="yaws"):
        collect_story_relations(log)


def test_event_mappings_follow_graph_order(story):
    graph, timeline, _ = story
    maps = collect_event_mappings(timeline, graph)
    assert [m["event_id"] for m in maps] == [e.event_id for e in graph.events]
    index = graph.event_index()
    for m in maps:
        assert set(m) == {"event_id", "actor_id", "action", "start_frame", "end_frame",
                          "is_movement"}
        ev = index[m["event_id"]]
        assert m["actor_id"] == ev.actor.id
        assert m["action"] == ev.action
        assert m["is_movement"] is (ev.kind is EventKind.MOVEMENT)
        assert (m["start_frame"], m["end_frame"]) == timeline.interval(m["event_id"])
        assert m["start_frame"] < m["end_frame"]


# -------------------------------------------------------------- file I/O

def test_relations_file_round_trip(tmp_path, log):
    records = collect_story_relations(log)
    path = tmp_path / "relations.bin"
    write_relations(path, records, log.fps, log.entity_ids, log.entity_kinds,
                    log.entity_names)
    fps, (ids, kinds, names), loaded = read_relations(path)
    assert fps == log.fps
    assert ids == log.entity_ids
    assert kinds == log.entity_kinds
    assert names == log.entity_names
    # the reader returns the runs the writer took, expanding nothing
    assert type(loaded) is Runs
    _assert_same_runs(loaded, records)


def _run_planes(runs: Runs) -> tuple:
    """The run planes in file order: start cells, then the value planes."""
    return (runs.cells, *runs.values)


def _assert_same_runs(got: Runs, want: Runs):
    assert (got.frames, got.columns) == (want.frames, want.columns)
    for plane, other in zip(_run_planes(got), _run_planes(want)):
        assert plane.dtype == other.dtype and plane.tobytes() == other.tobytes()


def test_at_broadcasts_cells_and_refuses_cells_outside_the_records(log):
    runs, planes = collect_story_relations(log), dense_collect_story_relations(log)
    frames, columns = planes.distance_m.shape
    last = runs.at(frames - 1, np.arange(columns))
    for got, want in zip(last, planes):
        assert got.shape == (columns,) and got.tobytes() == want[-1].tobytes()
    assert [value.item() for value in runs.at(0, 1)] == [
        plane[0, 1].item() for plane in planes]
    for frame, column in ((frames, 0), (0, columns), (-1, 0), (0, [0, -1])):
        with pytest.raises(ValueError):
            runs.at(frame, column)


def test_dense_equals_at_over_every_cell(log):
    # the collector's runs, and the runs frame_log expands
    _, _, poses = parse_framelog(bytes(framelog_bytes(log)))
    assert type(poses) is Runs and len(poses.values) == 4
    for runs in (collect_story_relations(log), poses):
        cells = np.indices((runs.frames, runs.columns))
        for got, want in zip(runs.dense(), runs.at(*cells)):
            assert got.shape == cells[0].shape
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_the_merge_leaves_maximal_runs_as_they_are(log):
    runs = collect_story_relations(log)
    _assert_same_runs(runs.merged(), runs)
    # column 0 reads 0.0 from frame 0, -0.0 from frame 1 and -0.0 again
    # from frame 2: only its last run repeats the one before it.  Column 1
    # reads -0.0 from its frame 0, cell 3: a first run repeats nothing
    repeated = Runs(3, 2, np.array([0, 1, 2, 3]),
                    (np.array([0.0, -0.0, -0.0, -0.0], np.float32),
                     *(np.zeros(4, np.float32) for _ in range(2)), np.zeros(4, np.uint8)))
    merged = repeated.merged()
    assert merged.cells.tolist() == [0, 1, 3]
    _assert_same_runs(merged.merged(), merged)


@st.composite
def _small_runs(draw):
    """(entities, relations Runs) of up to 3 entities and 5 frames whose
    runs start anywhere and may repeat the run before them; each float
    is 0.0, -0.0 or 2.5, so equal values can differ in their bits."""
    entities, frames = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    columns = entities * (entities - 1)
    cells = []
    for k in range(columns):
        cuts = draw(st.lists(st.booleans(), min_size=frames - 1, max_size=frames - 1))
        cells += [k * frames] + [k * frames + frame for frame, cut in enumerate(cuts, 1)
                                 if cut]

    def plane(values, dtype):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=len(cells),
                                      max_size=len(cells))), dtype)
    values = (*(plane((0.0, -0.0, 2.5), np.float32) for _ in range(3)),
              plane((0, 7), np.uint8))
    return entities, Runs(frames, columns, np.array(cells, np.intp), values)


def _small_relations(entities: int, runs: Runs) -> bytes:
    ids = tuple(range(entities))
    kinds = (EntityKind.CAMERA,) + (EntityKind.OBJECT,) * (entities - 1)
    return bytes(relations_bytes(runs, 25, ids, kinds, tuple(f"e{i}" for i in ids)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_small_runs())
def test_the_parser_accepts_exactly_what_the_merge_emits(small):
    entities, runs = small
    merged = runs.merged()
    _, _, parsed = parse_relations(_small_relations(entities, merged))
    _assert_same_runs(parsed, merged)
    _assert_same_runs(merged.merged(), merged)
    # the merge changes no cell, and bits decide what repeats
    cells = np.indices((runs.frames, runs.columns))
    for before, after in zip(runs.at(*cells), merged.at(*cells)):
        assert before.tobytes() == after.tobytes()
    # the file of `runs`, built by hand: the writer takes only maximal runs
    by_hand = _file_of(_small_relations(entities, merged), runs.columns,
                       _run_planes(runs), binio._RECORD_DTYPES)
    if len(merged.cells) == len(runs.cells):
        assert by_hand == _small_relations(entities, runs)
        _assert_same_runs(parse_relations(by_hand)[2], runs)
    else:
        with pytest.raises(CorruptCorpus, match="repeats at frame"):
            parse_relations(by_hand)
        with pytest.raises(ValueError, match="repeats at frame"):
            _small_relations(entities, runs)


def _payload_offset(raw: bytes) -> int:
    """Where the start bitmap starts: after the 16-byte header and the table."""
    (entities,) = struct.unpack_from("<H", raw, 8)
    offset = 16
    for _ in range(entities):
        offset += 4 + raw[offset + 3]
    return offset


def _start_bits(raw: bytes, columns: int) -> np.ndarray:
    """The (columns, frames) start bits of the file `raw`, read MSB-first
    from its bitmap, which must end in clear pad bits."""
    (frames,) = struct.unpack_from("<I", raw, 12)
    offset, cells = _payload_offset(raw), frames * columns
    bitmap = np.frombuffer(raw, np.uint8, -(-cells // 8), offset)
    bits = np.array([byte >> (7 - bit) & 1 for byte in bitmap.tolist()
                     for bit in range(8)], bool)
    assert not bits[cells:].any()
    return bits[:cells].reshape(columns, frames)


def test_relations_file_is_header_table_bitmap_and_13_bytes_per_run(log):
    runs = collect_story_relations(log)
    raw = bytes(_relations_file(log))
    e = log.entity_count
    pairs, frames = e * (e - 1), log.frame_count
    table = sum(4 + len(name.encode("utf-8")) for name in log.entity_names)
    assert FORMAT_VERSION == 4
    assert struct.unpack_from("<4sHHHHI", raw) == (RELATIONS_MAGIC, 4, log.fps, e, 0,
                                                   frames)
    assert _payload_offset(raw) == 16 + table
    # one bit per cell, set at each run's start cell, and no count or start frame
    bits = _start_bits(raw, pairs)
    assert np.flatnonzero(bits).tolist() == runs.cells.tolist()
    # a still entity's pairs repeat, so there are far fewer runs than records
    assert len(runs.cells) == bits.sum() < len(runs) // 4
    assert len(raw) == 16 + table + -(-frames * pairs // 8) + 13 * int(bits.sum())


def test_framelog_file_is_header_table_bitmap_and_32_bytes_per_run(log):
    raw = bytes(framelog_bytes(log))
    e = log.entity_count
    table = sum(4 + len(name.encode("utf-8")) for name in log.entity_names)
    assert struct.unpack_from("<4sHHHHI", raw) == (FRAMELOG_MAGIC, 4, log.fps, e, 0,
                                                   log.frame_count)
    # each entity's runs start at frame 0 and wherever its pose changed
    assert _start_bits(raw, e).tolist() == log.pose_changes().T.tolist()
    changes = int(log.pose_changes().sum())
    assert len(raw) == 16 + table + -(-log.frame_count * e // 8) + 32 * changes


def test_parse_relations_returns_the_run_planes_of_the_bytes(log):
    # the start bitmap, then each record plane over the runs
    raw = bytes(_relations_file(log))
    _, _, runs = parse_relations(raw)
    records = planes_of(runs)
    frames, pairs = log.frame_count, log.entity_count * (log.entity_count - 1)
    bits = _start_bits(raw, pairs)
    total = int(bits.sum())
    offset = _payload_offset(raw) + -(-frames * pairs // 8)
    planes = []
    for dtype in binio._RECORD_DTYPES:
        planes.append(np.frombuffer(raw, dtype, total, offset))
        offset += total * dtype.itemsize
    assert offset == len(raw)
    assert runs.cells.dtype == np.intp
    assert runs.cells.tolist() == np.flatnonzero(bits).tolist()
    for got, want in zip(runs.values, planes):
        assert got.tobytes() == want.tobytes()
    column, starts = np.nonzero(bits)
    for k in range(pairs):
        run = column == k
        lengths = np.diff(np.append(starts[run], frames))
        for name, plane in zip(PLANES, planes):
            expanded = np.repeat(plane[run], lengths)
            assert getattr(records, name)[:, k].tobytes() == expanded.tobytes(), (k, name)


def _every_pose_changing(frames: int, entities: int) -> FrameLog:
    """A log in which every entity moves and turns at every frame."""
    rng = np.random.default_rng(5)
    positions = np.cumsum(rng.uniform(0.5, 1.5, (frames, entities, 3)), axis=0)
    yaws = rng.uniform(-179.0, 179.0, (frames, entities))
    return FrameLog(positions=positions, yaws=yaws, fps=25,
                    entity_ids=tuple(range(entities)),
                    entity_kinds=(EntityKind.CAMERA,) + (EntityKind.ACTOR,) * (entities - 1),
                    entity_names=tuple(f"e{i}" for i in range(entities)))


@pytest.mark.parametrize("frames, entities", [(7, 4), (9, 5), (16, 3)])
def test_a_log_whose_every_pose_changes_costs_an_eighth_byte_per_cell_more(frames,
                                                                           entities):
    # every cell starts a run: the bitmap is all set but its pad bits,
    # and each record or pose is stored once
    log = _every_pose_changing(frames, entities)
    assert log.pose_changes().all()
    runs = collect_story_relations(log)
    pairs = entities * (entities - 1)
    assert len(runs.cells) == len(runs) == frames * pairs
    table = sum(4 + len(name.encode("utf-8")) for name in log.entity_names)
    relations, framelog = bytes(_relations_file(log)), bytes(framelog_bytes(log))
    assert len(relations) == 16 + table + -(-frames * pairs // 8) + 13 * frames * pairs
    assert len(framelog) == 16 + table + -(-frames * entities // 8) + 32 * frames * entities
    assert _start_bits(relations, pairs).all() and _start_bits(framelog, entities).all()
    _assert_same_runs(parse_relations(relations)[2], runs)
    assert np.array_equal(binio.frame_log(*parse_framelog(framelog)).positions,
                          log.positions)


@pytest.mark.parametrize("frames, entities", [(7, 4), (40, 3)])
def test_a_still_log_costs_its_bitmap_and_one_run_per_column(frames, entities):
    # nothing moves after frame 0: one run per column, so the bitmap is
    # the whole cost of the starts
    log = _every_pose_changing(1, entities)
    log = replace(log, positions=np.repeat(log.positions, frames, axis=0),
                  yaws=np.repeat(log.yaws, frames, axis=0))
    runs = collect_story_relations(log)
    pairs = entities * (entities - 1)
    assert runs.cells.tolist() == list(range(0, frames * pairs, frames))
    table = sum(4 + len(name.encode("utf-8")) for name in log.entity_names)
    relations, framelog = bytes(_relations_file(log)), bytes(framelog_bytes(log))
    assert len(relations) == 16 + table + -(-frames * pairs // 8) + 13 * pairs
    assert len(framelog) == 16 + table + -(-frames * entities // 8) + 32 * entities
    for raw, columns in ((relations, pairs), (framelog, entities)):
        bits = _start_bits(raw, columns)
        assert bits[:, 0].all() and not bits[:, 1:].any()
    _assert_same_runs(parse_relations(relations)[2], runs)


def test_framelog_file_round_trip(tmp_path, log):
    path = tmp_path / "framelog.bin"
    write_framelog(path, log)
    loaded = read_framelog(path)
    assert loaded.fps == log.fps
    assert loaded.entity_ids == log.entity_ids
    assert np.array_equal(loaded.positions, log.positions)
    assert np.array_equal(loaded.yaws, log.yaws)
    # relations recompute bit-identically from the reloaded log
    _assert_same_runs(collect_story_relations(loaded), collect_story_relations(log))


def test_read_rejects_bad_magic(tmp_path, log):
    path = tmp_path / "relations.bin"
    write_relations(path, collect_story_relations(_first_frames(log, 1)), log.fps,
                    log.entity_ids, log.entity_kinds, log.entity_names)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(raw)
    with pytest.raises(CorruptCorpus, match="^not a relations file$"):
        read_relations(path)


def test_read_rejects_bad_version(tmp_path, log):
    path = tmp_path / "relations.bin"
    write_relations(path, collect_story_relations(_first_frames(log, 1)), log.fps,
                    log.entity_ids, log.entity_kinds, log.entity_names)
    raw = bytearray(path.read_bytes())
    assert raw[:4] == RELATIONS_MAGIC
    raw[4:6] = (FORMAT_VERSION + 1).to_bytes(2, "little")
    path.write_bytes(raw)
    with pytest.raises(CorruptCorpus, match="version"):
        read_relations(path)


def test_read_rejects_truncated_payload(tmp_path, log):
    rel_path = tmp_path / "relations.bin"
    write_relations(rel_path, collect_story_relations(_first_frames(log, 1)), log.fps,
                    log.entity_ids, log.entity_kinds, log.entity_names)
    rel_path.write_bytes(rel_path.read_bytes()[:-3])
    with pytest.raises(CorruptCorpus):
        read_relations(rel_path)

    fl_path = tmp_path / "framelog.bin"
    write_framelog(fl_path, log)
    fl_path.write_bytes(fl_path.read_bytes()[:-3])
    with pytest.raises(CorruptCorpus):
        read_framelog(fl_path)


# each file kind: its writer, its parser, the dtypes of a run's value and
# the column count of E entities
_RUN_FILES = {
    "framelog": (framelog_bytes, parse_framelog, (np.dtype("<f8"),) * 4, lambda e: e),
    "relations": (lambda log: _relations_file(log), parse_relations, binio._RECORD_DTYPES,
                  lambda e: e * (e - 1)),
}
# each file kind's writer of given runs under a log's table; framelog_bytes
# takes a FrameLog, whose runs are maximal, so the framelog's is the
# writer beneath it
_RUN_WRITERS = {
    "framelog": lambda log, runs: binio._runs_bytes(
        FRAMELOG_MAGIC, log.fps, log.entity_ids, log.entity_kinds, log.entity_names, runs,
        binio._POSE_DTYPES, "entity"),
    "relations": lambda log, runs: relations_bytes(
        runs, log.fps, log.entity_ids, log.entity_kinds, log.entity_names),
}


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_the_parsed_start_cells_are_the_set_bits_of_the_bitmap(log, kind):
    encode, parse, _, columns = _RUN_FILES[kind]
    raw = bytes(encode(log))
    _, _, runs = parse(raw)
    cells = log.frame_count * columns(log.entity_count)
    bitmap = np.frombuffer(raw, np.uint8, -(-cells // 8), _payload_offset(raw))
    assert len(runs) == cells
    bits = np.unpackbits(bitmap, count=len(runs))
    assert runs.cells.tolist() == np.flatnonzero(bits).tolist()


def _file_of(raw: bytes, columns: int, planes, dtypes) -> bytes:
    """The header and table of the file `raw` of `columns` columns, then
    the start bitmap whose set bits are the start cells planes[0], then
    the value planes planes[1:] stored as `dtypes`."""
    (frames,) = struct.unpack_from("<I", raw, 12)
    bits = np.zeros(frames * columns, bool)
    bits[planes[0]] = True
    return (raw[:_payload_offset(raw)] + np.packbits(bits).tobytes()
            + b"".join(np.asarray(plane, dtype).tobytes()
                       for plane, dtype in zip(planes[1:], dtypes)))


def _edited_planes(kind: str, log: FrameLog, edit) -> tuple:
    """-> (the file of `log`, edit(frames, planes)) for copies of the run
    planes (start cells, then values) that the file parses to."""
    encode, parse, _, _ = _RUN_FILES[kind]
    raw = bytes(encode(log))
    runs = parse(raw)[2]
    return raw, edit(runs.frames, [plane.copy() for plane in _run_planes(runs)])


def _edited_runs(kind: str, log: FrameLog, edit) -> bytes:
    """The file of `log` with its parsed run planes passed as copies to
    `edit`, and written again with a hand-built bitmap."""
    raw, planes = _edited_planes(kind, log, edit)
    return _file_of(raw, _RUN_FILES[kind][3](log.entity_count), planes,
                    _RUN_FILES[kind][2])


def _first_run_of_a_changing_column(frames: int, cells) -> int:
    """The index of the first run of the first column with two runs."""
    return int(np.flatnonzero(np.diff(cells // frames) == 0)[0])


def _without_column_0(frames, planes):
    dropped = np.searchsorted(planes[0], frames)  # the runs of column 0
    return [plane[dropped:] for plane in planes]


def _without_any_run(frames, planes):
    return [plane[:0] for plane in planes]


def _column_0_from_frame_1(frames, planes):
    assert planes[0][1] > 1  # the bitmap holds the moved start
    planes[0][0] = 1
    return planes


def _a_start_repeated(frames, planes):
    at = _first_run_of_a_changing_column(frames, planes[0])
    planes[0][at + 1] = planes[0][at]
    return planes


def _a_value_repeated(frames, planes):
    at = _first_run_of_a_changing_column(frames, planes[0])
    for plane in planes[1:]:
        plane[at + 1] = plane[at]
    return planes


def _a_value_not_finite(frames, planes):
    at = _first_run_of_a_changing_column(frames, planes[0])
    planes[1][at + 1] = np.nan
    return planes


def _the_last_run_without_its_value(frames, planes):
    return planes[:1] + [plane[:-1] for plane in planes[1:]]


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
@pytest.mark.parametrize("edit, refusal", [
    pytest.param(_without_column_0, "column 0 has no run over {frames} frames",
                 id="column-without-a-run"),
    pytest.param(_without_any_run, "column 0 has no run over {frames} frames",
                 id="no-run"),
    pytest.param(_column_0_from_frame_1, "column 0 starts at frame 1, not 0",
                 id="first-start-not-0"),
    pytest.param(_a_start_repeated, r"has a run at frame 0 after one at frame 0",
                 id="starts-not-increasing"),
    pytest.param(_a_value_repeated, r"repeats at frame \d+ the value of its run at frame 0",
                 id="equal-neighbours"),
    pytest.param(_the_last_run_without_its_value, "^run payload is .* bytes, expected",
                 id="counts-past-the-payload"),
    pytest.param(_a_value_not_finite,
                 r"^(pair|entity) column \d+ holds a non-finite value at frame [1-9]",
                 id="value-not-finite"),
])
def test_each_run_rule_is_refused(log, kind, edit, refusal):
    encode, parse, _, columns = _RUN_FILES[kind]
    raw = bytes(encode(log))
    assert _edited_runs(kind, log, lambda frames, planes: planes) == raw
    refusal = refusal.format(frames=log.frame_count)
    # a bitmap sets one bit per start cell, in increasing order, so it
    # cannot hold starts that do not increase: only the writer meets them
    if edit is not _a_start_repeated:
        with pytest.raises(CorruptCorpus, match=refusal):
            parse(_edited_runs(kind, log, edit))
    # the writer refuses the same runs with the same message; value planes
    # that the start cells do not fill make no Runs at all
    _, (cells, *values) = _edited_planes(kind, log, edit)
    if edit is _the_last_run_without_its_value:
        refusal = "^run planes of lengths"
    with pytest.raises(ValueError, match=refusal):
        _RUN_WRITERS[kind](log, Runs(log.frame_count, columns(log.entity_count), cells,
                                     tuple(values)))


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_run_at_or_past_the_frame_count_is_refused(kind):
    # column 0's last run starts at frame 3 of 4, cell 3.  A start at its
    # frame 4 is cell 4, column 1's frame 0, where a run already starts;
    # and no file holds a start before cell 0 or at or past its last cell,
    # whose bits past the last cell are pad bits
    log = _three_entities(4)
    log.positions[3, :2] += ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0))
    encode, parse, _, columns = _RUN_FILES[kind]
    assert parse(bytes(encode(log)))[2].cells[:3].tolist() == [0, 3, 4]
    cells = 4 * columns(3)

    def at(run, cell):
        def edit(frames, planes):
            planes[0][run] = cell
            return planes
        return edit

    def write(edit):
        _, (starts, *values) = _edited_planes(kind, log, edit)
        _RUN_WRITERS[kind](log, Runs(4, columns(3), starts, tuple(values)))
    assert parse(_edited_runs(kind, log, at(1, 2)))  # any start inside the frames
    write(at(1, 2))
    with pytest.raises(ValueError, match="^(pair|entity) column 1 has a run at frame 0 "
                                         "after one at frame 0$"):
        write(at(1, 4))
    for run, cell in ((-1, cells), (-1, cells + 1), (0, -1)):
        with pytest.raises(ValueError, match=f"^(pair|entity) runs start at cell {cell}, "
                                             f"outside the {cells} cells of 4 frames of "
                                             f"{columns(3)} columns$"):
            write(at(run, cell))


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_set_pad_bit_is_refused(kind):
    # 3 frames of 3 entities: the framelog's 9 cells end their 2-byte
    # bitmap in 7 pad bits, the relations' 18 cells their 3 bytes in 6
    encode, parse, _, columns = _RUN_FILES[kind]
    raw = bytes(encode(_three_entities(3)))
    parse(raw)
    cells = 3 * columns(3)
    last = _payload_offset(raw) + -(-cells // 8) - 1
    for pad in range(cells % 8, 8):
        damaged = bytearray(raw)
        damaged[last] |= 0x80 >> pad
        with pytest.raises(CorruptCorpus,
                           match=f"^start bitmap sets a pad bit past its {cells} cells$"):
            parse(bytes(damaged))


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_bitmap_one_byte_short_is_refused(kind):
    encode, parse, _, columns = _RUN_FILES[kind]
    raw = bytes(encode(_three_entities(3)))
    size = -(-3 * columns(3) // 8)
    with pytest.raises(CorruptCorpus, match=f"^payload of {size - 1} bytes holds no start "
                                            f"bitmap of {size} bytes for 3 frames of "
                                            f"{columns(3)} columns$"):
        parse(raw[:_payload_offset(raw) + size - 1])


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_frame_count_inside_the_dense_bound_is_refused_by_the_bitmap_length(
        monkeypatch, kind):
    # a 1-frame file of 3 entities under a header of 1,000,000 frames: its
    # dense poses are inside the bound, but its bitmap would take far more
    # bytes than the file holds, and the parser reads none of its payload
    encode, parse, _, columns = _RUN_FILES[kind]
    raw = bytearray(encode(_three_entities(1)))
    raw[12:16] = (1_000_000).to_bytes(4, "little")
    assert 1_000_000 * 3 * 32 <= binio.MAX_DENSE_BYTES
    payload, size = len(raw) - _payload_offset(raw), 1_000_000 * columns(3) // 8

    def decoded(*args, **kwargs):
        raise AssertionError("the payload was decoded")
    for name in ("frombuffer", "unpackbits", "flatnonzero"):
        monkeypatch.setattr(np, name, decoded)
    with pytest.raises(CorruptCorpus, match=f"^payload of {payload} bytes holds no start "
                                            f"bitmap of {size} bytes for 1000000 frames "
                                            f"of {columns(3)} columns$"):
        parse(bytes(raw))


def _no_frame_file(kind: str, entities: int) -> bytes:
    """A file of no frame: a header and a table of `entities` entities,
    the camera and then objects, and no bitmap byte."""
    return ((FRAMELOG_MAGIC if kind == "framelog" else RELATIONS_MAGIC)
            + struct.pack("<HHHHI", FORMAT_VERSION, 25, entities, 0, 0)
            + b"".join(struct.pack("<HBB", eid, 0 if eid == 0 else 2, 0)
                       for eid in range(entities)))


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_file_of_no_frame_allocates_no_array_per_column(kind):
    # a header of no frame over 4,000 entities: up to 16 million columns,
    # which no bitmap byte pays for, read as no record in a small multiple
    # of the file's own 16 kB (mostly the table's Python objects), where an
    # array of 4-byte counts would take 64 MB
    _, parse, _, columns = _RUN_FILES[kind]
    entities = 4000
    raw = _no_frame_file(kind, entities)
    tracemalloc.start()
    try:
        _, _, runs = parse(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs.frames == len(runs) == len(runs.cells) == 0
    assert runs.columns == columns(entities)
    assert peak < 64 * len(raw)


def test_a_file_of_no_frame_parses_in_time_of_its_table():
    # 65,535 entities, the most the u16 count holds: a 262 kB header whose
    # 4.3e9 pair columns hold no run and get no array; summed column by
    # column, a count per column took about 2 s
    entities = 0xFFFF
    raw = _no_frame_file("relations", entities)
    took = []
    for _ in range(3):
        start = time.perf_counter()
        _, (ids, _, _), runs = parse_relations(raw)
        took.append(time.perf_counter() - start)
    assert min(took) < 0.2
    assert len(ids) == entities and runs.frames == len(runs) == 0
    assert runs.columns == entities * (entities - 1)
    assert runs.cells.dtype == np.intp and not len(runs.cells)
    assert [(plane.dtype, len(plane)) for plane in runs.values] == [
        (dtype, 0) for dtype in binio._RECORD_DTYPES]


def _as_version_3(raw: bytes, runs: Runs, dtypes) -> bytes:
    """The bytes version 3 wrote for the runs of the file `raw`: its
    header and table, a u32 run count per column, every run's u32 start
    frame, then each value plane."""
    column, start = np.divmod(runs.cells, runs.frames)
    counts = np.bincount(column, minlength=runs.columns)
    return (raw[:4] + (3).to_bytes(2, "little") + raw[6:_payload_offset(raw)]
            + b"".join(np.asarray(plane, dtype).tobytes() for plane, dtype in zip(
                (counts, start, *runs.values), ("<u4", "<u4", *dtypes))))


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_version_3_file_is_refused(log, kind):
    encode, parse, dtypes, _ = _RUN_FILES[kind]
    raw = bytes(encode(log))
    old = _as_version_3(raw, parse(raw)[2], dtypes)
    assert len(old) > len(raw)
    with pytest.raises(CorruptCorpus, match="^unsupported version 3$"):
        parse(old)


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_nonzero_reserved_field_is_refused(log, kind):
    # the reserved u16 follows the magic, version, fps and entity_count
    encode, parse, _, _ = _RUN_FILES[kind]
    raw = bytearray(encode(_first_frames(log, 1)))
    assert raw[10:12] == bytes(2)
    raw[10:12] = (1).to_bytes(2, "little")
    with pytest.raises(CorruptCorpus, match="^reserved field is 1, not 0$"):
        parse(bytes(raw))


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_dense_planes_past_the_bound_are_refused_by_writer_and_reader(monkeypatch, kind):
    # both files of 4 frames of 3 entities pass a bound of exactly their
    # dense poses, 32 bytes per entity and frame, and neither writer nor
    # reader takes them past one byte less
    log = _three_entities(4)
    encode, parse, _, _ = _RUN_FILES[kind]
    size = 4 * 3 * 32
    monkeypatch.setattr(binio, "MAX_DENSE_BYTES", size)
    raw = bytes(encode(log))
    parse(raw)
    monkeypatch.setattr(binio, "MAX_DENSE_BYTES", size - 1)
    refusal = (f"^4 frames of 3 entities expand to {size} bytes of poses, "
               f"past the bound of {size - 1}$")
    with pytest.raises(ValueError, match=refusal):
        encode(log)
    with pytest.raises(CorruptCorpus, match=refusal):
        parse(raw)


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_frame_count_past_the_dense_bound_is_refused_before_expanding(log, kind):
    # one frame's runs under a header of 2**32 - 1 frames: a few hundred
    # bytes that would expand to tens of gigabytes
    encode, parse, _, _ = _RUN_FILES[kind]
    raw = bytearray(encode(_first_frames(log, 1)))
    raw[12:16] = (0xFFFFFFFF).to_bytes(4, "little")
    with pytest.raises(CorruptCorpus, match=rf"^4294967295 frames of \d+ entities expand "
                                            rf"to \d+ bytes of poses, past the bound of "
                                            rf"{binio.MAX_DENSE_BYTES}$"):
        parse(bytes(raw))


@pytest.mark.parametrize("kind", sorted(_RUN_FILES))
def test_a_non_finite_value_is_refused_by_the_writer(kind):
    # a writer never emits what its reader refuses
    log = _three_entities(4)
    log.positions[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match=r"column \d+ holds a non-finite value at frame 2$"):
        _RUN_FILES[kind][0](log)


def test_a_payload_the_run_counts_do_not_fill_is_refused(log):
    # one whole run more than the counts hold, a run less three bytes, and
    # a stray byte, in each file
    one_frame = _first_frames(log, 1)
    for encode, parse, dtypes, _ in _RUN_FILES.values():
        raw = bytes(encode(one_frame))
        run = sum(dtype.itemsize for dtype in dtypes)
        for damaged in (raw + raw[-run:], raw[:-3], raw + b"\0"):
            with pytest.raises(CorruptCorpus, match="^run payload is"):
                parse(damaged)


@pytest.mark.parametrize("ids", [(), (0,)])
def test_relations_of_fewer_than_two_entities_have_an_empty_payload(ids):
    log = FrameLog(positions=np.zeros((3, len(ids), 3)), yaws=np.zeros((3, len(ids))),
                   fps=25, entity_ids=ids, entity_kinds=(EntityKind.CAMERA,) * len(ids),
                   entity_names=("camera",) * len(ids))
    raw = bytes(_relations_file(log))
    _, _, records = parse_relations(raw)
    assert len(records) == 0
    with pytest.raises(CorruptCorpus, match="^run payload is 1 bytes, expected 0 for 0 "
                                            "runs$"):
        parse_relations(raw + b"\0")


def test_an_fps_past_the_u16_field_is_refused_by_both_writers(log):
    fast = replace(log, fps=70_000)
    with pytest.raises(ValueError, match="^fps 70000 does not fit the u16 fps field$"):
        framelog_bytes(fast)
    with pytest.raises(ValueError, match="^fps 70000 does not fit the u16 fps field$"):
        relations_bytes(collect_story_relations(log), fast.fps, log.entity_ids,
                        log.entity_kinds, log.entity_names)


def test_relation_planes_that_the_table_does_not_fit_are_refused(log):
    records = collect_story_relations(log)
    with pytest.raises(ValueError, match="pairs per frame"):
        relations_bytes(records, log.fps, log.entity_ids[:-1], log.entity_kinds[:-1],
                        log.entity_names[:-1])
    with pytest.raises(ValueError, match="run planes of lengths"):
        Runs(records.frames, records.columns, records.cells[:-1], records.values)


def test_synthetic_log_small_counts():
    positions = np.zeros((2, 3, 3))
    positions[:, 1] = (0, 5, 0)
    positions[:, 2] = (3, 4, 0)
    log = FrameLog(positions=positions, yaws=np.zeros((2, 3)), fps=25,
                   entity_ids=(0, 1, 2),
                   entity_kinds=(EntityKind.CAMERA, EntityKind.ACTOR,
                                 EntityKind.OBJECT),
                   entity_names=("camera", "Anna", "cup"))
    records = collect_story_relations(log)
    assert len(records) == 2 * 3 * 2
    # the first record is frame 0, pair (0, 1)
    distance, _, _, compass = records.at(0, 0)
    assert distance == np.float32(5.0)
    assert COMPASS_NAMES[compass] == "N"


def _named_log(ids, names):
    kinds = (EntityKind.CAMERA,) + (EntityKind.OBJECT,) * (len(ids) - 1)
    return FrameLog(positions=np.zeros((1, len(ids), 3)), yaws=np.zeros((1, len(ids))),
                    fps=25, entity_ids=ids, entity_kinds=kinds, entity_names=names)


def test_a_name_past_255_utf8_bytes_is_refused_at_write(tmp_path):
    # 255 bytes fit the u8 name length and are stored whole; 128 two-byte
    # characters do not, and neither writer cuts them
    path = tmp_path / "framelog.bin"
    write_framelog(path, _named_log((0, 1), ("camera", "é" * 127 + "a")))
    assert read_framelog(path).entity_names == ("camera", "é" * 127 + "a")
    for encode in (framelog_bytes, _relations_file):
        with pytest.raises(ValueError, match="^entity 1 name of 256 UTF-8 bytes does "
                                             "not fit the u8 name length$"):
            encode(_named_log((0, 1), ("camera", "é" * 128)))


def test_entity_id_outside_u16_is_rejected_at_write(tmp_path):
    with pytest.raises(ValueError, match="65536"):
        write_framelog(tmp_path / "framelog.bin", _named_log((0, 65536), ("camera", "cup")))
    assert not (tmp_path / "framelog.bin").exists()


def _relations_file(log):
    return relations_bytes(collect_story_relations(log), log.fps, log.entity_ids,
                           log.entity_kinds, log.entity_names)


@pytest.mark.parametrize("encode, parse", [
    pytest.param(framelog_bytes, parse_framelog, id="framelog"),
    pytest.param(_relations_file, parse_relations, id="relations"),
])
def test_repeated_entity_id_is_refused_by_writer_and_reader(encode, parse):
    with pytest.raises(ValueError, match="repeat"):
        encode(_named_log((0, 0), ("camera", "cup")))
    raw = bytearray(encode(_named_log((0, 6), ("camera", "cup"))))
    # the second table row follows the first's 4-byte head and 6-byte name
    second = raw.index(b"camera") + len(b"camera")
    assert raw[second:second + 2] == (6).to_bytes(2, "little")
    raw[second:second + 2] = (0).to_bytes(2, "little")
    with pytest.raises(CorruptCorpus, match="entity id 0 appears twice"):
        parse(bytes(raw))


@pytest.mark.parametrize("encode, parse", [
    pytest.param(framelog_bytes, parse_framelog, id="framelog"),
    pytest.param(_relations_file, parse_relations, id="relations"),
])
def test_a_kind_code_no_writer_emits_is_refused(encode, parse):
    # codes 0 to 2 are the camera, an actor and an object
    raw = bytearray(encode(_named_log((0, 6), ("camera", "cup"))))
    # the second row's kind byte follows its u16 id
    kind = raw.index(b"camera") + len(b"camera") + 2
    assert raw[kind] == 2
    raw[kind] = 3
    with pytest.raises(CorruptCorpus, match="^unknown entity kind code 3$"):
        parse(bytes(raw))


@pytest.mark.parametrize("encode, parse", [
    pytest.param(framelog_bytes, parse_framelog, id="framelog"),
    pytest.param(_relations_file, parse_relations, id="relations"),
])
def test_a_version_1_file_is_refused(log, encode, parse):
    raw = bytearray(encode(log))
    raw[4:6] = (1).to_bytes(2, "little")
    with pytest.raises(CorruptCorpus, match="^unsupported version 1$"):
        parse(bytes(raw))


@pytest.mark.parametrize("encode, parse", [
    pytest.param(framelog_bytes, parse_framelog, id="framelog"),
    pytest.param(_relations_file, parse_relations, id="relations"),
])
def test_a_writers_memoryview_parses_as_its_bytes(log, encode, parse):
    view = encode(log)
    assert type(view) is memoryview
    fps, table, runs = parse(view)
    want_fps, want_table, want_runs = parse(bytes(view))
    assert (fps, table) == (want_fps, want_table)
    _assert_same_runs(runs, want_runs)
    raw = bytearray(view)
    raw[raw.index(b"camera")] = 0xFF
    with pytest.raises(CorruptCorpus, match="^entity 0 name is not UTF-8"):
        parse(memoryview(raw))


def test_framelog_without_the_camera_is_refused_by_writer_and_reader():
    with pytest.raises(ValueError, match="camera"):
        framelog_bytes(_named_log((5, 6), ("camera", "cup")))
    raw = bytearray(framelog_bytes(_named_log((0, 6), ("camera", "cup"))))
    first = raw.index(b"camera") - 4
    assert raw[first:first + 2] == (0).to_bytes(2, "little")
    raw[first:first + 2] = (5).to_bytes(2, "little")
    with pytest.raises(CorruptCorpus, match="^entity table lacks the camera's id 0$"):
        parse_framelog(bytes(raw))


def test_broken_name_byte_reads_as_corrupt(tmp_path):
    path = tmp_path / "framelog.bin"
    write_framelog(path, _named_log((0, 1), ("camera", "cup")))
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"cup")] = 0xFF
    path.write_bytes(raw)
    with pytest.raises(CorruptCorpus, match="UTF-8"):
        read_framelog(path)

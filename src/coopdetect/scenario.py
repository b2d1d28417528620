"""Reproducible cell-free network instances.

A scenario bundles AP/device geometry, the one-hop backhaul graph,
large-scale gains, pilot sequences, the ground-truth activity pattern and
the noise level.  All randomness flows from a single 64-bit seed through
named ``SeedSequence`` children, so identical (config, seed) pairs give
bit-identical scenarios and received signals.

Each AP's stream is such a child too, one per AP of a scenario and, in
``solver``, one per AP with neighbors of a problem.  The states of a
scenario's or a problem's streams are derived in one pass
(:func:`seed_states`), which is numpy's own SeedSequence hash, so each AP
draws the values its ``SeedSequence`` and ``np.random.default_rng`` give.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from functools import cache

import numpy as np

from .errors import InvalidConfig, check_integers, check_keys, is_finite, seed_problems
from .netsim import neighbor_problems

SCHEMA_VERSION = 1

# SeedSequence child indices for the per-scenario streams.
_STREAM_POSITIONS = 0
_STREAM_ACTIVITY = 1
_STREAM_PILOTS = 2
_STREAM_OBSERVATIONS = 3

_SYNTHESIS_BYTES = 1 << 18
_SLAB_BYTES = 1 << 17

# numpy's SeedSequence hash: a pool of four 32-bit words, built with the
# hashmix constants A, read out with B, combined by mix's L and R.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class TopologyConfig:
    """AP geometry and backhaul connectivity parameters.

    ``degree`` is the number of one-hop neighbors each AP connects to
    (its d nearest APs; the adjacency is symmetrized by union).  A degree
    of 0 gives isolated APs.
    """

    num_aps: int
    degree: int
    ap_spacing: float = 500.0
    layout: str = "grid"
    seed: int = 0

    def __post_init__(self):
        check_integers({"num_aps": self.num_aps, "degree": self.degree, "seed": self.seed})
        problems = seed_problems({"seed": self.seed})
        if self.num_aps <= 0:
            problems.append(f"num_aps must be positive, got {self.num_aps}")
        if self.degree < 0:
            problems.append(f"degree must be >= 0, got {self.degree}")
        if self.num_aps > 0 and self.degree >= self.num_aps:
            problems.append(f"degree {self.degree} must be < num_aps {self.num_aps}")
        if self.layout not in ("grid", "ring"):
            problems.append(f"layout must be 'grid' or 'ring', got {self.layout!r}")
        if not (is_finite(self.ap_spacing) and self.ap_spacing > 0):
            problems.append(f"ap_spacing must be positive and finite, got {self.ap_spacing}")
        if problems:
            raise InvalidConfig("; ".join(problems))


def ap_positions(cfg: TopologyConfig) -> np.ndarray:
    """AP coordinates for the configured layout, shape (B, 2), meters."""
    b = cfg.num_aps
    if cfg.layout == "ring":
        if b == 1:
            return np.zeros((1, 2))
        radius = b * cfg.ap_spacing / (2.0 * math.pi)
        angles = 2.0 * math.pi * np.arange(b) / b
        return radius * np.column_stack([np.cos(angles), np.sin(angles)])
    # Square-ish lattice, filled row-major.
    ncols = math.ceil(math.sqrt(b))
    rows = np.arange(b) // ncols
    cols = np.arange(b) % ncols
    return cfg.ap_spacing * np.column_stack([cols, rows]).astype(float)


def build_topology(cfg: TopologyConfig) -> tuple[np.ndarray, tuple[tuple[int, ...], ...]]:
    """AP positions and symmetric one-hop neighbor sets.

    Each AP is first linked to its ``degree`` nearest APs (ties broken by
    lower index), then the adjacency is symmetrized by union.  The returned
    neighbor tuples exclude the AP itself.
    """
    pos = ap_positions(cfg)
    b = cfg.num_aps
    adj = np.zeros((b, b), dtype=bool)
    if cfg.degree > 0:
        dists = distances(pos, pos)
        np.fill_diagonal(dists, np.inf)     # an AP is never its own neighbor
        # A stable sort keeps equal distances in index order: ties go to the lower index.
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :cfg.degree]
        adj[np.arange(b)[:, None], nearest] = True
        adj |= adj.T
    ids = np.nonzero(adj)[1].tolist()     # every row's neighbors, cut by the row counts
    ends = np.cumsum(adj.sum(axis=1)).tolist()
    return pos, tuple(tuple(ids[i:j]) for i, j in zip([0, *ends], ends))


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the points of (P, 2) ``a`` and (Q, 2) ``b``, shape (P, Q).

    ``np.linalg.norm(a[:, None] - b[None], axis=2)``'s own arithmetic, bit for bit.
    """
    dx = a[:, None, 0] - b[None, :, 0]
    dy = a[:, None, 1] - b[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def pathloss(distance_m, exponent: float = 3.7):
    """Power-law large-scale gain ``max(d, 1)^-exponent``: unit gain at 1 m and below."""
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    return d ** (-exponent)


@dataclass
class Scenario:
    """One immutable network instance plus its ground truth."""

    topology: TopologyConfig
    num_devices: int
    num_active: int
    pilot_len: int
    num_antennas: int
    snr_db: float
    noise_power: float
    ap_pos: np.ndarray            # (B, 2)
    neighbors: tuple[tuple[int, ...], ...]
    device_pos: np.ndarray        # (N, 2)
    gains: np.ndarray             # (B, N) large-scale gains g[b, n] > 0
    activity: np.ndarray          # (N,) 0/1 ground truth
    pilots: np.ndarray            # (L, N) complex pilot stack
    seed: int = 0
    gain_ref: float | None = None
    pathloss_exponent: float = 3.7
    schema_version: int = SCHEMA_VERSION

    @property
    def num_aps(self) -> int:
        return self.topology.num_aps

    def nearest_ap(self) -> np.ndarray:
        """Index of the closest AP per device (ties to the lower index)."""
        return np.argmin(distances(self.ap_pos, self.device_pos), axis=0)


def _complex_gaussian(pairs: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Complex entries with variance ``scale`` from standard normal (real, imaginary) pairs.

    ``pairs`` stacks the real parts' draws, then the imaginary parts', along
    its first axis.
    """
    std = math.sqrt(scale / 2.0)
    out = np.empty(pairs.shape[1:], dtype=complex)
    out.real = std * pairs[0]
    out.imag = std * pairs[1]
    return out


def snr_to_noise(gains: np.ndarray, activity: np.ndarray, nearest: np.ndarray,
                 snr_db: float) -> float:
    """Noise power from the scenario's SNR convention.

    sigma^2 = median over active devices of their nearest-AP gain, divided
    by 10^(snr_db/10).  Falls back to the median over all devices when no
    device is active.
    """
    g_nearest = gains[nearest, np.arange(gains.shape[1])]
    active = np.asarray(activity) == 1
    ref = float(np.median(g_nearest[active])) if np.any(active) else float(np.median(g_nearest))
    return ref / 10.0 ** (snr_db / 10.0)


def check_sizes(num_devices: int, num_active: int, pilot_len: int, num_antennas: int,
                snr_db: float, gain_ref: float | None, pathloss_exponent: float) -> None:
    """Raise InvalidConfig unless :func:`make_scenario` can draw these sizes, SNR and gains."""
    check_integers({"num_devices": num_devices, "num_active": num_active,
                    "pilot_len": pilot_len, "num_antennas": num_antennas})
    problems = []
    if num_devices <= 0:
        problems.append(f"num_devices must be positive, got {num_devices}")
    if not 0 <= num_active <= num_devices:
        problems.append(f"num_active must be in [0, {num_devices}], got {num_active}")
    if pilot_len <= 0:
        problems.append(f"pilot_len must be positive, got {pilot_len}")
    if num_antennas <= 0:
        problems.append(f"num_antennas must be positive, got {num_antennas}")
    if not is_finite(snr_db):
        problems.append(f"snr_db must be finite, got {snr_db}")
    if gain_ref is not None and not (is_finite(gain_ref) and gain_ref > 0):
        problems.append(f"gain_ref must be positive and finite, got {gain_ref}")
    if not (is_finite(pathloss_exponent) and pathloss_exponent > 0):
        problems.append(f"pathloss_exponent must be positive and finite, got {pathloss_exponent}")
    if problems:
        raise InvalidConfig("; ".join(problems))


def make_scenario(
    topology: TopologyConfig,
    num_devices: int,
    num_active: int,
    pilot_len: int,
    num_antennas: int,
    snr_db: float,
    gain_ref: float | None = None,
    pathloss_exponent: float = 3.7,
) -> Scenario:
    """Draw a full scenario from ``topology.seed``.

    Devices are placed uniformly over the bounding box of the AP positions
    extended by half the AP spacing; exactly ``num_active`` devices are
    active, chosen uniformly.  Pilot entries are i.i.d. complex Gaussian
    with unit variance per entry.

    When ``gain_ref`` is set, the gain matrix is rescaled so that the
    median nearest-AP gain over all devices equals ``gain_ref``.  This
    pins the absolute scale that the solver's step sizes operate on
    without touching relative gains or the SNR definition.
    """
    check_sizes(num_devices, num_active, pilot_len, num_antennas, snr_db, gain_ref,
                pathloss_exponent)
    pos, neighbors = build_topology(topology)
    streams = np.random.SeedSequence(topology.seed).spawn(4)

    margin = topology.ap_spacing / 2.0
    lo = pos.min(axis=0) - margin
    hi = pos.max(axis=0) + margin
    rng_pos = np.random.default_rng(streams[_STREAM_POSITIONS])
    device_pos = rng_pos.uniform(lo, hi, size=(num_devices, 2))

    rng_act = np.random.default_rng(streams[_STREAM_ACTIVITY])
    activity = np.zeros(num_devices, dtype=np.int8)
    activity[rng_act.choice(num_devices, size=num_active, replace=False)] = 1

    rng_pil = np.random.default_rng(streams[_STREAM_PILOTS])
    pilots = _complex_gaussian(rng_pil.standard_normal((2, pilot_len, num_devices)))

    dists = distances(pos, device_pos)
    gains = pathloss(dists, exponent=pathloss_exponent)
    nearest = np.argmin(dists, axis=0)
    if gain_ref is not None:
        g_nearest = gains[nearest, np.arange(num_devices)]
        gains = gains * (gain_ref / float(np.median(g_nearest)))

    noise_power = snr_to_noise(gains, activity, nearest, snr_db)

    return Scenario(
        topology=topology,
        num_devices=num_devices,
        num_active=num_active,
        pilot_len=pilot_len,
        num_antennas=num_antennas,
        snr_db=snr_db,
        noise_power=noise_power,
        ap_pos=pos,
        neighbors=neighbors,
        device_pos=device_pos,
        gains=gains,
        activity=activity,
        pilots=pilots,
        seed=topology.seed,
        gain_ref=gain_ref,
        pathloss_exponent=pathloss_exponent,
    )


def seed_words(seed: int) -> list[int]:
    """The 32-bit words numpy's ``SeedSequence`` reads from a nonnegative ``seed``, low first."""
    seed = int(seed)
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return words


def entropy_rows(head: list[int], last) -> np.ndarray:
    """(len(last), W) uint32 rows ``[*head, last[r]]``, zero-padded to W = 4 words or more."""
    rows = np.zeros((len(last), max(4, len(head) + 1)), dtype=np.uint32)
    rows[:, :len(head)] = head
    rows[:, len(head)] = last
    return rows


@cache
def _hash_constants(width: int) -> tuple:
    """The constants of :func:`seed_states` for rows of ``width`` words (xor, multiplier pairs)."""
    a, b = [_INIT_A], [_INIT_B]
    for _ in range(16 + 4 * (width - 4)):
        a.append(a[-1] * _MULT_A & 0xFFFFFFFF)
    for _ in range(8):
        b.append(b[-1] * _MULT_B & 0xFFFFFFFF)
    a, b = np.array(a, dtype=np.uint32), np.array(b, dtype=np.uint32)

    def hashmix(calls):  # the k-th hashmix call xors a[k] and multiplies by a[k + 1]
        return a[calls][..., None], a[calls + 1][..., None]

    # Mixing step s hashes pool word s once per other word, in order; row s is
    # restored after the step, so its constants are never used.
    steps = [hashmix(np.insert(4 + 3 * s + np.arange(3), s, 0)) for s in range(4)]
    tail = hashmix(16 + np.arange(4 * (width - 4)).reshape(-1, 4))
    return hashmix(np.arange(4)), steps, tail, (b[:8].reshape(2, 4, 1), b[1:].reshape(2, 4, 1))


def seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for each row of assembled entropy words.

    ``words`` is (R, W) uint32 with W >= 4.  Row r holds what one SeedSequence
    hashes: its entropy's words (:func:`seed_words`), padded with zeros to
    four if a spawn key follows, then the key's words.  Zeros appended up to
    four words hash as numpy's shorter entropy does.  The rows' (R, 4) states
    are numpy's ``mix_entropy`` then ``generate_state``, bit for bit, with
    each step one array operation over all rows.
    """
    (xa, ma), steps, (xt, mt), (xb, mb) = _hash_constants(words.shape[1])
    shift, mix_l, mix_r = np.uint32(16), np.uint32(_MIX_L), np.uint32(_MIX_R)
    words = words.T
    pool = words[:4] ^ xa                    # (4, R): hashmix of the first four words
    pool *= ma
    pool ^= pool >> shift
    for s, (xs, ms) in enumerate(steps):     # mix(pool[d], hashmix(pool[s])), every d != s
        h = pool[s] ^ xs
        h *= ms
        h ^= h >> shift
        h *= mix_r
        keep = pool[s].copy()
        pool *= mix_l
        pool -= h
        pool ^= pool >> shift
        pool[s] = keep
    if len(words) > 4:                       # mix each later word into every pool word
        h = words[4:, None] ^ xt
        h *= mt
        h ^= h >> shift
        h *= mix_r
        for hw in h:
            pool *= mix_l
            pool -= hw
            pool ^= pool >> shift
    out = pool ^ xb                          # (2, 4, R): eight words cycling over the pool
    out *= mb
    out ^= out >> shift
    # Pairs of words are little-endian uint64s, as generate_state reads them.
    return out.reshape(8, -1).T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@cache
def _carrier() -> type:
    """An ``ISeedSequence`` that hands PCG64 one :func:`seed_states` row as its state.

    PCG64 asks it once, for four uint64 words, and then runs numpy's own
    seeding.  Built on first use, so that importing the package loads no
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class State(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return State


def streams(words: np.ndarray) -> list:
    """What ``np.random.default_rng`` makes of each row's SeedSequence (:func:`seed_states`)."""
    from numpy.random import PCG64, Generator

    state = _carrier()
    return [Generator(PCG64(state(s))) for s in seed_states(words)]


def synthesize(scenario: Scenario) -> np.ndarray:
    """Draw the received pilot block at every AP; return the (B, L, L) sample covariances.

    Row b is AP b's antenna-averaged covariance (1/M) Y_b Y_b^H, Hermitian
    PSD, with Y_b = pilots @ diag(chi * sqrt(g_b)) @ H_b + W_b, and H_b and
    W_b i.i.d. complex Gaussian (unit variance and ``scenario.noise_power``
    variance per entry).  Deterministic given the scenario seed, which must
    be a nonnegative integer (InvalidConfig): AP b draws from child b of the
    observation stream, ``SeedSequence(seed).spawn(4)[3].spawn(B)[b]``, in
    this order, the real then the imaginary parts of its (N, M) channel,
    then its noise's (2, L, M) standard normals.  The B children's states
    are derived in one pass (:func:`seed_states`), so the values are those
    of ``default_rng`` of each child.  The channel is drawn a slab of rows at
    a time, which gives the same values as one ``standard_normal((2, N, M))``
    draw.  The average multiplies by 1/M, which is what numpy's complex
    division by M computes, without its other work; only a zero part of sign
    -0.0 could come out with the other sign, and Y_b Y_b^H holds none.  An
    AP's bits depend on how many APs share its group's product, as the
    solver's products do.
    """
    bad = seed_problems({"seed": scenario.seed})
    if bad:
        raise InvalidConfig("; ".join(bad))
    b, n, l, m = scenario.num_aps, scenario.num_devices, scenario.pilot_len, scenario.num_antennas
    # Child b's entropy is the seed's words padded to four, then its spawn key.
    key = seed_words(scenario.seed)
    ap_streams = streams(entropy_rows([*key, *[0] * (4 - len(key)), _STREAM_OBSERVATIONS],
                                      np.arange(b)))
    # Inactive devices have amplitude exactly 0, so only the active columns
    # enter the product; the full channel is still drawn to keep the stream.
    act = np.flatnonzero(scenario.activity)
    amp = scenario.activity[act] * np.sqrt(scenario.gains[:, act])  # (B, K)
    pilots = scenario.pilots[:, act]
    # The channel stream is 2N rows of M draws, and a slab of them at a time
    # is filled into one buffer, which bounds the draw by _SLAB_BYTES whatever
    # N is.  The normal fill keeps no state between calls, so the pieces give
    # the stream's values.  The kept rows are sorted, so those of a slab land
    # in one run of the AP's (2K, M) block, and the plan serves every AP.
    rows = np.concatenate([act, n + act])
    slab = max(1, min(2 * n, _SLAB_BYTES // (8 * m)))
    buf = np.empty((slab, m))
    starts = range(0, 2 * n, slab)
    cuts = np.searchsorted(rows, [*starts, 2 * n])
    plan = [(buf[:min(slab, 2 * n - first)], rows[lo:hi] - first, slice(lo, hi))
            for first, lo, hi in zip(starts, cuts[:-1], cuts[1:])]
    # The products run over groups of APs, which took 8% off a 64-AP
    # experiment against one product per AP; a group's kept channel rows and
    # noise blocks take about _SYNTHESIS_BYTES, which bounds their temporaries.
    group = max(1, _SYNTHESIS_BYTES // (16 * m * (len(act) + l)))
    sample_cov = np.empty((b, l, l), dtype=complex)
    for first in range(0, b, group):
        aps = slice(first, min(first + group, b))
        h = np.empty((aps.stop - first, 2, len(act), m))
        w = np.empty((aps.stop - first, 2, l, m))
        kept = h.reshape(aps.stop - first, 2 * len(act), m)
        for k, rng in enumerate(ap_streams[aps]):
            for fill, take, dest in plan:
                rng.standard_normal(out=fill)
                # The indices are in range; mode="clip" writes to out unbuffered.
                np.take(fill, take, axis=0, out=kept[k, dest], mode="clip")
            rng.standard_normal(out=w[k])
        y = ((pilots * amp[aps, None, :]) @ _complex_gaussian(h.swapaxes(0, 1))
             + _complex_gaussian(w.swapaxes(0, 1), scale=scenario.noise_power))
        np.matmul(y, y.conj().swapaxes(-1, -2), out=sample_cov[aps])
    sample_cov *= 1.0 / m
    return sample_cov


def scenario_to_dict(s: Scenario) -> dict:
    """JSON-ready dict; complex values become [re, im] pairs."""
    return {
        "schema_version": s.schema_version,
        "topology": asdict(s.topology),
        "num_devices": s.num_devices,
        "num_active": s.num_active,
        "pilot_len": s.pilot_len,
        "num_antennas": s.num_antennas,
        "snr_db": s.snr_db,
        "noise_power": s.noise_power,
        "gain_ref": s.gain_ref,
        "pathloss_exponent": s.pathloss_exponent,
        "seed": s.seed,
        "ap_pos": s.ap_pos.tolist(),
        "neighbors": [list(nb) for nb in s.neighbors],
        "device_pos": s.device_pos.tolist(),
        "gains": s.gains.tolist(),
        "activity": s.activity.tolist(),
        "pilots": np.stack([s.pilots.real, s.pilots.imag], axis=-1).tolist(),
    }


# What each array of a scenario file must hold, entry by entry.
_FINITE = (np.isfinite, "finite")
_ENTRIES = {"ap_pos": _FINITE, "device_pos": _FINITE, "pilots": _FINITE,
            "gains": (lambda g: np.isfinite(g) & (g > 0), "positive and finite"),
            "activity": (lambda a: (a == 0) | (a == 1), "0 or 1")}


def scenario_from_dict(d: dict) -> Scenario:
    """The scenario a ``scenario_to_dict`` document describes.

    Raises InvalidConfig for a document or topology that is not an object,
    another schema version, a missing or unknown key, values that
    :func:`make_scenario` would reject, a noise power or seed out of range,
    an array of the wrong shape or with entries out of range (``_ENTRIES``),
    a ``num_active`` that miscounts ``activity`` or malformed neighbor sets.
    """
    # The version comes first: another version's document has other keys.
    if isinstance(d, dict) and d.get("schema_version") != SCHEMA_VERSION:
        raise InvalidConfig(f"unsupported schema_version {d.get('schema_version')!r}")
    check_keys("scenario", d, Scenario)
    check_keys("topology", d["topology"], TopologyConfig)
    values = {**d, "topology": TopologyConfig(**d["topology"])}
    check_sizes(*(d[name] for name in ("num_devices", "num_active", "pilot_len", "num_antennas",
                                       "snr_db", "gain_ref", "pathloss_exponent")))
    b, n = values["topology"].num_aps, d["num_devices"]
    # pilots is stored as (re, im) pairs.
    shapes = {"ap_pos": (b, 2), "device_pos": (n, 2), "gains": (b, n), "activity": (n,),
              "pilots": (d["pilot_len"], n, 2)}
    values.update((name, np.asarray(d[name], dtype=float)) for name in shapes)
    wrong = [f"{name} has shape {values[name].shape}, expected {shape}"
             for name, shape in shapes.items() if values[name].shape != shape]
    wrong = wrong or [f"{name} entries must be {what}" for name, (ok, what) in _ENTRIES.items()
                      if not ok(values[name]).all()]
    if not wrong and values["activity"].sum() != d["num_active"]:
        wrong.append(f"num_active is {d['num_active']}, but {int(values['activity'].sum())} "
                     "devices are active")
    wrong += neighbor_problems(d["neighbors"], b)
    if not (is_finite(d["noise_power"]) and d["noise_power"] > 0):
        wrong.append(f"noise_power must be positive and finite, got {d['noise_power']!r}")
    wrong += seed_problems({"seed": d["seed"]})
    if wrong:
        raise InvalidConfig("; ".join(wrong))
    pairs = values["pilots"]
    values.update(neighbors=tuple(tuple(nb) for nb in d["neighbors"]),
                  activity=values["activity"].astype(np.int8),
                  pilots=pairs[..., 0] + 1j * pairs[..., 1])
    return Scenario(**values)


def read_json(path, what: str):
    """The JSON document in the file ``path``; InvalidConfig if it is missing or not JSON.

    ``what`` names the file in the message.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InvalidConfig(f"cannot read {what} {path}: {err.strerror}") from None
    except ValueError as err:  # not JSON, or not text
        raise InvalidConfig(f"{what} {path} is not JSON: {err}") from None


def save_scenario(s: Scenario, path) -> None:
    """Write ``s`` as JSON to the file ``path``; InvalidConfig if it cannot be written."""
    try:
        with open(path, "w") as fh:
            json.dump(scenario_to_dict(s), fh)
    except OSError as err:
        raise InvalidConfig(f"cannot write scenario file {path}: {err.strerror}") from None


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, "scenario file"))


def isolated(scenario: Scenario) -> Scenario:
    """Copy of the scenario with every AP's neighbor set emptied."""
    return replace(scenario, neighbors=tuple(() for _ in range(scenario.num_aps)))

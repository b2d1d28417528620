"""Reproducible cell-free network instances.

A scenario bundles AP/device geometry, the one-hop backhaul graph,
large-scale gains, pilot sequences, the ground-truth activity pattern and
the noise level.  All randomness flows from a single 64-bit seed through
named ``SeedSequence`` children, so identical (config, seed) pairs give
bit-identical scenarios and received signals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidConfig

SCHEMA_VERSION = 1

# SeedSequence child indices for the per-scenario streams.
_STREAM_POSITIONS = 0
_STREAM_ACTIVITY = 1
_STREAM_PILOTS = 2
_STREAM_OBSERVATIONS = 3

_SYNTHESIS_BYTES = 1 << 18
_SLAB_BYTES = 1 << 17


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
        problems = []
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
        dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)     # an AP is never its own neighbor
        # A stable sort keeps equal distances in index order: ties go to the lower index.
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :cfg.degree]
        adj[np.arange(b)[:, None], nearest] = True
        adj |= adj.T
    neighbors = tuple(tuple(np.flatnonzero(row).tolist()) for row in adj)
    return pos, neighbors


def pathloss(distance_m, exponent: float = 3.7, shadow_db=0.0):
    """Power-law large-scale gain: ``max(d, 1)^-exponent * 10^(shadow/10)``.

    Unit gain at 1 m; distances are clamped below at 1 m.  ``shadow_db``
    (scalar or array) adds log-normal shadowing when nonzero.
    """
    d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
    return d ** (-exponent) * 10.0 ** (np.asarray(shadow_db, dtype=float) / 10.0)


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
        dists = np.linalg.norm(
            self.ap_pos[:, None, :] - self.device_pos[None, :, :], axis=2
        )
        return np.argmin(dists, axis=0)


@dataclass
class ApObservation:
    """Antenna-averaged covariance of the pilot signal received at one AP."""

    ap_id: int
    sample_cov: np.ndarray        # (L, L) Hermitian PSD, (1/M) Y Y^H of the (L, M) block Y


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


def is_finite(x) -> bool:
    """Whether the real number ``x`` is finite; an int too large for a float is not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def check_sizes(num_devices: int, num_active: int, pilot_len: int, num_antennas: int,
                snr_db: float, gain_ref: float | None, pathloss_exponent: float) -> None:
    """Raise InvalidConfig unless :func:`make_scenario` can draw these sizes, SNR and gains."""
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

    dists = np.linalg.norm(pos[:, None, :] - device_pos[None, :, :], axis=2)
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


def synthesize(scenario: Scenario) -> list[ApObservation]:
    """Draw the received pilot block at every AP and return its sample covariance.

    Y_b = pilots @ diag(chi * sqrt(g_b)) @ H_b + W_b, with H_b and W_b
    i.i.d. complex Gaussian (unit variance and ``scenario.noise_power``
    variance per entry).  Deterministic given the scenario seed: AP b draws
    from child b of the observation stream, in this order, the real then
    the imaginary parts of its (N, M) channel, then its noise's (2, L, M)
    standard normals.  The channel is drawn a slab of rows at a time, which
    gives the same values as one ``standard_normal((2, N, M))`` draw.
    """
    b, n, l, m = scenario.num_aps, scenario.num_devices, scenario.pilot_len, scenario.num_antennas
    obs_stream = np.random.SeedSequence(scenario.seed).spawn(4)[_STREAM_OBSERVATIONS]
    ap_streams = obs_stream.spawn(b)
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
        for k, stream in enumerate(ap_streams[aps]):
            rng = np.random.default_rng(stream)
            for fill, take, dest in plan:
                rng.standard_normal(out=fill)
                # The indices are in range; mode="clip" writes to out unbuffered.
                np.take(fill, take, axis=0, out=kept[k, dest], mode="clip")
            rng.standard_normal(out=w[k])
        y = ((pilots * amp[aps, None, :]) @ _complex_gaussian(h.swapaxes(0, 1))
             + _complex_gaussian(w.swapaxes(0, 1), scale=scenario.noise_power))
        np.matmul(y, y.conj().swapaxes(-1, -2), out=sample_cov[aps])
    sample_cov /= m
    return [ApObservation(ap_id=i, sample_cov=sample_cov[i]) for i in range(b)]


def _complex_to_pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pairs_to_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def scenario_to_dict(s: Scenario) -> dict:
    """JSON-ready dict; complex values become [re, im] pairs."""
    return {
        "schema_version": s.schema_version,
        "topology": {
            "num_aps": s.topology.num_aps,
            "degree": s.topology.degree,
            "ap_spacing": s.topology.ap_spacing,
            "layout": s.topology.layout,
            "seed": s.topology.seed,
        },
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
        "pilots": _complex_to_pairs(s.pilots),
    }


def scenario_from_dict(d: dict) -> Scenario:
    if d.get("schema_version") != SCHEMA_VERSION:
        raise InvalidConfig(f"unsupported schema_version {d.get('schema_version')!r}")
    topo = TopologyConfig(**d["topology"])
    return Scenario(
        topology=topo,
        num_devices=d["num_devices"],
        num_active=d["num_active"],
        pilot_len=d["pilot_len"],
        num_antennas=d["num_antennas"],
        snr_db=d["snr_db"],
        noise_power=d["noise_power"],
        ap_pos=np.asarray(d["ap_pos"], dtype=float),
        neighbors=tuple(tuple(nb) for nb in d["neighbors"]),
        device_pos=np.asarray(d["device_pos"], dtype=float),
        gains=np.asarray(d["gains"], dtype=float),
        activity=np.asarray(d["activity"], dtype=np.int8),
        pilots=_pairs_to_complex(d["pilots"]),
        seed=d["seed"],
        gain_ref=d["gain_ref"],
        pathloss_exponent=d["pathloss_exponent"],
    )


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def isolated(scenario: Scenario) -> Scenario:
    """Copy of the scenario with every AP's neighbor set emptied."""
    return replace(scenario, neighbors=tuple(() for _ in range(scenario.num_aps)))

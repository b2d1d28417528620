"""Scenario generation: geometry, gains, signals, reproducibility, JSON."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopdetect import scenario as scenario_module
from coopdetect.errors import InvalidConfig
from coopdetect.scenario import (
    TopologyConfig,
    build_topology,
    isolated,
    load_scenario,
    make_scenario,
    pathloss,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    snr_to_noise,
    synthesize,
)


def desk(seed=0, **overrides):
    params = dict(num_devices=30, num_active=4, pilot_len=10, num_antennas=8,
                  snr_db=10.0, gain_ref=1.0)
    params.update(overrides)
    topo = TopologyConfig(num_aps=params.pop("num_aps", 4),
                          degree=params.pop("degree", 2), seed=seed)
    return make_scenario(topo, **params)


class TestTopology:
    def test_two_aps_mutual(self):
        pos, neighbors = build_topology(TopologyConfig(num_aps=2, degree=1))
        assert neighbors == ((1,), (0,))
        assert all(len(nb) + 1 == 2 for nb in neighbors)

    def test_grid_symmetric_and_degree(self):
        pos, neighbors = build_topology(TopologyConfig(num_aps=20, degree=4))
        for i, nb in enumerate(neighbors):
            assert len(nb) >= 4
            assert i not in nb
            for j in nb:
                assert i in neighbors[j]

    def test_ring_structure(self):
        _, neighbors = build_topology(
            TopologyConfig(num_aps=5, degree=2, layout="ring")
        )
        for b in range(5):
            assert set(neighbors[b]) == {(b - 1) % 5, (b + 1) % 5}

    def test_ring_spacing(self):
        pos, _ = build_topology(TopologyConfig(num_aps=6, degree=2, layout="ring",
                                               ap_spacing=100.0))
        gaps = np.linalg.norm(pos - np.roll(pos, -1, axis=0), axis=1)
        # Chord length of adjacent ring slots is close to the nominal spacing.
        np.testing.assert_allclose(gaps, gaps[0])
        assert gaps[0] == pytest.approx(100.0, rel=0.05)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            TopologyConfig(num_aps=0, degree=0)
        with pytest.raises(InvalidConfig):
            TopologyConfig(num_aps=3, degree=3)
        with pytest.raises(InvalidConfig):
            TopologyConfig(num_aps=3, degree=1, layout="mesh")
        for spacing in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidConfig, match="ap_spacing must be positive"):
                TopologyConfig(num_aps=3, degree=1, ap_spacing=spacing)

    def test_zero_degree_isolates(self):
        _, neighbors = build_topology(TopologyConfig(num_aps=4, degree=0))
        assert neighbors == ((), (), (), ())

    @pytest.mark.parametrize("layout", ["grid", "ring"])
    def test_matches_per_ap_nearest_loop(self, layout):
        # Reference: each AP picks its `degree` nearest others, ties to the lower index.
        for b in range(1, 21):
            for degree in range(min(b, 9)):
                cfg = TopologyConfig(num_aps=b, degree=degree, layout=layout)
                pos, neighbors = build_topology(cfg)
                dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
                adj = np.zeros((b, b), dtype=bool)
                for i in range(b):
                    order = [j for j in np.lexsort((np.arange(b), dists[i])) if j != i]
                    adj[i, order[:degree]] = True
                adj |= adj.T
                assert neighbors == tuple(tuple(np.flatnonzero(row)) for row in adj)


class TestPathloss:
    def test_unit_gain_at_one_meter(self):
        assert pathloss(1.0) == pytest.approx(1.0)

    def test_clamped_below_one_meter(self):
        assert pathloss(0.01) == pytest.approx(1.0)

    def test_power_law_ratio(self):
        assert pathloss(10.0) / pathloss(100.0) == pytest.approx(10.0**3.7)

    def test_monotone_without_shadowing(self):
        d = np.linspace(1.0, 2000.0, 50)
        g = pathloss(d)
        assert np.all(np.diff(g) < 0)


class TestSnrToNoise:
    def test_zero_db_unit_gain(self):
        gains = np.ones((2, 6))
        activity = np.array([1, 1, 0, 0, 1, 0])
        nearest = np.zeros(6, dtype=int)
        assert snr_to_noise(gains, activity, nearest, 0.0) == pytest.approx(1.0)

    def test_ten_db(self):
        gains = np.ones((2, 6))
        activity = np.array([1, 0, 0, 1, 0, 0])
        nearest = np.zeros(6, dtype=int)
        assert snr_to_noise(gains, activity, nearest, 10.0) == pytest.approx(0.1)

    def test_ten_db_step_is_exact_factor_ten(self):
        sc = desk(seed=3)
        lo = snr_to_noise(sc.gains, sc.activity, sc.nearest_ap(), 0.0)
        hi = snr_to_noise(sc.gains, sc.activity, sc.nearest_ap(), 10.0)
        assert lo / hi == pytest.approx(10.0)


class TestScenario:
    def test_activity_count_exact(self):
        for seed in range(5):
            sc = desk(seed=seed)
            assert int(sc.activity.sum()) == sc.num_active

    def test_gain_ref_normalization(self):
        sc = desk(seed=1, gain_ref=7.5)
        g_nearest = sc.gains[sc.nearest_ap(), np.arange(sc.num_devices)]
        assert np.median(g_nearest) == pytest.approx(7.5)

    def test_positions_inside_margin_box(self):
        sc = desk(seed=2)
        margin = sc.topology.ap_spacing / 2.0
        lo = sc.ap_pos.min(axis=0) - margin
        hi = sc.ap_pos.max(axis=0) + margin
        assert np.all(sc.device_pos >= lo) and np.all(sc.device_pos <= hi)

    def test_gains_positive(self):
        sc = desk(seed=4)
        assert np.all(sc.gains > 0)

    def test_reproducible_bitwise(self):
        a, b = desk(seed=9), desk(seed=9)
        np.testing.assert_array_equal(a.pilots, b.pilots)
        np.testing.assert_array_equal(a.gains, b.gains)
        np.testing.assert_array_equal(a.activity, b.activity)
        np.testing.assert_array_equal(a.device_pos, b.device_pos)
        assert a.noise_power == b.noise_power

    def test_different_seeds_differ(self):
        assert not np.array_equal(desk(seed=1).pilots, desk(seed=2).pilots)

    def test_invalid_params(self):
        topo = TopologyConfig(num_aps=3, degree=1)
        with pytest.raises(InvalidConfig):
            make_scenario(topo, num_devices=0, num_active=0, pilot_len=4,
                          num_antennas=2, snr_db=0.0)
        with pytest.raises(InvalidConfig):
            make_scenario(topo, num_devices=5, num_active=9, pilot_len=4,
                          num_antennas=2, snr_db=0.0)
        for exponent in (0.0, float("nan"), float("inf")):
            message = f"pathloss_exponent must be positive and finite, got {exponent}"
            with pytest.raises(InvalidConfig, match=message):
                make_scenario(topo, num_devices=5, num_active=2, pilot_len=4, num_antennas=2,
                              snr_db=0.0, pathloss_exponent=exponent)

    @pytest.mark.parametrize("snr_db, gain_ref", [(float("nan"), None), (float("inf"), None),
                                                  (10.0, float("nan")), (10.0, float("inf"))])
    def test_non_finite_snr_or_gain_scale_rejected(self, snr_db, gain_ref):
        topo = TopologyConfig(num_aps=3, degree=1)
        with pytest.raises(InvalidConfig, match="must be"):
            make_scenario(topo, num_devices=5, num_active=2, pilot_len=4, num_antennas=2,
                          snr_db=snr_db, gain_ref=gain_ref)


class TestSynthesize:
    def test_no_signal_no_noise_gives_zero(self):
        sc = desk(seed=5, num_active=0)
        obs = synthesize(replace(sc, noise_power=0.0))
        for o in obs:
            assert np.allclose(o.sample_cov, 0.0)

    def test_noise_only_trace_moment(self):
        # E[tr(sample cov)] == L * sigma^2; averaged over 100 AP draws.
        traces = []
        for seed in range(25):
            sc = desk(seed=seed, num_active=0)
            for o in synthesize(replace(sc, noise_power=1.0)):
                traces.append(np.real(np.trace(o.sample_cov)) / sc.pilot_len)
        assert np.mean(traces) == pytest.approx(1.0, rel=0.05)

    def test_large_antenna_count_recovers_rank_one(self):
        topo = TopologyConfig(num_aps=1, degree=0, seed=11)
        sc = make_scenario(topo, num_devices=4, num_active=1, pilot_len=6,
                           num_antennas=2048, snr_db=10.0, gain_ref=1.0)
        n = int(np.flatnonzero(sc.activity)[0])
        obs = synthesize(replace(sc, noise_power=0.0))
        s_n = sc.pilots[:, n]
        expected = sc.gains[0, n] * np.outer(s_n, s_n.conj())
        err = np.linalg.norm(obs[0].sample_cov - expected) / np.linalg.norm(expected)
        assert err < 0.05

    def test_sample_cov_hermitian_psd(self):
        sc = desk(seed=6)
        for o in synthesize(sc):
            np.testing.assert_allclose(o.sample_cov, o.sample_cov.conj().T, atol=1e-12)
            eigs = np.linalg.eigvalsh(o.sample_cov)
            assert eigs.min() >= -1e-10 * np.real(np.trace(o.sample_cov))

    def test_reproducible_bitwise(self):
        sc = desk(seed=7)
        y1 = synthesize(sc)[0].sample_cov
        y2 = synthesize(desk(seed=7))[0].sample_cov
        np.testing.assert_array_equal(y1, y2)

    @given(st.integers(1, 12), st.data())
    def test_matches_one_draw_per_ap_bitwise(self, n, data):
        # Small slabs and AP groups: many slabs per AP, a partial last slab,
        # and several groups per call.
        k, l, m = (data.draw(st.integers(0, n)), data.draw(st.integers(1, 5)),
                   data.draw(st.integers(1, 6)))
        b, seed = data.draw(st.integers(1, 7)), data.draw(st.integers(0, 2**32 - 1))
        slab_rows, group = data.draw(st.integers(1, 2 * n + 1)), data.draw(st.integers(1, 3))
        sc = make_scenario(TopologyConfig(num_aps=b, degree=0, seed=seed), num_devices=n,
                           num_active=k, pilot_len=l, num_antennas=m, snr_db=10.0, gain_ref=1.0)
        with mock.patch.object(scenario_module, "_SLAB_BYTES", 8 * m * slab_rows), \
                mock.patch.object(scenario_module, "_SYNTHESIS_BYTES", 16 * m * (k + l) * group):
            got = np.stack([o.sample_cov for o in synthesize(sc)])

        def complex_gaussian(pairs, scale):
            out = np.empty(pairs.shape[1:], dtype=complex)
            out.real = math.sqrt(scale / 2.0) * pairs[0]
            out.imag = math.sqrt(scale / 2.0) * pairs[1]
            return out

        act = np.flatnonzero(sc.activity)
        streams = np.random.SeedSequence(seed).spawn(4)[3].spawn(b)
        for ap, stream in enumerate(streams):
            rng = np.random.default_rng(stream)
            h = complex_gaussian(rng.standard_normal((2, n, m)), 1.0)
            w = complex_gaussian(rng.standard_normal((2, l, m)), sc.noise_power)
            y = (sc.pilots[:, act] * np.sqrt(sc.gains[ap, act])) @ h[act] + w
            np.testing.assert_array_equal(got[ap], y @ y.conj().T / m)

    def test_draw_memory_does_not_grow_with_devices(self):
        peaks = []
        for n in (500, 4000):
            sc = make_scenario(TopologyConfig(num_aps=1, degree=0, seed=3), num_devices=n,
                               num_active=20, pilot_len=16, num_antennas=64, snr_db=10.0,
                               gain_ref=1.0)
            tracemalloc.start()
            try:
                synthesize(sc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= scenario_module._SLAB_BYTES


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        sc = desk(seed=8)
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        np.testing.assert_array_equal(sc.pilots, back.pilots)
        np.testing.assert_array_equal(sc.gains, back.gains)
        np.testing.assert_array_equal(sc.activity, back.activity)
        assert back.neighbors == sc.neighbors
        assert back.noise_power == sc.noise_power
        assert back.schema_version == sc.schema_version

    def test_rejects_unknown_schema(self):
        d = scenario_to_dict(desk(seed=8))
        d["schema_version"] = 99
        with pytest.raises(InvalidConfig):
            scenario_from_dict(d)

    def test_isolated_clears_neighbors(self):
        sc = desk(seed=8)
        iso = isolated(sc)
        assert all(nb == () for nb in iso.neighbors)
        np.testing.assert_array_equal(iso.pilots, sc.pilots)

"""Tour of scenario generation: geometry, gains, pilots, received signals.

Builds one reproducible cell-free network instance, inspects the pieces a
detector works with, and round-trips the scenario through its JSON fixture
format.

Run: python3 demos/01_scenario_and_signals.py
"""

import tempfile

import numpy as np

from coopdetect import TopologyConfig, load_scenario, make_scenario, save_scenario, synthesize

topo = TopologyConfig(num_aps=5, degree=4, ap_spacing=500.0, layout="grid", seed=2026)
scenario = make_scenario(
    topo,
    num_devices=100,
    num_active=10,
    pilot_len=24,
    num_antennas=16,
    snr_db=10.0,
    gain_ref=48.0,          # median nearest-AP gain, pins the absolute scale
    pathloss_exponent=3.0,
)

print("=== topology ===")
print(f"{scenario.num_aps} APs on a grid, spacing {topo.ap_spacing} m")
for b, nbrs in enumerate(scenario.neighbors):
    print(f"  AP {b} at {scenario.ap_pos[b]}, one-hop neighbors {nbrs}")

print("\n=== devices and gains ===")
nearest = scenario.nearest_ap()
g_nearest = scenario.gains[nearest, np.arange(scenario.num_devices)]
print(f"{scenario.num_devices} devices, {scenario.num_active} active")
print(f"nearest-AP gain quantiles (5/50/95%): "
      f"{np.quantile(g_nearest, [0.05, 0.5, 0.95]).round(2)}")
print(f"noise power from the SNR convention: {scenario.noise_power:.3f} "
      f"(median active device sits {scenario.snr_db:.0f} dB above it)")

print("\n=== received signals ===")
covs = synthesize(scenario)                   # (B, L, L), row b is AP b's
for ap, cov in enumerate(covs[:2]):
    trace = np.real(np.trace(cov))
    print(f"  AP {ap}: signal ({scenario.pilot_len}, {scenario.num_antennas}), "
          f"sample covariance {cov.shape}, trace {trace:.1f} "
          f"(noise-only would be ~{scenario.pilot_len * scenario.noise_power:.1f})")

eigs = np.linalg.eigvalsh(covs[0])
print(f"  sample covariance eigenvalue range at AP 0: "
      f"[{eigs.min():.3f}, {eigs.max():.1f}] (Hermitian PSD)")

print("\n=== fixture round-trip ===")
with tempfile.NamedTemporaryFile(suffix=".json") as fh:
    save_scenario(scenario, fh.name)
    back = load_scenario(fh.name)
    same = (np.array_equal(back.pilots, scenario.pilots)
            and np.array_equal(back.gains, scenario.gains))
    print(f"saved + reloaded scenario identical: {same}")
print("\nsame seed, same config -> bit-identical instance every time")

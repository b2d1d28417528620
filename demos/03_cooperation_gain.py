"""Cooperation versus isolation.

Runs the desk-scale experiment two ways on identical scenarios: the
decentralized cooperative detector (one-hop estimate exchange) and isolated
per-AP detection.  Both score each AP's own estimates, so the gap between
them is what the exchange buys.  No centralized reference is run here:
ROADMAP item 1 plans the references that should bound both modes.

Run: python3 demos/03_cooperation_gain.py      (a few minutes)
"""

from coopdetect.harness import desk_fixture, run_experiment

cfg = desk_fixture(
    master_seed=314159,
    modes=("cmd", "no_coop"),
    trials=10,              # demo-sized; the acceptance suite uses 20
    workers=4,
)

print("running 10 paired trials x 2 modes at desk scale "
      f"(B={cfg.num_aps}, N={cfg.num_devices}, K={cfg.num_active}, "
      f"L={cfg.pilot_len}, M={cfg.num_antennas}, {cfg.snr_db:.0f} dB)...")
artifact = run_experiment(cfg)

print(f"\nconfig hash: {artifact.config_hash}")
print(f"{'mode':>18} {'mean AER':>9} {'stderr':>8} {'missed':>8} {'false al.':>9} {'scalars/trial':>14}")
for agg in artifact.aggregates:
    print(f"{agg['mode']:>18} {agg['mean_aer']:>9.3f} {agg['stderr']:>8.3f} "
          f"{agg['mean_missed']:>8.3f} {agg['mean_false_alarm']:>9.3f} "
          f"{agg['scalars_per_trial']:>14.0f}")

by_mode = {a["mode"]: a for a in artifact.aggregates}
gap = by_mode["no_coop"]["mean_aer"] - by_mode["cmd"]["mean_aer"]
print(f"\ncooperation gain (no_coop - cmd): {gap:+.3f} AER")
print("cmd pays only N scalars per AP per round to its one-hop neighbors.")

"""Single-AP covariance detection from scratch.

One AP estimates which devices transmitted purely from the second-order
statistics of its received pilots, then thresholds the estimate.  Shows the
cost trajectory, the calibrated threshold, and the resulting error rates.

Run: python3 demos/02_single_ap_detection.py
"""

import numpy as np

from coopdetect import (
    Hyperparams,
    SolverOptions,
    TopologyConfig,
    calibrate_threshold,
    evaluate,
    make_scenario,
    run,
    synthesize,
)

def build(seed):
    topo = TopologyConfig(num_aps=1, degree=0, seed=seed)
    return make_scenario(topo, num_devices=100, num_active=10, pilot_len=24,
                         num_antennas=16, snr_db=10.0, gain_ref=48.0,
                         pathloss_exponent=3.0)

hyper = Hyperparams(tau=0.0, num_iters=400)  # no neighbors, no similarity term

print("=== calibrate the threshold on held-out seeds ===")
calibration = []
for seed in (900, 901, 902):
    sc = build(seed)
    result = run(sc, synthesize(sc), hyper, options=SolverOptions(record_cost=False))
    calibration.append((result.gamma, sc))
iota = calibrate_threshold(calibration)
print(f"calibrated threshold multiplier: {iota:.3g}")

print("\n=== evaluation run ===")
scenario = build(seed=1)
result = run(scenario, synthesize(scenario), hyper,
             options=SolverOptions(record_cost=True))
costs = result.trace.round_costs()
print(f"cost: {costs[0]:.1f} (round 1) -> {costs[-1]:.1f} (round {len(costs)})")

report = evaluate(result.gamma, scenario, iota)
print(f"missed detection: {report.missed_detection_prob:.3f}")
print(f"false alarm:      {report.false_alarm_prob:.3f}")
print(f"combined AER:     {report.aer:.3f}")

active = scenario.activity == 1
est = result.gamma[0]
print(f"\nmedian estimate, active devices:   {np.median(est[active]):.2f}")
print(f"median estimate, inactive devices: {np.median(est[~active]):.4f}")
print(f"decision threshold:                {report.threshold:.2f}")

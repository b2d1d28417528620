"""Failure injection: crashed APs and lossy backhaul links.

The cooperative detector has no coordinator, so losing an AP or dropping
messages degrades it gracefully: neighbors keep using the last estimate
they received.  This script compares a clean run against one with a crash
plus 10% message loss, and prints the ledger's message counts.

Run: python3 demos/04_failure_robustness.py
"""

import numpy as np

from coopdetect import FailurePlan, Hyperparams, SolverOptions, evaluate, run
from coopdetect.harness import build_scenario, desk_fixture
from coopdetect.scenario import synthesize

cfg = desk_fixture(master_seed=777)
scenario = build_scenario(cfg, sweep_value=4, seed=777)
covs = synthesize(scenario)
hyper = cfg.hyper()
iota = 0.1                                    # detection threshold multiplier
options = SolverOptions(record_cost=False, check_state_every=50)

plan = FailurePlan(
    ap_failures=((2, 150),),                  # AP 2 dies at round 150
    link_failures=(((0, 1), 50, 120),),       # link 0-1 down for rounds 50..120
    drop_prob=0.10,                           # plus 10% random loss
)

print("=== clean run ===")
clean = run(scenario, covs, hyper, options=options)
clean_report = evaluate(clean.gamma, scenario, iota)
print(f"AER {clean_report.aer:.3f}; "
      f"{clean.ledger.total_messages} messages, 0 dropped")

print("\n=== with failures ===")
faulty = run(scenario, covs, hyper, plan=plan, options=options)
report = evaluate(faulty.gamma, scenario, iota)
led = faulty.ledger
print(f"AER {report.aer:.3f} (degrades by {report.aer - clean_report.aer:+.3f})")
print(f"messages attempted {led.total_messages + led.total_dropped}, "
      f"delivered {led.total_messages}, dropped {led.total_dropped}")

print(f"\nAP 2 stopped at round {faulty.t[2]} (crashed at 150); "
      f"its last estimate stayed usable by neighbors:")
from_2 = faulty.edges.src == 2
for ap, copy in zip(faulty.edges.dst[from_2], faulty.received[from_2]):
    same = np.array_equal(copy, faulty.gamma[2])
    print(f"  AP {ap} holds AP 2's final estimate: {same}"
          + ("" if same else " (AP 2's last message to it was lost; it keeps an earlier one)"))

# The ledger counts the messages delivered over each backhaul edge; summed by
# sender they show what AP 2 got through before its crash.
sent = np.bincount(faulty.edges.src, led.per_edge, minlength=len(faulty.t)).astype(int)
print(f"\nmessages delivered by AP 2 before its crash at round 150: {sent[2]}; "
      f"by AP 0 over all {faulty.rounds_completed} rounds: {sent[0]}")

"""Simulated backhaul: one-hop delivery with failure injection and accounting.

Messages move once per synchronized round, one per directed edge of a
:class:`Backhaul`, as boolean masks over the edges.  A failure plan can
crash APs (permanently, from a given round), take links down over a round
window, or drop individual messages at random.  An AP that misses a
neighbor's message keeps using the last value it received; that rule lives
in the solver, which simply does not update its stale copy.  A solve's
:class:`CommLedger` counts its messages from the masks: attempted and
delivered per round, and delivered per edge.  It owns the neighbor-set rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, check_integers, check_keys, is_integer, is_number


def _listed(value, what: str, size: int | None = None) -> tuple:
    """``value`` as a tuple; InvalidConfig unless it is a list or tuple (of ``size`` elements)."""
    if not isinstance(value, (tuple, list)) or size is not None and len(value) != size:
        elements = "" if size is None else f" of {size} elements"
        raise InvalidConfig(f"{what} must be a list{elements}, got {value!r}")
    return tuple(value)


def _whole(value, what: str) -> int:
    check_integers({what: value})
    return int(value)


@dataclass(frozen=True)
class FailurePlan:
    """Crash and loss schedule for one run.

    ``ap_failures`` holds (ap_id, from_round) pairs: the AP stops computing
    and transmitting at every round >= from_round, but its last estimates
    stay usable by neighbors.  ``link_failures`` holds (edge, from_round,
    to_round) with inclusive bounds; edges are undirected.  ``drop_prob``
    drops each remaining message independently.  However built, a plan
    checks its fields (InvalidConfig) and holds int tuples, each edge as
    (low, high), and a float ``drop_prob``.
    """

    ap_failures: tuple[tuple[int, int], ...] = ()
    link_failures: tuple[tuple[tuple[int, int], int, int], ...] = ()
    drop_prob: float = 0.0

    def __post_init__(self):
        aps = tuple((_whole(a, "ap_failures AP id"), _whole(r, "ap_failures round"))
                    for a, r in (_listed(x, "an ap_failures entry", 2)
                                 for x in _listed(self.ap_failures, "ap_failures")))
        links = tuple((tuple(sorted(_whole(i, "link_failures AP id")
                                    for i in _listed(edge, "a link_failures edge", 2))),
                       _whole(r0, "link_failures round"), _whole(r1, "link_failures round"))
                      for edge, r0, r1 in (_listed(x, "a link_failures entry", 3)
                                           for x in _listed(self.link_failures, "link_failures")))
        if not is_number(self.drop_prob):
            raise InvalidConfig(f"drop_prob must be a number, got {self.drop_prob!r}")
        # drop_prob == 1 is allowed: it degenerates cooperation entirely,
        # which is a useful ablation.
        if not 0.0 <= self.drop_prob <= 1.0:
            raise InvalidConfig(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        object.__setattr__(self, "ap_failures", aps)
        object.__setattr__(self, "link_failures", links)
        object.__setattr__(self, "drop_prob", float(self.drop_prob))

    @classmethod
    def from_dict(cls, d: dict) -> "FailurePlan":
        """The plan a ``to_dict`` document describes; InvalidConfig for a malformed one."""
        check_keys("failure plan", d, cls, partial=True)
        return cls(**d)

    def to_dict(self) -> dict:
        return {
            "ap_failures": [list(x) for x in self.ap_failures],
            "link_failures": [[list(e), r0, r1] for e, r0, r1 in self.link_failures],
            "drop_prob": self.drop_prob,
        }

    def validate(self, neighbors, num_rounds: int) -> None:
        """Check all referenced APs/edges exist and rounds lie in [1, T]."""
        problems = []
        b = len(neighbors)
        for ap, rnd in self.ap_failures:
            if not 0 <= ap < b:
                problems.append(f"ap_failures references unknown AP {ap}")
            if not 1 <= rnd <= num_rounds:
                problems.append(f"ap_failures round {rnd} outside [1, {num_rounds}]")
        for edge, r0, r1 in self.link_failures:
            i, j = edge
            if not (0 <= i < b and 0 <= j < b and j in neighbors[i]):
                problems.append(f"link_failures references unknown edge {edge}")
            if not (1 <= r0 <= r1 <= num_rounds):
                problems.append(f"link_failures window [{r0}, {r1}] outside [1, {num_rounds}]")
        if problems:
            raise InvalidConfig("; ".join(problems))

    def aps_down(self, rnd: int, num_aps: int) -> np.ndarray:
        """(num_aps,) mask of the APs crashed at round ``rnd``."""
        down = np.zeros(num_aps, dtype=bool)
        down[[ap for ap, r in self.ap_failures if rnd >= r]] = True
        return down


EMPTY_PLAN = FailurePlan()


def neighbor_problems(neighbors, b: int) -> list[str]:
    """What is wrong with ``neighbors`` as B lists or tuples of other APs, a symmetric relation.

    Files raise InvalidConfig with these, solves UnknownEdge; types pass before ``set`` runs.
    """
    if not isinstance(neighbors, (list, tuple)):
        return [f"neighbors must be a list of {b} lists, got {type(neighbors).__name__}"]
    if len(neighbors) != b:
        return [f"neighbors has {len(neighbors)} entries, expected {b}"]
    wrong = [f"neighbors of AP {i} must be distinct ids of other APs, got {nbrs!r}"
             for i, nbrs in enumerate(neighbors) if not isinstance(nbrs, (list, tuple))
             or not all(is_integer(j) and 0 <= j < b and j != i for j in nbrs)
             or len(set(nbrs)) < len(nbrs)]
    return wrong or [f"neighbors of AP {i} list AP {j}, whose neighbors do not list AP {i}"
                     for i, nbrs in enumerate(neighbors) for j in nbrs if i not in neighbors[j]]


@dataclass(frozen=True)
class Backhaul:
    """Directed backhaul edges: edge e carries ``src[e]``'s estimate to ``dst[e]``.

    The edges into one AP are contiguous and in that AP's neighbor order;
    ``send_order`` sorts them by (src, dst), the order drops are drawn in.
    """

    num_aps: int
    src: np.ndarray
    dst: np.ndarray
    send_order: np.ndarray

    @classmethod
    def from_neighbors(cls, neighbors) -> "Backhaul":
        """Edges of neighbor sets that :func:`neighbor_problems` finds nothing wrong with."""
        src = np.array([j for nbrs in neighbors for j in nbrs], dtype=np.intp)
        dst = np.repeat(np.arange(len(neighbors)), [len(nbrs) for nbrs in neighbors])
        return cls(len(neighbors), src, dst, np.lexsort((dst, src)))


@dataclass
class CommLedger:
    """Message counts of one solve: attempted and delivered per round, delivered per edge.

    A message is attempted when its sender is live; the attempted ones not
    delivered were dropped.  ``per_edge[e]`` counts the messages delivered
    over edge e of the solve's :class:`Backhaul`, so
    ``np.bincount(edges.src, per_edge, minlength=B)`` is what each AP
    delivered, and ``edges.dst`` in place of ``edges.src`` what each received.
    """

    num_edges: int
    payload_size: int                 # scalars per message
    attempted: list = field(default_factory=list)    # per round
    delivered: list = field(default_factory=list)    # per round
    per_edge: np.ndarray = field(init=False)

    def __post_init__(self):
        self.per_edge = np.zeros(self.num_edges, dtype=np.intp)

    def record(self, sent: np.ndarray, delivered: np.ndarray) -> None:
        """Count one round from its masks over the edges."""
        self.attempted.append(int(np.count_nonzero(sent)))
        self.delivered.append(int(np.count_nonzero(delivered)))
        self.per_edge += delivered

    @property
    def total_messages(self) -> int:
        return sum(self.delivered)

    @property
    def total_dropped(self) -> int:
        return sum(self.attempted) - self.total_messages

    @property
    def total_scalars(self) -> int:
        return self.payload_size * self.total_messages


def deliver_round(
    up: np.ndarray,
    plan: FailurePlan,
    rnd: int,
    rng: np.random.Generator,
    backhaul: Backhaul,
    ledger: CommLedger | None = None,
) -> np.ndarray:
    """Deliver one round of messages, applying the plan's link windows and drops.

    ``up`` masks the APs of ``backhaul`` that are live this round.  The
    caller reads it from the plan's crash schedule (the solver from its
    round plan), so the plan contributes only link windows and drops here.
    Every live AP sends a message over each of its edges; the result masks
    the delivered ones.  A message to a down AP or over a failed link is
    lost, and each other one is dropped with ``drop_prob``, one draw per
    surviving message in (src, dst) order.  The random stream is only
    consumed when drop_prob > 0, so failure-free runs are bit-identical with
    and without a plan.  ``ledger`` records the round's sent and delivered
    masks.
    """
    src, dst = backhaul.src, backhaul.dst
    sent = up[src]
    delivered = sent & up[dst]
    for (i, j), r0, r1 in plan.link_failures:
        if r0 <= rnd <= r1:
            delivered &= ~(((src == i) & (dst == j)) | ((src == j) & (dst == i)))
    if plan.drop_prob > 0.0:
        survivors = backhaul.send_order[delivered[backhaul.send_order]]
        delivered[survivors] = rng.random(len(survivors)) >= plan.drop_prob
    if ledger is not None:
        ledger.record(sent, delivered)
    return delivered

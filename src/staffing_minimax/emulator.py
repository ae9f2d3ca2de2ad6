"""Online emulation of canonical staffing profiles.

The emulator oracle tracks a precomputed canonical hire schedule and shrinks
the day's hires when the running demand upper bound drops: on day t the total
hired is

    (cum canonical through t - cum realized through t-1 - (R0 - Rhat_t))+

split across pools within the per-pool canonical caps, scarcest pool first.
Only the realized sum depends on the sequence played.  The canonical sum,
the caps, their sum and the fill order are read from the block's day tables,
built once per block and kept in one memo keyed by the block's content, so
every emulator of one block (one per sequence in the grid oracle, one per
epoch of a release sequence, one per station) reads the same tables.

The realized prefix is itself a function of R0 and Rhat_1..Rhat_{t-1}, so
every sequence with the same running bounds gets the same hires.  Each
block's tables carry a prefix tree of the days already played: its roots
are keyed by R0, and each node maps the day's Rhat to that day's
hire-only `Decision` (read-only hires, the shared zero release vector)
and the node of the next day.  A step looks its day up before it computes
anything, so emulators of one block play a shared prefix once and hand
out the one `Decision` the tree holds.  The tree stops growing at
DAY_TREE_CAP entries.  A day the tree serves builds and writes nothing:
an emulator's realized block is allocated and filled in at its first
miss or read.

The costly-release algorithm's epochs are played by
`policies.ReleasePolicy`, which builds one emulator per epoch on that
epoch's canonical block and, at the epoch's end, releases by the critical
index that `critical_switch_day` finds.
"""

from __future__ import annotations

import csv
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

# Slack of split_hires' check on the caps and critical_switch_day's match.
EMULATOR_TOL = 1e-9


class SplitInfeasible(RuntimeError):
    """Required day total exceeds the canonical caps.

    Signals a violated precondition; the emulator guarantee says this can
    never fire for a valid canonical profile and a bound-respecting sequence.
    It names the day, the day total, the caps' sum and the tolerance.
    """

    def __init__(self, day: int, total: float, caps_sum: float, tol: float):
        super().__init__(
            f"day {day}: day total {total:.12g} exceeds canonical caps "
            f"{caps_sum:.12g} by more than {tol:g}")
        self.day, self.total, self.caps_sum, self.tol = (day, total,
                                                         caps_sum, tol)


_zero_releases: dict = {}     # shape -> one read-only zero vector


def _no_releases(shape: tuple) -> np.ndarray:
    """The read-only zero release vector every decision of `shape` shares."""
    zeros = _zero_releases.get(shape)
    if zeros is None:
        zeros = _zero_releases[shape] = np.zeros(shape)
        zeros.flags.writeable = False
    return zeros


class Decision(NamedTuple):
    """One day's hires and releases, per pool."""

    hires: np.ndarray
    releases: np.ndarray

    @staticmethod
    def hire_only(hires: np.ndarray) -> "Decision":
        h = np.asarray(hires, float)
        return Decision(h, _no_releases(h.shape))


@dataclass
class EmulatorTrace:
    """Per-day audit record of a policy run (filled by policies.play)."""

    days: List[int] = field(default_factory=list)
    canonical_total: List[float] = field(default_factory=list)
    realized_total: List[float] = field(default_factory=list)
    r_hat: List[float] = field(default_factory=list)
    l_hat: List[float] = field(default_factory=list)
    hires: List[np.ndarray] = field(default_factory=list)
    releases: List[np.ndarray] = field(default_factory=list)

    def record(self, day, canon_cum, real_cum, r_hat, l_hat, hires, releases):
        self.days.append(day)
        self.canonical_total.append(float(canon_cum))
        self.realized_total.append(float(real_cum))
        self.r_hat.append(float(r_hat))
        self.l_hat.append(float(l_hat))
        self.hires.append(np.asarray(hires, float).copy())
        self.releases.append(np.asarray(releases, float).copy())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["day", "pool", "canonical", "hired", "released",
                        "R_hat", "L_hat"])
            for r, day in enumerate(self.days):
                for i in range(len(self.hires[r])):
                    w.writerow([day, i, repr(self.canonical_total[r]),
                                repr(float(self.hires[r][i])),
                                repr(float(self.releases[r][i])),
                                repr(self.r_hat[r]), repr(self.l_hat[r])])


def _fill(total: float, caps: Sequence[float], order: Sequence[int]
          ) -> np.ndarray:
    """Fill a total into pools up to their caps (Python floats) in the given
    order, as float64 hires; pools not in the order get none.  Stops once
    at most 1e-15 is left.  The remainder is a double whatever the total's
    type: a NumPy float32 total would otherwise keep float32 remainders."""
    hires = [0.0] * len(caps)
    remaining = float(total)
    for i in order:
        h = max(0.0, min(remaining, caps[i]))
        hires[i] = h
        remaining -= h
        if remaining <= 1e-15:
            break
    return np.array(hires, dtype=float)


def _scarcest_first(rho: np.ndarray) -> Tuple[int, ...]:
    """Pool indices in ascending rho order, ties by pool index: filled in
    this order, a day's hires spend supply where it decays fastest."""
    return tuple(sorted(range(len(rho)), key=lambda i: (rho[i], i)))


class DayTable(NamedTuple):
    """What one day d of a canonical block needs, whatever the sequence."""

    canon_cum: float            # float(canonical[:, :d].sum())
    caps: Tuple[float, ...]     # canonical[:, d-1] as Python floats
    caps_sum: float             # the caps' NumPy sum
    order: Tuple[int, ...]      # pools scarcest first on day d


def _build_day_tables(canonical: np.ndarray, rho: np.ndarray
                      ) -> Tuple[DayTable, ...]:
    tables = []
    for d in range(1, canonical.shape[1] + 1):
        caps = canonical[:, d - 1].astype(float)
        tables.append(DayTable(float(canonical[:, :d].sum()),
                               tuple(caps.tolist()), float(caps.sum()),
                               _scarcest_first(rho[:, d - 1])))
    return tuple(tables)


# Entries (roots and days) one block's prefix tree keeps; past the cap a
# step computes the days the tree does not hold and stores nothing.  On
# bench_long's two pools (T = 14) one day entry takes about 490 bytes: its
# Decision and hires, its bound and the next day's node (2.0 MB at the
# cap, by tracemalloc).  The grid oracle on fig3c at step 0.25 reaches
# 3,002 distinct prefixes.
DAY_TREE_CAP = 4096


class DayTree:
    """Days already played on one block: roots keyed by R0, and nodes that
    map the day's Rhat to (the day's `Decision`, next day's node).

    Keys are Python or NumPy doubles (`Emulator` plays any other type off
    the tree), compared as floats: equal keys hold equal values, except that
    0.0 and -0.0 share an entry, and the day total's (...)+ turns either
    sign of a zero difference into 0.0, so both get the same hires.
    """

    def __init__(self, tables: Tuple[DayTable, ...]):
        self.tables = tables            # the block's, one per day
        self.n_days = len(tables)
        self.roots: dict = {}
        self.size = 0

    def root(self, r0: float) -> Optional[dict]:
        node = self.roots.get(r0)
        if node is None and self.size < DAY_TREE_CAP:
            node = self.roots[r0] = {}
            self.size += 1
        return node

    def add(self, node: dict, day: int, r_hat: float, decision: Decision
            ) -> Optional[dict]:
        """Store a day played below `node`; its child, or None when the
        tree is full or the day is the block's last."""
        if self.size >= DAY_TREE_CAP:
            return None
        child = {} if day < self.n_days else None
        node[r_hat] = decision, child
        self.size += 1
        return child


# Entries a block memo or a release memo keeps, least recently used first
# out.  One release entry holds an epoch's canonical blocks, on the demo
# files under 1 KB; one block holds its day tables and its DayTree.
RELEASE_MEMO_CAP = 1024


def _memo_entry(memo: OrderedDict, key, cap: int, solve):
    """memo[key], made by solve() on a miss; once the memo holds `cap`
    entries, a miss first drops the least recently used one."""
    entry = memo.get(key)
    if entry is None:
        entry = solve()
        if len(memo) >= cap:
            memo.popitem(last=False)
        memo[key] = entry
    else:
        memo.move_to_end(key)
    return entry


_blocks: OrderedDict = OrderedDict()     # _block_key -> DayTree


def _block_key(canonical: np.ndarray, availability: np.ndarray) -> tuple:
    rho = availability[:, :canonical.shape[1]]
    return (canonical.shape, canonical.strides, canonical.dtype,
            canonical.tobytes(), rho.shape, rho.dtype, rho.tobytes())


def _block(canonical: np.ndarray, availability: np.ndarray) -> DayTree:
    """The block's DayTree, which holds its day tables, one per day.

    The memo's key is the exact content of the canonical block and of the
    availability over its days: shape, dtype and bytes, plus the block's
    strides, since NumPy sums a view in memory order.  It keeps
    RELEASE_MEMO_CAP blocks, least recently used first out, so every
    emulator of a block (one per sequence in the grid oracle, each epoch
    of a release sequence, each station of a multi-station run) reads the
    same tables and the same DayTree, whatever blocks it played between.
    A hit returns what a fresh build would, and the tables are tuples, so
    sharing them between callers changes no result.
    """
    def build():
        return DayTree(_build_day_tables(
            canonical, availability[:, :canonical.shape[1]]))
    return _memo_entry(_blocks, _block_key(canonical, availability),
                       RELEASE_MEMO_CAP, build)


def split_hires(total: float, table: DayTable, day: int) -> np.ndarray:
    """Fill a day total scarcest first within caps that must hold it."""
    if total > table.caps_sum + EMULATOR_TOL:
        raise SplitInfeasible(day, total, table.caps_sum, EMULATOR_TOL)
    return _fill(total, table.caps, table.order)


def emulator_step(table: DayTable, realized: np.ndarray, day: int,
                  r_hat: float, r0: float) -> np.ndarray:
    """One day of the emulator oracle; returns per-pool hires for `day`.

    table is the block's DayTable for `day`; realized is (n, T), and its
    columns at `day` and later are ignored.
    """
    real_cum = float(realized[:, :day - 1].sum())
    total = max(0.0, table.canon_cum - real_cum - (r0 - r_hat))
    return split_hires(total, table, day)


class Emulator:
    """Running state of the emulator oracle on one canonical block.

    Each step lowers the running upper bound R_hat to the given bound and
    plays emulator_step for the next day of the block, unless the block's
    DayTree already holds the day for this R0 and these running bounds.
    Either way it returns the day's hire-only `Decision`: read-only hires
    and the shared zero release vector, possibly the very object other
    emulators of the block got for the day.  A day served from the tree
    is only noted on `path`; `realized`, the (n, T) block of the hires
    played, is allocated at the first miss or read and then filled in
    from the path, so a run the tree serves throughout writes no block.
    Only `step` and that fill write the block.  availability[:, k] is the
    availability on the block's (k+1)-th day; it may run past the block.
    The tables and the tree come from _block's memo.
    """

    def __init__(self, canonical: np.ndarray, availability: np.ndarray,
                 r0: float):
        self.tree = _block(canonical, availability)
        self.tables = self.tree.tables
        self.node = self.tree.root(r0) if isinstance(r0, float) else None
        self.shape = canonical.shape
        self._realized: Optional[np.ndarray] = None
        self.path: List[Tuple[int, np.ndarray]] = []    # (day, hires)
        self.r0 = self.r_hat = r0
        self.day = 0

    @property
    def realized(self) -> np.ndarray:
        """The hires played so far by day, zero on the days after."""
        block = self._realized
        if block is None:
            block = self._realized = np.zeros(self.shape)
        if self.path:
            for day, hires in self.path:
                block[:, day - 1] = hires
            self.path = []
        return block

    def step(self, bound: float) -> Decision:
        self.day += 1
        t = self.day
        r_hat = self.r_hat = min(self.r_hat, bound)
        node = self.node
        if node is not None and not isinstance(r_hat, float):
            node = None         # the tree holds double arithmetic only
        entry = None if node is None else node.get(r_hat)
        if entry is None:
            realized = self.realized
            hires = emulator_step(self.tables[t - 1], realized, t, r_hat,
                                  self.r0)
            hires.flags.writeable = False
            decision = Decision(hires, _no_releases(hires.shape))
            self.node = (None if node is None
                         else self.tree.add(node, t, r_hat, decision))
            realized[:, t - 1] = hires
        else:
            decision, self.node = entry
            self.path.append((t, decision.hires))
        return decision


# --- The critical index of the release rule ----------------------------------

def critical_switch_day(r_observed: Sequence[float], realized_cum:
                        Sequence[float], canonical_cum: Sequence[float],
                        t0: int) -> int:
    """Largest k in [t0, t_end] where the realized run still matches the
    canonical run's right endpoint gap; k = t0 always qualifies."""
    r_bar = r_observed[0]
    best = t0
    for idx in range(1, len(r_observed)):
        lhs = r_observed[idx] - realized_cum[idx]
        rhs = r_bar - canonical_cum[idx]
        if abs(lhs - rhs) <= EMULATOR_TOL:
            best = t0 + idx
    return best

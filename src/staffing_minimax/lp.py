"""Generic linear programs and a self-contained dense simplex solver.

Models here are small (a resolving day's program has about 8-19 rows, none
has more than a few thousand), so a solve costs NumPy calls more than
arithmetic.  The solver is a dense two-phase tableau with Bland's
anti-cycling rule, kept lean in calls: the ratio test runs on Python floats,
a pivot updates the tableau through one scratch product array, and a cost
row is loaded as one product array folded left by np.subtract.reduce (or,
for one basis row, one multiply and one subtract).
Identical models always produce identical solutions, which the test suite
and the canonical-profile machinery rely on.  The kernel is bitwise: every
live tableau entry gets the same IEEE operations in the same order (a pivot
row divided, then x - f * y for every row, f = 0.0 on the pivot row; a cost
row c - cost * row, one basis row at a time in row order), and ratio ties
break in the same order (the artificial columns go once phase 1 ends, as
they would stay zero and unread).

Re-solves take one of two bit-exact reuse paths, both resting on one fact:
in a tableau the entering columns, the drive-outs and the row drop read
only the rows, their orientation, the costs and the pivots already taken;
the right-hand sides only choose each leaving row (Chvatal 1983, Linear
Programming, ch. 10).  _solve picks the path for each solve:
- The pivot-path memo serves a solve whose key holds recorded paths.  A row
  set (the read-only A and sense a model shares with every with_rhs copy;
  a resolving day's programs share one, and refine_lexicographic keeps its
  stacked stage rows with them) carries a memo (_Paths) keyed by which
  right-hand sides are negative, which orients the rows, and by the cost
  vector.  A key's paths are nodes in the memo's flat arrays, recorded
  from its second cold solve on; a solve whose leaving rows follow one
  redoes the right-hand-side column alone, with the kernel's IEEE
  operations in its order (_Trie.walk).  The memo lives as long as its
  rows, and holds at most PATH_BYTES bytes of keys and paths.
- The chain replay serves any other refinement stage with a live chain.
  Each stage is the one before plus one pinned "=" row, so a stage pushes
  its new row and cost row through the previous stage's recorded phase-1
  and drive-out pivots instead of re-solving phase 1, checking at each
  that a cold solve would pivot there too; once a chain has replayed, its
  remaining pins go through in one batch (see refine_lexicographic).
A walk that leaves the recorded paths or whose phase 1 ends infeasible,
and a replay that fails a check, solve cold (_two_phase) and raise or
record as before, so every output byte is the cold solve's.

By the same fact, a solve's inputs other than the right-hand sides are made
once and kept where they live: the dense A and sense once per row set
(LpModel._dense_rows); the objective as one read-only array, shared with
every with_rhs copy and rebuilt when the list differs by value; the
refinement's stacked pin rows and each target's cost vector once per row
set, objective and targets (_Paths.stages).  Only b is made per model:
with_rhs checks it as one array and keeps it, and dense() hands out a
copy of it (refine_lexicographic copies it into its pinned b).  A cache is
rebuilt when its source changes: the row or variable count for A and sense,
the row count for b, the objective list for its array, the objective's and
the targets' values for the stages.

A model is: variables x >= 0, linear rows with relation <=, >= or =, and a
minimization objective.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PIVOT_TOL = 1e-9
COST_TOL = 1e-9
CHECK_TOL = 1e-7
_SENSE = {"<=": 1, ">=": -1, "=": 0}


class LpError(Exception):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


class NumericFailure(LpError):
    pass


@dataclass
class LpModel:
    """Minimization LP: variables are nonnegative, rows are (coeffs, rel, rhs)."""

    name: str = "lp"
    var_names: List[str] = field(default_factory=list)
    objective: List[float] = field(default_factory=list)
    rows: List[Tuple[Dict[int, float], str, float]] = field(default_factory=list)
    # ((n_rows, n_vars), A, sense, paths); see _dense_rows.
    _coefficients: Optional[tuple] = field(default=None, init=False,
                                           repr=False, compare=False)
    # The right-hand sides, read-only; see _rhs_array.
    _rhs: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                       compare=False)
    # (the objective list it was made from, read-only array); see
    # _objective_array.
    _costs: Optional[tuple] = field(default=None, init=False, repr=False,
                                    compare=False)

    def add_var(self, name: str, obj: float = 0.0) -> int:
        if not math.isfinite(obj):
            raise LpError(f"non-finite objective coefficient for {name}")
        self.var_names.append(name)
        self.objective.append(float(obj))
        return len(self.var_names) - 1

    def add_row(self, coeffs: Dict[int, float], rel: str, rhs: float) -> None:
        if rel not in _SENSE:
            raise LpError(f"unknown relation {rel!r}")
        for j, a in coeffs.items():
            if not (0 <= j < len(self.var_names)):
                raise LpError(f"row references unknown variable {j}")
            if not math.isfinite(a):
                raise LpError("non-finite coefficient")
        if not math.isfinite(rhs):
            raise LpError("non-finite rhs")
        self.rows.append(({int(j): float(a) for j, a in coeffs.items()
                           if a != 0.0}, rel, float(rhs)))

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def _dense_rows(self) -> tuple:
        """((n_rows, n_vars), A, sense, paths), built once while those counts
        stay as they are: rows are only ever appended, so equal counts mean
        the same rows.  A and sense are read-only; paths is their pivot-path
        memo (_Paths), which lives as long as they do."""
        size = (self.n_rows, self.n_vars)
        cached = self._coefficients
        if cached is None or cached[0] != size:
            A = np.zeros(size)
            for r, (coeffs, _, _) in enumerate(self.rows):
                for j, a in coeffs.items():
                    A[r, j] = a
            sense = np.array([_SENSE[rel] for _, rel, _ in self.rows],
                             dtype=int)
            A.flags.writeable = sense.flags.writeable = False
            cached = self._coefficients = (size, A, sense, _Paths())
        return cached

    def _rhs_array(self) -> np.ndarray:
        """The rows' right-hand sides as one read-only array: the one
        with_rhs checked, or one built from the rows, kept while the row
        count stays as it is (rows are only ever appended, as for
        _dense_rows)."""
        b = self._rhs
        if b is None or len(b) != len(self.rows):
            b = self._rhs = np.array([rhs for _, _, rhs in self.rows],
                                     dtype=float)
            b.flags.writeable = False
        return b

    def _objective_array(self) -> np.ndarray:
        """The objective as one read-only array, shared with every model
        with_rhs makes and rebuilt when the list is no longer equal, by
        value, to the one it was made from (an edit in place, an added
        variable)."""
        cached = self._costs
        if cached is None or cached[0] != self.objective:
            c = np.array(self.objective, dtype=float)
            c.flags.writeable = False
            cached = self._costs = (list(self.objective), c)
        return cached[1]

    def dense(self):
        """Rows as (A, sense, b) arrays, sense +1 for <=, -1 for >= and 0 for
        =.  A and sense are built once per row set and shared read-only by
        every call (and by every model with_rhs makes), rebuilt when the
        row or variable count changes; b is a fresh copy, on each call, of
        the right-hand sides _rhs_array keeps for this model while its row
        count matches."""
        _, A, sense, _ = self._dense_rows()
        return A, sense, self._rhs_array().copy()

    def with_rhs(self, name: str, rhs: Sequence[float]) -> "LpModel":
        """A new model named `name` with this model's variables and rows but
        the right-hand sides rhs, one per row, checked as one array (each
        finite, as add_row checks) and kept as the new model's b.  Its lists
        are its own, so adding to it or renaming it leaves this model as it
        is; the coefficient dicts, the dense A and sense with their
        pivot-path memo, and the objective array are this model's, shared
        because nothing writes them once made (either model rebuilds its
        objective array once its list differs by value from the one the
        array was made from).  Only b is made per call: a resolving day's
        programs differ in nothing else."""
        if len(rhs) != self.n_rows:
            raise LpError(f"{len(rhs)} right-hand sides for {self.n_rows} "
                          "rows")
        b = np.array(rhs, dtype=float)
        floats = b.tolist()
        if not all(map(math.isfinite, floats)):
            raise LpError("non-finite rhs")
        b.flags.writeable = False
        m = LpModel(name, list(self.var_names), list(self.objective),
                    [(coeffs, rel, r) for (coeffs, rel, _), r
                     in zip(self.rows, floats)])
        self._objective_array()         # brings self._costs up to date
        m._coefficients, m._rhs, m._costs = (self._dense_rows(), b,
                                             self._costs)
        return m

    def dump(self) -> str:
        """Human-readable LP text: objective line, then one line per row."""
        terms = " + ".join(f"{c:g}*{self.var_names[j]}"
                           for j, c in enumerate(self.objective) if c != 0.0)
        out = [f"min {terms or '0'}"]
        for coeffs, rel, rhs in self.rows:
            lhs = " + ".join(f"{a:g}*{self.var_names[j]}"
                             for j, a in sorted(coeffs.items()))
            out.append(f"  {lhs or '0'} {rel} {rhs:g}")
        return "\n".join(out)


@dataclass(frozen=True)
class LpSolution:
    """A certified optimum (see solve_lp)."""

    objective: float
    x: np.ndarray
    reduced_costs: Optional[np.ndarray] = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row]
    basis[row] = col


def _leaving_row(col: list, top: list, order: list) -> int:
    """Bland's ratio test on Python floats: the row i of least ratio
    top[i] / col[i] among those with col[i] > PIVOT_TOL, a tie within 1e-12
    going to the lowest basis index order[i]; -1 where no row qualifies.
    The same IEEE double division and comparisons as on NumPy scalars, in
    row order; the cold solve and the walk both call it, so they agree."""
    leave = -1
    for i in range(len(top)):
        if col[i] > PIVOT_TOL:
            ratio = top[i] / col[i]
            if leave < 0 or ratio < best - 1e-12 or (
                    abs(ratio - best) <= 1e-12 and order[i] < order[leave]):
                best, leave = ratio, i
    return leave


def _run_simplex(T: np.ndarray, basis: np.ndarray, n_cols: int,
                 max_iter: int, pivots: Optional[list] = None,
                 path: Optional[list] = None) -> str:
    """Minimize the objective encoded in the last tableau row, Bland's rule;
    returns "optimal", "unbounded" or "iteration limit exceeded".

    Entering: lowest-index column with reduced cost < -COST_TOL.
    Leaving: _leaving_row, one pass over the rows.  Each pivot is _pivot's
    arithmetic, entry for entry: the pivot row divided in place, then every
    row minus its entry in the entering column (0.0 for the pivot row)
    times the divided row, through one scratch product array.  pivots, when
    given, receives each pivot's entering column and a copy of the divided
    row; path, each pivot's (entering column, leaving row, entering column
    entries before the pivot, cost row last), as _Trie.insert takes them.
    """
    m = T.shape[0] - 1
    cost, rhs = T[-1, :n_cols], T[:m, -1]
    # A 0-d array compares faster than the Python float, with the same bits.
    order, work, tol = basis.tolist(), None, np.array(-COST_TOL)
    for _ in range(max_iter):
        neg = cost < tol
        enter = int(neg.argmax())
        if not neg[enter]:
            return "optimal"
        col = T[:, enter].tolist()
        leave = _leaving_row(col, rhs.tolist(), order)
        if leave < 0:
            return "unbounded"
        if path is not None:
            path.append((enter, leave, col[:]))
        y = T[leave]
        y /= col[leave]
        if pivots is not None:
            pivots.append((enter, y.copy()))
        if work is None:
            work, f = np.empty_like(T), np.empty((m + 1, 1))
        col[leave] = 0.0
        f[:, 0] = col
        np.multiply(f, y, out=work)
        T -= work
        basis[leave] = order[leave] = enter
    return "iteration limit exceeded"


def _load_costs(T: np.ndarray, basis: np.ndarray, c: np.ndarray) -> None:
    """Put the cost row c in the tableau's last row and price out the basic
    columns: c minus cost * row for each basis row with a nonzero cost, one
    row at a time in row order (this order fixes the output bits).
    np.subtract.reduce along axis 0 is that left fold; one row, the common
    phase-2 case, takes one multiply and one subtract, the same roundings."""
    cb = c[basis]
    rows = cb.nonzero()[0]
    if rows.size == 1:
        r = rows[0]
        np.multiply(T[r], cb[r], out=T[-1])
        np.subtract(c, T[-1], out=T[-1])
        return
    P = np.empty((rows.size + 1, c.size))
    P[0] = c
    np.multiply(cb.take(rows)[:, None], T.take(rows, 0), out=P[1:])
    np.subtract.reduce(P, axis=0, out=T[-1])


# The most bytes one row set's memo holds (see _Paths): its keys and its
# tries' arrays.  A key or node that would take it past this is not
# recorded, and the paths it holds keep serving.  Over the eight passes of
# a world_lp run (bench_long, T = 14; seed 1) 2 of its 28 row sets reach
# it, in the 6th and 7th, and all 28 hold 4.2 MB; unbounded, those two
# would hold about 0.87 and 0.99 MB, and walks serve as many of a warm
# pass's solves either way (93-96%).  An instance has at most 2T row sets
# through programs._day_rows (each day's rows and their stacked stage
# rows), so its memos hold at most 2T * PATH_BYTES.
PATH_BYTES = 768 * 1024
_UNSEEN = object()


class _Paths:
    """The pivot-path memo of one row set: the read-only A and sense that
    a model's _dense_rows shares with every with_rhs copy.  tries maps the
    key of a solve, the bytes of b < 0 (which orients the rows, and so
    fixes the tableau's columns and starting basis) and of its cost vector
    c, to None once the key has been solved, and to the _Trie of its
    recorded paths from the second solve on.  held counts the bytes of the
    keys and of the tries' arrays against PATH_BYTES.  stages is
    refine_lexicographic's stacked stage rows for one objective and target
    list, with their own memo and the targets' cost vectors, one per row:
    (objective array, targets, key, A, sense, _Paths, costs)."""

    __slots__ = ("tries", "held", "stages")

    def __init__(self):
        self.tries: dict = {}
        self.held = 0
        self.stages: Optional[tuple] = None

    def take(self, size: int) -> bool:
        """Count size more bytes, or return False where they would take the
        memo past PATH_BYTES."""
        if self.held + size > PATH_BYTES:
            return False
        self.held += size
        return True


class _Trie:
    """The pivot paths recorded for one key of a row set, in two flat
    arrays, with no Python object per node.  A node is an offset k into the
    array('i') nodes, which holds its fields at k to k + 4: its entering
    column (-1 for the start, phase 1's end or an optimum), the offset in
    cols of its entries, its leaving row, the node after it (-1 where none
    is recorded) and a node of the same pivot whose path leaves by another
    row (-1 where none).  The start's and a phase end's record follow from
    k + 5.  Every path runs from the start, node 0, whose record is what
    the key fixes: n_real, the number of artificial rows, the starting
    basis and the artificial rows.  It goes through phase 1's pivots to
    phase 1's end, whose record is the number of drive-outs, each one's row
    and column, the number of rows phase 1 drops and those rows, and
    through phase 2's pivots to its optimum.  cols holds the entries: m + 1
    for a phase-1 pivot (cost row last), m for each drive-out (in turn),
    one per kept row plus the cost row's for a phase-2 pivot, as phase 2
    runs over the kept rows, and an optimum's reduced costs (a walk's basis
    order ends as the final basis)."""

    __slots__ = ("nodes", "cols")

    def __init__(self):
        self.nodes, self.cols = array("i"), array("d")

    def _follow(self, k: int, top: list, z: float, order: list):
        """Walk pivot nodes from node k to the next that ends a phase:
        (that node, or -1 where the path leaves the trie; the right-hand
        sides; the cost row's)."""
        nodes, cols, w = self.nodes, self.cols, len(top) + 1
        while k >= 0 and nodes[k] >= 0:
            at = nodes[k + 1]
            col = cols[at:at + w].tolist()
            # A recorded node has left by some row, and which rows qualify
            # reads col alone, so row is found.
            row = _leaving_row(col, top, order)
            while nodes[k + 2] != row:
                k = nodes[k + 4]
                if k < 0:
                    return k, top, z
            order[row] = nodes[k]
            r = top[row] = top[row] / col[row]
            col[row] = 0.0
            z -= col[-1] * r
            top = [t - f * r for t, f in zip(top, col)]
            k = nodes[k + 3]
        return k, top, z

    def walk(self, A: np.ndarray, sense: np.ndarray, b: np.ndarray,
             c: np.ndarray, name: str) -> Optional[LpSolution]:
        """The solve of right-hand sides b, as _two_phase would return it,
        or None where its path leaves the trie or phase 1 ends infeasible.

        The entering columns, drive-outs and row drop read only the rows,
        the orientation, the cost vector and the pivots taken, all fixed
        along a path; b chooses each leaving row.  So the walk redoes the
        right-hand-side column alone, with the kernel's IEEE operations in
        its order: _leaving_row on the same floats, the pivot row's entry
        divided, then every entry minus its column entry (0.0 on the pivot
        row) times that quotient, and phase 1's cost-row entry as
        _load_costs folds it.  At phase 1's end it drops the right-hand
        sides and basis order of the rows phase 1 drops, which have 0.0 in
        every later column and never pass the ratio test.  Phase 2's
        cost-row entry is never read, and the certificate then runs as in a
        cold solve."""
        nodes, cols, m = self.nodes, self.cols, len(b)
        order = nodes[7:7 + m].tolist()
        # b * flip: -v is v * -1.0 exactly, and -0.0 is not flipped.
        top = [-v if v < 0 else v for v in b.tolist()]
        z = 0.0
        for r in nodes[7 + m:7 + m + nodes[6]]:
            z -= top[r]                 # 1.0 * top[r] is top[r]
        end, top, z = self._follow(nodes[3], top, z, order)
        if end < 0 or -z > 1e-7:
            return None
        at, s = nodes[end + 1], end + 6
        for d in range(nodes[end + 5]):
            row, j = nodes[s + 2 * d], nodes[s + 2 * d + 1]
            col = cols[at + d * m:at + d * m + m].tolist()
            r = top[row] = top[row] / col[row]
            col[row] = 0.0
            top = [t - f * r for t, f in zip(top, col)]
            order[row] = j
        s += 2 * nodes[end + 5]
        for i in reversed(nodes[s + 1:s + 1 + nodes[s]]):
            del top[i], order[i]
        k, top, _ = self._follow(nodes[end + 3], top, z, order)
        if k < 0:
            return None
        at = nodes[k + 1]
        return _certified(top, order, np.frombuffer(cols[at:at + A.shape[1]]),
                          A, sense, b, c, nodes[5], name)

    def _add(self, paths: _Paths, enter: int, leave: int, floats=(),
             record=(), at: int = -1) -> int:
        """A new node with its entries floats (at offset at instead, where
        given) and its record; -1 where paths has no room for it."""
        nodes, cols = self.nodes, self.cols
        if not paths.take(nodes.itemsize * (5 + len(record))
                          + cols.itemsize * len(floats)):
            return -1
        k = len(nodes)
        nodes.extend((enter, len(cols) if at < 0 else at, leave, -1, -1))
        nodes.extend(record)
        cols.extend(floats)
        return k

    def insert(self, path: list, paths: _Paths) -> None:
        """Add one cold solve's path (see _two_phase), node by node while
        each fits in the row set's memo, the start first.  The node after a
        pivot depends on its leaving row; the node after the start or a
        phase end is fixed by the key and the pivots before it."""
        start, one, (drives, dropped), two, reduced = path
        if not self.nodes and self._add(paths, -1, -1, record=start) < 0:
            return
        end = [len(drives)]
        for row, j, _ in drives:
            end += (row, j)
        end += (len(dropped), *dropped)
        floats = [f for *_, col in drives for f in col]
        nodes, k = self.nodes, 0
        for enter, leave, *data in (*one, (-1, -1, floats, end), *two,
                                    (-1, -1, reduced)):
            after = nodes[k + 3]
            if after < 0:
                after = nodes[k + 3] = self._add(paths, enter, leave, *data)
            while after >= 0 and enter >= 0 and nodes[after + 2] != leave:
                k, after = after, nodes[after + 4]
                if after < 0:
                    after = nodes[k + 4] = self._add(paths, enter, leave,
                                                     at=nodes[k + 1])
            if after < 0:
                return
            k = after


@dataclass
class _Batch:
    """Pin rows pushed ahead through a chain's recorded pivots (see _push).
    Row 0 is the stage that pushed them and carries its right-hand side.
    The rows after it are later stages' pins, oriented as if their
    right-hand side were >= 0: their coefficients are final, and their
    entries in each pivot's entering column are kept, so that _replay can
    push their right-hand sides when their stages come."""

    U: np.ndarray       # cost rows before phase 1, as _load_costs leaves them
    F: np.ndarray       # entries in each entering column: pin, cost, pin, ...
    ys: np.ndarray      # the phase-1 pivot rows' right-hand sides
    Q: np.ndarray       # F * ys, after a column left for the starting rhs
    D: np.ndarray       # pin rows after the drive-outs so far, n_real + 1 wide
    H: np.ndarray       # entry at drive-out d's column * its rhs, at d + 1
    stop: Optional[Tuple[int, str]]     # the pivot where row len(D) fails, why
    size: int           # rows covered, len(D) and the row that fails if any
    pos: int = 0        # the next stage's row


@dataclass
class _Chain:
    """What a refinement stage leaves for the next (see refine_lexicographic):
    the record of the chain's cold stage, extended by each replayed stage.
    Phase-1 rows have the cold stage's width; the artificial columns of
    later pins are zero in every row recorded here."""

    cost: Optional[np.ndarray] = None   # phase-1 cost row from _load_costs
    # Pivots as (column, pivot row after the division): phase 1's, and the
    # drive-out's at width n_real + 1.
    pivots: list = field(default_factory=list)
    drives: list = field(default_factory=list)
    T: Optional[np.ndarray] = None      # tableau just before phase 2
    basis: Optional[np.ndarray] = None
    n_total: int = 0                    # the last stage's columns, rhs aside
    pins: Sequence = ()  # coefficient rows of the pins after the next stage's
    batch: Optional[_Batch] = None      # the last push, once a stage replays


class _Diverged(Exception):
    """A replayed stage would not pivot as its cold solve does."""


def _two_phase(A: np.ndarray, sense: np.ndarray, b: np.ndarray,
               c: np.ndarray, name: str, record: Optional[_Chain] = None,
               path: Optional[list] = None) -> LpSolution:
    """Minimize c x, x >= 0, over LpModel.dense() rows (A, sense, b), cold:
    tableau, phase 1, drive-outs, row drop, phase 2 and certificate (see
    solve_lp); name labels errors.  record, when given, receives what the
    next refinement stage replays (see _replay).  path, when given,
    receives what a _Trie stores: the start's record (n_real, the
    number of artificial rows, the starting basis, the artificial rows),
    phase 1's pivots (see _run_simplex), phase 1's end (the drive-outs as
    row, column and the column's m entries before the pivot, and the rows
    dropped), phase 2's pivots over the kept rows and the reduced costs."""
    m, n = A.shape
    if m == 0:
        x = np.zeros(n)
        if np.any(c < -COST_TOL):
            raise LpUnbounded(name)
        return LpSolution(0.0, x, np.maximum(c, 0.0))

    # Orient rows so rhs >= 0.  Rows with sense != 0 get a slack (+1) or
    # surplus (-1) column, rows with sense <= 0 an artificial after them.
    flip = np.where(b < 0, -1.0, 1.0)
    s = sense * flip
    slack_rows, art_rows = s.nonzero()[0], (s <= 0).nonzero()[0]
    n_real = n + slack_rows.size
    n_total = n_real + art_rows.size
    T = np.zeros((m + 1, n_total + 1))
    np.multiply(A, flip[:, None], out=T[:m, :n])
    np.multiply(b, flip, out=T[:m, -1])
    slack, art = np.arange(n, n_real), np.arange(n_real, n_total)
    T[slack_rows, slack] = s[slack_rows]
    T[art_rows, art] = 1.0
    basis = np.empty(m, dtype=int)
    basis[slack_rows], basis[art_rows] = slack, art
    max_iter = 2000 + 200 * (m + n_total)
    drives, dropped, one = [], [], None
    if path is not None:
        path.append([n_real, art_rows.size, *basis.tolist(),
                     *art_rows.tolist()])
        one = []

    if art_rows.size:
        # Phase 1: minimize the sum of artificials.
        c1 = np.zeros(n_total + 1)
        c1[n_real:n_total] = 1.0
        _load_costs(T, basis, c1)
        if record is not None:
            record.cost = T[-1].copy()
        status = _run_simplex(T, basis, n_total, max_iter,
                              None if record is None else record.pivots,
                              one)
        if status != "optimal":
            raise NumericFailure(f"{name}: phase 1 {status} ({m} rows x {n} "
                                 f"columns, limit {max_iter} pivots)")
        if -T[-1, -1] > 1e-7:
            raise LpInfeasible(
                f"{name}: infeasible, {m} rows x {n} columns: phase-1 "
                f"residual {-T[-1, -1]:.6g} > 1e-07")
        # The artificials are zero from here on and never enter, so their
        # columns go.  Those still basic (at zero) are driven out on the
        # first real column that can pivot; a row with none is redundant.
        T = np.concatenate((T[:, :n_real], T[:, -1:]), axis=1)
        for r in (basis >= n_real).nonzero()[0].tolist():
            nz = np.abs(T[r, :n_real]) > PIVOT_TOL
            j = int(nz.argmax())
            if nz[j]:
                if record is not None:
                    record.drives.append((j, T[r] / T[r, j]))
                if path is not None:
                    drives.append((r, j, T[:m, j].tolist()))
                _pivot(T, basis, r, j)
        live = basis < n_real
        if not live.all():
            dropped = (~live).nonzero()[0].tolist()
            T, basis = T[np.append(live, True)], basis[live]
    if record is not None:
        record.T, record.basis = T.copy(), basis.copy()
        record.n_total = n_total
    if path is None:
        return _phase_two(T, basis, A, sense, b, c, n_real, max_iter, name)
    two = []
    out = _phase_two(T, basis, A, sense, b, c, n_real, max_iter, name, two)
    path += (one, (drives, dropped), two, out.reduced_costs.tolist())
    return out


def _phase_two(T: np.ndarray, basis: np.ndarray, A: np.ndarray,
               sense: np.ndarray, b: np.ndarray, c: np.ndarray, n_real: int,
               max_iter: int, name: str,
               path: Optional[list] = None) -> LpSolution:
    """Phase 2 from a feasible tableau with the artificials gone, then the
    optimality certificate against the rows (A, sense, b).  path, when
    given, receives phase 2's pivots (see _run_simplex)."""
    m, n = A.shape
    _load_costs(T, basis, np.concatenate((c, np.zeros(n_real + 1 - n))))
    status = _run_simplex(T, basis, n_real, max_iter, None, path)
    if status == "unbounded":
        raise LpUnbounded(name)
    if status != "optimal":
        raise NumericFailure(f"{name}: phase 2 {status} ({m} rows x {n} "
                             f"columns, limit {max_iter} pivots)")
    return _certified(T[:-1, -1], basis, T[-1, :n].copy(), A, sense, b, c,
                      n_real, name)


def _certified(rhs, basis: np.ndarray, reduced: np.ndarray, A: np.ndarray,
               sense: np.ndarray, b: np.ndarray, c: np.ndarray, n_real: int,
               name: str) -> LpSolution:
    """The solution of an optimal tableau, given its right-hand sides, its
    basis and the reduced costs of the model's columns, once it passes the
    optimality certificate against the rows (A, sense, b)."""
    m, n = A.shape
    x = np.zeros(n_real)
    x[basis] = rhs
    xs = x[:n]
    objective = float(np.dot(c, xs))

    # Optimality certificate: each row's violation (Ax - b signed by its
    # sense, |Ax - b| for =), and nonnegative x and reduced costs.  A NaN
    # violation fails and counts as the worst.  The ufunc reductions are
    # the checks (viol <= CHECK_TOL).all() and reduced.min() < -CHECK_TOL,
    # NaN included, without the method wrappers.
    d = A @ xs - b
    viol = np.where(sense, sense * d, np.abs(d))
    failed = []
    if not np.maximum.reduce(viol) <= CHECK_TOL:
        r = int(np.argmax(np.where(np.isnan(viol), np.inf, viol)))
        failed.append(f"row {r} of {m} ({('=', '<=', '>=')[sense[r]]}) is "
                      f"off by {viol[r]:.6g}")
    if (xs < -CHECK_TOL).any():
        failed.append(f"x[{xs.argmin()}] = {xs.min():.6g}")
    if np.minimum.reduce(reduced) < -CHECK_TOL:
        failed.append(f"reduced cost of x[{reduced.argmin()}] = "
                      f"{reduced.min():.6g}")
    if failed:
        raise NumericFailure(
            f"{name}: solution failed the optimality certificate: "
            f"{'; '.join(failed)} (tolerance {CHECK_TOL:g})")
    xs = np.where(np.abs(xs) < 1e-12, 0.0, xs)
    return LpSolution(objective, xs, reduced)


def _push(chain: _Chain, rows: np.ndarray, rhs: float) -> _Batch:
    """Push pin rows and their phase-1 cost rows through the chain's recorded
    phase-1 and drive-out pivots, all rows at once.  rows[0] is the stage at
    hand, oriented, with right-hand side rhs: it gets every check here and
    raises _Diverged where it fails.  The rows after it are later stages'
    pins; their checks on coefficients run here too, and the batch ends at
    the first that fails one, as its stage will solve cold."""
    r = len(rows)
    P = np.zeros((2 * r, chain.cost.size))     # pin and cost rows, in turn
    P[::2, :rows.shape[1]] = rows
    P[0, -1] = rhs
    # Each stage's cost row is the one before minus 1.0 * its new row.
    np.subtract(chain.cost, P[0], out=P[1])
    if r > 1:
        P[3::2] = P[2::2]
        np.subtract.accumulate(P[1::2], out=P[1::2])
    U, F = P[1::2].copy(), np.zeros((2 * r, len(chain.pivots)))
    new, reduced, stop = P[0], P[1, :-1], None
    # NumPy scalars below: the same IEEE division and comparisons as the
    # Python floats of _run_simplex.
    for k, (enter, y) in enumerate(chain.pivots):
        neg = reduced < -COST_TOL
        if not neg[enter] or neg.argmax() != enter:
            raise _Diverged("entering column")
        f = new[enter]
        if f > PIVOT_TOL and new[-1] / f < y[-1] - 1e-12:
            raise _Diverged("ratio test")
        if len(P) > 2:
            neg = P[3::2, :enter + 1] < -COST_TOL
            if neg[:, :-1].any() or not neg[:, -1].all():
                bad = neg[:, :-1].any(1) | ~neg[:, -1]
                stop, P = (k, "entering column"), P[:2 + 2 * bad.argmax()]
            F[:len(P), k] = P[:, enter]
        P -= P[:, enter, None] * y
    short = (P[1::2, :-1] < -COST_TOL).any(1)
    if short[0]:
        raise _Diverged("phase 1 not optimal")
    if -P[1, -1] > 1e-7:
        raise _Diverged("phase 1 infeasible")
    if short.any():
        stop, P = (len(chain.pivots), "phase 1 not optimal"), \
            P[:2 * short.argmax()]

    ys = np.array([y[-1] for _, y in chain.pivots])
    Q = np.empty((2 * r, len(ys) + 1))
    np.multiply(F, ys, out=Q[:, 1:])
    n_real, nd = chain.T.shape[1] - 1, len(chain.drives)
    D = np.concatenate((P[::2, :n_real], P[::2, -1:]), axis=1)
    H = np.empty((len(D), 1 + nd + len(D)))
    for d, (j, y) in enumerate(chain.drives, start=1):
        H[:, d] = D[:, j] * y[-1]
        D -= D[:, j, None] * y
    return _Batch(U, F, ys, Q, D, H, stop, len(D) + (stop is not None))


def _replay(chain: _Chain, A: np.ndarray, sense: np.ndarray, b: np.ndarray,
            c: np.ndarray, name: str, keep: bool) -> LpSolution:
    """Solve a refinement stage whose rows are the chain's last stage's plus
    one trailing "=" row, as _two_phase would, bit for bit; raises _Diverged
    where _two_phase would pivot otherwise.  With keep, the chain moves on
    to this stage.

    The new row and this stage's phase-1 cost row go through the recorded
    phase-1 pivots; at each the entering column must be the recorded one
    and the new row must lose the ratio test, and at the end phase 1 must be
    optimal and feasible.  The new row then goes through the drive-out
    pivots and is driven out itself.

    The rows come from the chain's batch (see _push): the chain's first
    replay pushes only its own row, a later one all the chain's remaining
    pins, and so does a stage whose row was pushed with the wrong sign.  A
    row pushed ahead gets its right-hand side here: the same products of
    its recorded entries and the pivot rows' right-hand sides, subtracted
    one at a time, in pivot order.
    """
    m, t = A.shape[0], 0
    n_real, n_total = chain.T.shape[1] - 1, chain.n_total + 1
    batch, rhs = chain.batch, float(b[-1])
    if batch is None or batch.pos == batch.size or rhs < 0:
        flip = -1.0 if rhs < 0 else 1.0
        rows = A[-1:] * flip
        if batch is not None and len(chain.pins):
            rows = np.vstack((rows, chain.pins))
        batch = _push(chain, rows, rhs * flip)
    else:                               # pushed ahead, rhs >= 0
        t = batch.pos
        k = len(chain.pivots) if t < len(batch.D) else batch.stop[0]
        f, q = batch.F[2 * t, :k], batch.Q[2 * t, :k + 1]
        q[0] = rhs
        s = np.subtract.accumulate(q)
        up = f > PIVOT_TOL
        if (s[:-1][up] / f[up] < batch.ys[:k][up] - 1e-12).any():
            raise _Diverged("ratio test")
        if t == len(batch.D):
            raise _Diverged(batch.stop[1])
        q = batch.Q[2 * t + 1]
        q[0] = batch.U[t, -1] = chain.cost[-1] - rhs
        if -np.subtract.accumulate(q)[-1] > 1e-7:
            raise _Diverged("phase 1 infeasible")
        h = batch.H[t, :1 + len(chain.drives)]
        h[0] = s[-1]
        batch.D[t, -1] = np.subtract.accumulate(h)[-1]

    row = batch.D[t]
    nz = np.abs(row[:n_real]) > PIVOT_TOL
    j = int(nz.argmax())
    if nz[j]:
        if keep:
            y, rest = row / row[j], batch.D[t + 1:]
            chain.drives.append((j, y))
            batch.H[t + 1:, len(chain.drives)] = rest[:, j] * y[-1]
            rest -= rest[:, j, None] * y
        T = np.vstack((chain.T[:-1], row, chain.T[-1:]))
        basis = np.concatenate((chain.basis, [n_total - 1]))  # artificial
        _pivot(T, basis, basis.size - 1, j)
    else:                               # redundant: the row goes
        T, basis = chain.T.copy(), chain.basis.copy()
    if keep:
        chain.cost, chain.T, chain.basis = batch.U[t], T.copy(), basis.copy()
        chain.n_total, chain.pins, chain.batch = n_total, chain.pins[1:], batch
        batch.pos = t + 1
    return _phase_two(T, basis, A, sense, b, c, n_real,
                      2000 + 200 * (m + n_total), name)  # _two_phase's


def _solve(A: np.ndarray, sense: np.ndarray, b: np.ndarray, c: np.ndarray,
           name: str, paths: _Paths, chain: Optional[_Chain] = None,
           pins: Optional[np.ndarray] = None
           ) -> Tuple[LpSolution, Optional[_Chain]]:
    """Solve min c x over the rows (A, sense, b) of the row set whose memo
    is paths, by the reuse path the module docstring's rule picks, else
    cold.  chain is the live chain of the stage before, if any; pins, given
    when another stage follows, are the rows of the stages after that one.
    Returns the solution and the next stage's chain: a replay moves chain
    on, a cold solve starts one where pins are given, and a walk ends it.
    A cold solve records its path from its key's second solve on."""
    key = ((b < 0).tobytes(), c.tobytes())
    trie = paths.tries.get(key, _UNSEEN)
    if type(trie) is _Trie:
        out = trie.walk(A, sense, b, c, name)
        if out is not None:
            return out, None
    elif chain is not None:
        try:
            return _replay(chain, A, sense, b, c, name,
                           pins is not None), chain
        except _Diverged:
            pass
    chain = None if pins is None else _Chain(pins=pins)
    if trie is _UNSEEN:
        if paths.take(len(key[0]) + len(key[1])):
            paths.tries[key] = None
        return _two_phase(A, sense, b, c, name, chain), chain
    path = []
    out = _two_phase(A, sense, b, c, name, chain, path)
    if path:                            # a model with no rows has none
        if trie is None:
            trie = _Trie()
        trie.insert(path, paths)
        if trie.nodes:                  # its start fitted
            paths.tries[key] = trie
    return out, chain


def solve_lp(model: LpModel) -> LpSolution:
    """Two-phase dense simplex.  Deterministic for byte-identical models.

    Returns a certified optimum or raises: LpInfeasible, LpUnbounded, or
    NumericFailure for a solution that fails the post-solve feasibility or
    reduced-cost certificate, naming the worst row, a negative x or reduced
    cost, and CHECK_TOL.
    """
    A, sense, b = model.dense()
    return _solve(A, sense, b, model._objective_array(), model.name,
                  model._dense_rows()[3])[0]


def refine_lexicographic(model: LpModel, sol: LpSolution,
                         targets: List[Tuple[Dict[int, float], str]]
                         ) -> LpSolution:
    """Select a canonical optimum by lexicographic refinement.

    Pins the objective at its optimal value, then for each (coeffs, sense)
    target in order optimizes that linear function over the remaining optima
    and pins it too.  sense is "max" or "min".  Deterministic given the model
    and target order; used to make "the" canonical staffing profile
    well-defined independent of simplex pivoting accidents.  Stage i solves
    the leading k + i rows of one array: the model's k rows, then the pins.

    The stacked rows and the targets' cost vectors stay with the model's
    row set, keyed by the objective and the targets, with a pivot-path memo
    of their own (see the module docstring); only the pinned right-hand
    sides are made per call.  A targets list is read, never written, so the
    same list object passed again is known without comparing it.  Every
    stage goes through _solve, which takes one reuse path: the memo where
    the stage's key holds recorded paths, else the replay where a chain is
    live.  A stage the memo walks ends the chain.

    Stages chain: a stage differs from the one before only by its new
    trailing pin, so _replay solves it from the previous stage's record.
    The first stage solves cold (solve_lp passes nothing here but sol), and
    so does a stage that fails a replay check or a walk; either starts a
    new chain, recorded only when another stage follows.  The replay is
    _two_phase's arithmetic, not an approximation of it:
    - The new row never pivots in phase 1, so the old rows never see it and
      get the cold solve's operations unchanged: the recorded pivot rows
      stand for them.  The new row and the cost row get the same x - f * y
      that _pivot computes, and the new cost row is the previous one minus
      1.0 * the new row, _load_costs' last subtraction.
    - Artificial columns added after the chain's cold stage are zero in
      every recorded pivot row and in the cost row, so they never enter and
      the replay runs at that stage's width.
    - The ratio test's best is the recorded pivot row's right-hand side,
      the same IEEE division as rhs[leave] / col[leave].  The new row's
      artificial has the highest basis index, so it never wins a tie: it
      wins only with ratio < best - 1e-12.  The replay checks that, and
      the entering column at every pivot, and that phase 1 ends optimal and
      feasible.
    - The drive-out needs no check: the old rows are unchanged and the new
      row comes last, so it is driven out after every recorded drive-out.
    - A stage's max_iter exceeds that of the stage before, so a replayed
      phase 1 stays within the limit of its cold solve.

    The replay batches the pins (_push): the chain's first replay pushes
    its own row alone, as most first replays diverge within a few pivots;
    once one has replayed, the chain pushes all its remaining pins and their
    cost rows at once, one NumPy step per recorded pivot.  The batch is
    exact too:
    - A pivot's x - f * y gives each entry of a row from that row's entries
      alone, so rows pushed together get the operations they would get one
      at a time, and the coefficient columns never read the right-hand side.
      The cost rows before phase 1 follow each other by the same subtraction
      of each new row, run down the batch by np.subtract.accumulate.
    - Each stage's right-hand sides, of its pin and of its cost row, go
      through the same pivots with the same products f * y[-1], subtracted
      one at a time in pivot order (np.subtract.accumulate, never a sum,
      dot or reduce, whose pairwise order would change the bits).  They are
      sequential: each waits for the previous stage's x.
    - The checks run on the same values: the entering column and phase 1
      optimal on the cost rows' coefficients, in the batch; the ratio test
      and phase 1 feasible on the right-hand sides, at the stage; the first
      failing one per row names the divergence.  A row that fails a check
      on coefficients ends the batch, since its stage solves cold.
    - A pin is pushed ahead as if its right-hand side were >= 0.  Where it
      is negative, the row is oriented the other way, and so are its cost
      row and every later one: that stage pushes the remaining pins again.
    """
    k, n, pins = model.n_rows, model.n_vars, len(targets) + 1
    _, A, sense, paths = model._dense_rows()
    objective = model._objective_array()
    # The model's rows, then the "=" pins: objective, then one per target;
    # and each target's cost vector.  They stay with the row set, so the
    # stages of every model sharing it share their rows and pivot-path
    # memos.  The same objective array and targets object are the same
    # stages; any other pair is compared by value: the objective's bytes,
    # the senses and the cost vectors' bytes, which fix the pins too.
    stages = paths.stages
    if stages is None or stages[0] is not objective \
            or stages[1] is not targets:
        costs = np.zeros((len(targets), n))
        for i, (coeffs, goal) in enumerate(targets):
            for j, a in coeffs.items():
                costs[i, j] = -a if goal == "max" else a
        key = (objective.tobytes(), tuple(goal for _, goal in targets),
               costs.tobytes())
        if stages is None or stages[2] != key:
            A = np.vstack((A, np.zeros((pins, n))))
            sense = np.append(sense, np.zeros(pins, int))
            A[k] = np.where(objective != 0.0, objective, 0.0)
            for i, (coeffs, _) in enumerate(targets, start=1):
                for j, a in coeffs.items():
                    if a != 0.0:
                        A[k + i, j] = a
            A.flags.writeable = sense.flags.writeable = False
            costs.flags.writeable = False
            stages = (objective, targets, key, A, sense, _Paths(), costs)
        else:
            stages = (objective, targets, *stages[2:])
        paths.stages = stages
    *_, A, sense, paths, costs = stages
    b = np.zeros(k + pins)
    b[:k] = model._rhs_array()
    b[k] = sol.objective
    out, chain = sol, None
    for i, (coeffs, _) in enumerate(targets, start=1):
        out, chain = _solve(A[:k + i], sense[:k + i], b[:k + i],
                            costs[i - 1], model.name + "+lex", paths, chain,
                            A[k + i + 1:k + len(targets)]
                            if i < len(targets) else None)
        x = out.x.tolist()
        b[k + i] = sum(a * x[j] for j, a in coeffs.items())
    # Re-report the original objective value.
    final_obj = float(np.dot(objective, out.x))
    return LpSolution(final_obj, out.x)

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

Lexicographic refinement solves a chain of stages, each the one before plus
one pinned "=" row.  A stage replays the previous stage's record (phase-1
and drive-out pivot rows, initial phase-1 cost row, tableau before phase 2)
instead of re-solving its phase 1: only the new row and the cost row are
pushed through the recorded pivots, with the dense pivot's own arithmetic.
At each recorded pivot it checks that a cold solve would pivot there too,
and a stage that fails a check solves cold.  So the replay is exact, not a
warm start: every output byte is the cold solve's (see refine_lexicographic).
The pins' coefficients are known before any stage solves, so once a chain
has replayed a stage, its remaining pins go through the recorded pivots in
one batch, and each stage pushes only its right-hand side.

Re-solves of one row set walk recorded pivot paths.  A row set is the
read-only A and sense that a model shares with every with_rhs copy (a
resolving day's programs share one), and it carries a memo (_Paths) keyed
by which right-hand sides are negative, which orients the rows, and by
the cost vector; refine_lexicographic keeps its stacked stage rows with
the model's rows, keyed by the objective and the targets, so the stages
of one day share memos too.  In a tableau the entering columns, the
drive-outs and the row drop read only the rows, the orientation, the
costs and the pivots already taken; the right-hand sides only choose each
leaving row (Chvatal 1983, Linear Programming, ch. 10).  So a solve whose
leaving rows follow a recorded path redoes the right-hand-side column
alone, with the kernel's IEEE operations in its order (_Trie.walk), takes
the final basis and reduced costs from the path's end and runs the
certificate as a cold solve does: every output byte is the cold solve's.
A solve that leaves the recorded paths, or whose phase 1 ends infeasible,
solves cold and raises or records as before.  A key records from its
second solve on, so a model solved once records nothing.  The memo lives
as long as its rows, and holds at most PATH_NODES keys and nodes.

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

    def dense(self):
        """Rows as (A, sense, b) arrays, sense +1 for <=, -1 for >= and 0 for
        =.  A and sense are built once per row set and shared read-only by
        every call (and by every model with_rhs makes); b is built on each
        call."""
        _, A, sense, _ = self._dense_rows()
        return A, sense, np.array([rhs for _, _, rhs in self.rows],
                                  dtype=float)

    def with_rhs(self, name: str, rhs: Sequence[float]) -> "LpModel":
        """A new model named `name` with this model's variables and rows but
        the right-hand sides rhs, one per row, checked as add_row checks
        them.  Its lists are its own, so adding to it or renaming it leaves
        this model as it is; the coefficient dicts, the dense A and sense and
        their pivot-path memo are this model's, shared because nothing
        writes the rows once made."""
        if len(rhs) != self.n_rows:
            raise LpError(f"{len(rhs)} right-hand sides for {self.n_rows} "
                          "rows")
        rows = []
        for (coeffs, rel, _), r in zip(self.rows, rhs):
            if not math.isfinite(r):
                raise LpError("non-finite rhs")
            rows.append((coeffs, rel, float(r)))
        m = LpModel(name, list(self.var_names), list(self.objective), rows)
        m._coefficients = self._dense_rows()
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


def _run_simplex(T: np.ndarray, basis: np.ndarray, n_cols: int,
                 max_iter: int, pivots: Optional[list] = None,
                 path: Optional[list] = None) -> str:
    """Minimize the objective encoded in the last tableau row, Bland's rule;
    returns "optimal", "unbounded" or "iteration limit exceeded".

    Entering: lowest-index column with reduced cost < -COST_TOL.
    Leaving: minimum ratio; ties broken by the lowest basis variable index.
    The ratio test runs on Python floats, in one pass over the rows: the
    same IEEE double division and comparisons as on NumPy scalars, in the
    same row order.  Each pivot is _pivot's arithmetic, entry for entry: the
    pivot row divided in place, then every row minus its entry in the
    entering column (0.0 for the pivot row) times the divided row, through
    one scratch product array.  pivots, when given, receives each pivot's
    entering column and a copy of the divided row; path, each pivot's
    entering column, leaving row and entering column entries (cost row
    last) before the pivot, as a _Trie records them.
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
        col, top, leave = T[:, enter].tolist(), rhs.tolist(), -1
        for i in range(m):
            if col[i] > PIVOT_TOL:
                ratio = top[i] / col[i]
                if leave < 0 or ratio < best - 1e-12 or (
                        abs(ratio - best) <= 1e-12
                        and order[i] < order[leave]):
                    best, leave = ratio, i
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


# The most keys, pivot nodes and phase ends one row set's memo holds (see
# _Paths); once full it records nothing more, and the paths it holds keep
# serving.  A pivot node takes (m + 1) * 8 + 12 bytes for m rows, so this
# bounds a 20-row set near 100 KB.  The 28 row sets of a world_lp run (14
# days, base and stage rows) hold about 10,500 at this bound after eight
# passes, and walks serve about 77% of a warm pass's solves; unbounded,
# they would hold 27,000 (about 5 MB more peak memory) and serve 94%.
PATH_NODES = 512
_UNSEEN = object()


class _Paths:
    """The pivot-path memo of one row set: the read-only A and sense that
    a model's _dense_rows shares with every with_rhs copy.  tries maps the
    key of a solve, the bytes of b < 0 (which orients the rows, and so
    fixes the tableau's columns and starting basis) and of its cost vector
    c, to None once the key has been solved, and to the _Trie of its
    recorded paths from the second solve on.  nodes counts the keys and
    trie nodes held against PATH_NODES.  stages is refine_lexicographic's
    stacked stage rows for one objective and target list, with their own
    memo: (key, A, sense, _Paths)."""

    __slots__ = ("tries", "nodes", "stages")

    def __init__(self):
        self.tries: dict = {}
        self.nodes = 0
        self.stages: Optional[tuple] = None


class _Trie:
    """The pivot paths recorded for one key of a row set of m rows and n
    columns, in flat arrays: (m + 1) * 8 + 12 bytes a pivot node.

    A path is linked: a link is a pivot node (>= 0), a phase end (<= -2)
    or missing (-1).  Pivot node k has entering column enter[k] and that
    column's entries before the pivot, cost row last, in
    cols[k * (m + 1):(k + 1) * (m + 1)]; its first recorded leaving row is
    leave[k], followed by child[k], and any other leaving row i by
    more[k * m + i].  root links the start.  Phase 1's end -2 - e links
    phase 2's first node at ends[3 * e] and runs ends[3 * e + 2] drive-outs
    from d = ends[3 * e + 1] on: drive-out d pivots on row drives[2 * d]
    and column drives[2 * d + 1], whose entries, the pivot's included, are
    drive_cols[d * m:(d + 1) * m]; live[e] lists the rows it keeps, where
    it drops any.  Phase 2's end -2 - e keeps the final basis in
    basis_at[e * m:] (its first m or live-row count entries) and the
    reduced costs in reduced_at[e * n:].
    basis, art and n_real are what the key fixes: the starting basis, the
    artificial rows (none: root is phase 1's end) and the columns kept
    after phase 1.  A row dropped after phase 1 keeps its index, with
    entry 0.0 in every later column, so it never takes part."""

    __slots__ = ("m", "n", "basis", "art", "n_real", "root", "enter",
                 "cols", "leave", "child", "more", "ends", "drives",
                 "drive_cols", "live", "basis_at", "reduced_at")

    def __init__(self, m: int, n: int, basis: list, art: list, n_real: int):
        self.m, self.n, self.basis, self.art = m, n, basis, art
        self.n_real, self.root = n_real, -1
        self.enter, self.cols = array("i"), array("d")
        self.leave, self.child, self.more = array("i"), array("i"), {}
        self.ends, self.drives, self.drive_cols = (array("i"), array("i"),
                                                   array("d"))
        self.live, self.basis_at, self.reduced_at = {}, array("i"), array("d")

    def _follow(self, link: int, top: list, z: float, order: list):
        """Walk pivot nodes from link to the next phase end: (the end's
        link, or -1 where the path leaves the trie; the right-hand sides;
        the cost row's)."""
        m, w = self.m, self.m + 1
        enter, cols, leaves, child = (self.enter, self.cols, self.leave,
                                      self.child)
        while link >= 0:
            col = cols[link * w:link * w + w].tolist()
            # A recorded node has left by some row, and which rows qualify
            # reads col alone, so leave is found.
            leave = -1
            for i in range(m):
                if col[i] > PIVOT_TOL:
                    ratio = top[i] / col[i]
                    if leave < 0 or ratio < best - 1e-12 or (
                            abs(ratio - best) <= 1e-12
                            and order[i] < order[leave]):
                        best, leave = ratio, i
            order[leave] = enter[link]
            link = (child[link] if leaves[link] == leave
                    else self.more.get(link * m + leave, -1))
            r = top[leave] = top[leave] / col[leave]
            col[leave] = 0.0
            z -= col[m] * r
            top = [t - f * r for t, f in zip(top, col)]
        return link, top, z

    def walk(self, A: np.ndarray, sense: np.ndarray, b: np.ndarray,
             c: np.ndarray, name: str) -> Optional[LpSolution]:
        """The solve of right-hand sides b, as _two_phase would return it,
        or None where its path leaves the trie or phase 1 ends infeasible.

        The entering columns, drive-outs and row drop read only the rows,
        the orientation, the cost vector and the pivots taken, all fixed
        along a path; b chooses each leaving row.  So the walk redoes the
        right-hand-side column alone, with the kernel's IEEE operations in
        its order: the ratio test of _run_simplex on the same floats, the
        pivot row's entry divided, then every entry minus its column entry
        (0.0 on the pivot row) times that quotient, and phase 1's cost-row
        entry as _load_costs folds it.  Phase 2's cost-row entry is never
        read, and the certificate then runs as in a cold solve."""
        m = self.m
        # b * flip: -v is v * -1.0 exactly, and -0.0 is not flipped.
        top = [-v if v < 0 else v for v in b.tolist()]
        z = 0.0
        for r in self.art:
            z -= top[r]                 # 1.0 * top[r] is top[r]
        order = list(self.basis)
        link, top, z = self._follow(self.root, top, z, order)
        if link == -1 or -z > 1e-7:
            return None
        e = -2 - link
        link, d, count = self.ends[3 * e:3 * e + 3]
        for d in range(d, d + count):
            row, j = self.drives[2 * d:2 * d + 2]
            col = self.drive_cols[d * m:d * m + m].tolist()
            r = top[row] = top[row] / col[row]
            col[row] = 0.0
            top = [t - f * r for t, f in zip(top, col)]
            order[row] = j
        live = self.live.get(e)
        link, top, _ = self._follow(link, top, z, order)
        if link == -1:
            return None
        e = -2 - link
        if live is not None:
            top = [top[i] for i in live]
        basis = np.frombuffer(self.basis_at[e * m:e * m + len(top)],
                              dtype=np.int32)
        reduced = np.frombuffer(self.reduced_at[e * self.n:
                                                (e + 1) * self.n])
        return _certified(top, basis, reduced, A, sense, b, c, self.n_real,
                          name)

    def _get(self, at: Optional[int], leave: Optional[int]) -> int:
        if at is None:
            return self.root
        if at < 0:                      # phase 1's end
            return self.ends[3 * (-2 - at)]
        if self.leave[at] == leave:
            return self.child[at]
        return self.more.get(at * self.m + leave, -1)

    def _set(self, at: Optional[int], leave: Optional[int], link: int):
        if at is None:
            self.root = link
        elif at < 0:
            self.ends[3 * (-2 - at)] = link
        elif self.leave[at] < 0:
            self.leave[at], self.child[at] = leave, link
        else:
            self.more[at * self.m + leave] = link

    def _add(self, step) -> int:
        enter, leave, data = step
        if enter is not None:
            self.enter.append(enter)
            self.cols.extend(data)
            self.leave.append(-1)
            self.child.append(-1)
            return len(self.enter) - 1
        if leave is not None:           # phase 1's end
            e, (drives, drive_cols, live) = len(self.ends) // 3, data
            self.ends.extend((-1, len(self.drives) // 2, len(drives) // 2))
            self.drives.extend(drives)
            self.drive_cols.extend(drive_cols)
            if live is not None:
                self.live[e] = live
            return -2 - e
        basis, reduced = data
        self.basis_at.extend(basis.tolist() + [0] * (self.m - basis.size))
        self.reduced_at.extend(reduced.tolist())
        return -1 - len(self.basis_at) // self.m

    def insert(self, steps: list, paths: _Paths) -> None:
        """Add one solve's path, node by node while the row set holds fewer
        than PATH_NODES.  steps are (entering column, leaving row, column
        entries) for a pivot, (None, 0, phase-1 end data) and (None, None,
        (final basis, reduced costs))."""
        at = leave = None
        for step in steps:
            link = self._get(at, leave)
            if link == -1:
                if paths.nodes >= PATH_NODES:
                    return
                paths.nodes += 1
                link = self._add(step)
                self._set(at, leave, link)
            at, leave = link, step[1]


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
               paths: Optional[_Paths] = None) -> LpSolution:
    """Minimize c x, x >= 0, over LpModel.dense() rows (A, sense, b); name
    labels errors.  Tableau, phase 1, phase 2, certificate (see solve_lp).
    record, when given, receives what the next refinement stage replays.
    paths, when given, is the memo of the row set (A, sense): a solve its
    recorded paths hold is walked there and records nothing in record; any
    other solves cold and, from its key's second solve on, records its path
    (see the module docstring)."""
    m, n = A.shape
    if m == 0:
        x = np.zeros(n)
        if np.any(c < -COST_TOL):
            raise LpUnbounded(name)
        return LpSolution(0.0, x, np.maximum(c, 0.0))

    steps = None
    if paths is not None:
        key = ((b < 0).tobytes(), c.tobytes())
        trie = paths.tries.get(key, _UNSEEN)
        if trie is _UNSEEN:
            if paths.nodes < PATH_NODES:
                paths.tries[key] = None
                paths.nodes += 1
        else:
            if trie is not None:
                out = trie.walk(A, sense, b, c, name)
                if out is not None:
                    return out
            steps = []

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
    start, drives, drive_cols, live_rows = basis.tolist(), [], [], None

    if art_rows.size:
        # Phase 1: minimize the sum of artificials.
        c1 = np.zeros(n_total + 1)
        c1[n_real:n_total] = 1.0
        _load_costs(T, basis, c1)
        if record is not None:
            record.cost = T[-1].copy()
        status = _run_simplex(T, basis, n_total, max_iter,
                              None if record is None else record.pivots,
                              steps)
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
                if steps is not None:
                    drives += (r, j)
                    drive_cols += T[:m, j].tolist()
                _pivot(T, basis, r, j)
        live = basis < n_real
        if not live.all():
            live_rows = live.nonzero()[0].tolist()
            T, basis = T[np.append(live, True)], basis[live]
    if record is not None:
        record.T, record.basis = T.copy(), basis.copy()
        record.n_total = n_total
    if steps is None:
        return _phase_two(T, basis, A, sense, b, c, n_real, max_iter, name)

    path = []
    out = _phase_two(T, basis, A, sense, b, c, n_real, max_iter, name, path)
    steps.append((None, 0, (drives, drive_cols, live_rows)))
    if live_rows is not None:           # back to the rows' own indices
        for enter, leave, col in path:
            full = [0.0] * (m + 1)
            for i, r in enumerate(live_rows):
                full[r] = col[i]
            full[m] = col[-1]
            steps.append((enter, live_rows[leave], full))
    else:
        steps += path
    steps.append((None, None, (basis, out.reduced_costs)))
    trie = paths.tries[key]
    if trie is None:
        trie = paths.tries[key] = _Trie(m, n, start, art_rows.tolist(),
                                        n_real)
    trie.insert(steps, paths)
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


def solve_lp(model: LpModel) -> LpSolution:
    """Two-phase dense simplex.  Deterministic for byte-identical models.

    Returns a certified optimum or raises: LpInfeasible, LpUnbounded, or
    NumericFailure for a solution that fails the post-solve feasibility or
    reduced-cost certificate, naming the worst row, a negative x or reduced
    cost, and CHECK_TOL.
    """
    A, sense, b = model.dense()
    return _two_phase(A, sense, b, np.asarray(model.objective, dtype=float),
                      model.name, None, model._dense_rows()[3])


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

    The stacked rows stay with the model's row set, keyed by the objective
    and the targets, with a pivot-path memo of their own (see the module
    docstring).  A stage that does not replay goes to _two_phase, whose
    memo may serve it; a stage the memo serves starts no chain.

    Stages chain: a stage differs from the one before only by its new
    trailing pin, so _replay solves it from the previous stage's record.
    The first stage solves cold (solve_lp passes nothing here but sol), and
    so does a stage that fails a replay check; either starts a new chain,
    recorded only when another stage follows.  The replay is _two_phase's
    arithmetic, not an approximation of it:
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
    A, sense, b = model.dense()
    paths = model._dense_rows()[3]
    # The model's rows, then the "=" pins: objective, then one per target.
    # They stay with the row set, so the stages of every model sharing it
    # share their rows and pivot-path memos.
    key = (tuple(model.objective),
           tuple(tuple(coeffs.items()) for coeffs, _ in targets))
    if paths.stages is None or paths.stages[0] != key:
        A = np.vstack((A, np.zeros((pins, n))))
        sense = np.append(sense, np.zeros(pins, int))
        A[k] = np.where(np.asarray(model.objective) != 0.0, model.objective,
                        0.0)
        for i, (coeffs, _) in enumerate(targets, start=1):
            for j, a in coeffs.items():
                if a != 0.0:
                    A[k + i, j] = a
        A.flags.writeable = sense.flags.writeable = False
        paths.stages = (key, A, sense, _Paths())
    _, A, sense, paths = paths.stages
    b = np.append(b, np.zeros(pins))
    b[k] = sol.objective
    out, chain = sol, None
    for i, (coeffs, goal) in enumerate(targets, start=1):
        c = np.zeros(n)
        for j, a in coeffs.items():
            c[j] = -a if goal == "max" else a
        stage = (A[:k + i], sense[:k + i], b[:k + i], c, model.name + "+lex")
        more, out = i < len(targets), None
        if chain is not None:
            try:
                out = _replay(chain, *stage, keep=more)
            except _Diverged:
                pass
        if out is None:
            chain = (_Chain(pins=A[k + i + 1:k + len(targets)]) if more
                     else None)
            out = _two_phase(*stage, chain, paths)
            if chain is not None and chain.T is None:
                chain = None            # the memo served it: nothing to replay
        b[k + i] = sum(a * out.x[j] for j, a in coeffs.items())
    # Re-report the original objective value.
    final_obj = float(np.dot(model.objective, out.x))
    return LpSolution(final_obj, out.x)

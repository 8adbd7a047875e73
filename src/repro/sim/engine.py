"""Discrete-event engine: execute rank programs, resolving barriers.

The engine advances each rank through its phases on a shared virtual clock.
Phases have fixed durations (precomputed by the performance models), so the
only interaction between ranks is the barrier: a rank reaching a
:data:`~repro.sim.workload.PhaseKind.BARRIER` phase blocks until every rank
has reached the barrier with the same ordinal, then all proceed from the
latest arrival time.  Early arrivers get an explicit
:data:`~repro.sim.workload.PhaseKind.WAIT` interval (cores blocked in MPI
still burn their awake-floor power — see :mod:`repro.power.components`).

The output is, per rank, a gap-free timeline from t=0 to that rank's
completion.  Ranks may finish at different times; the run ends at the
latest completion.

Engine implementations
----------------------

Two implementations coexist, selected by ``SimulationEngine(engine=...)``:

* ``engine="vectorized"`` (default) — a struct-of-arrays sweep.  Because
  every rank holds the same number of barriers (validated up front) and a
  barrier releases *all* ranks at the latest arrival, the schedule is
  computable segment-by-segment without an event heap: one flat pass
  extracts per-phase durations and segment ids, one cumulative sum yields
  every phase's offset inside its segment, one ``max`` per barrier column
  resolves the release times, and the barrier-wait intervals fall out of
  the arrival/release deltas in a single comparison.  The result is a
  columnar :class:`IntervalArrays` that feeds the executor's sweep-line
  power integrator directly — no per-interval Python objects on the fast
  path.
* ``engine="reference"`` — the original event-heap loop, kept as the
  independently simple oracle.  Property tests
  (``tests/test_engine_equivalence.py``) pin the two engines to
  interval-exact agreement.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .. import telemetry as tele
from ..exceptions import SimulationError
from .workload import Phase, PhaseKind, RankProgram, WAIT_INTENSITY

__all__ = ["RankInterval", "IntervalArrays", "SimulationEngine"]

#: Numerical slack when validating interval continuity.
_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class RankInterval:
    """One contiguous span of one rank's execution.

    ``slots=True`` because a 1k-rank run materializes hundreds of
    thousands of these; dropping the per-instance ``__dict__`` cuts both
    memory and attribute-access time in the integration hot loops.
    """

    rank: int
    t_start: float
    t_end: float
    phase: Phase

    @property
    def duration(self) -> float:
        """Seconds spanned."""
        return self.t_end - self.t_start


# Interned once: every barrier-wait interval across every rank shares this
# single Phase object instead of allocating one per wait.
_WAIT_PHASE = Phase(
    kind=PhaseKind.WAIT,
    duration_s=0.0,  # actual duration carried by the interval bounds
    cpu_intensity=WAIT_INTENSITY,
    label="barrier-wait",
)


@dataclass
class IntervalArrays:
    """A run's intervals in columnar (struct-of-arrays) form.

    The vectorized engine emits this directly and the executor's
    sweep-line power integrator consumes it directly, so a 100k-rank run
    never materializes per-interval Python objects on the fast path.
    Phases are deduplicated by object identity into ``phases``;
    ``phase_row[i]`` is interval ``i``'s row in that table.

    Invariants (enforced by :meth:`validate`): intervals are sorted by
    ``(rank, t_start)`` and every rank's intervals tile ``[0, finish]``
    gap-free.
    """

    num_ranks: int
    rank: np.ndarray  #: (n,) intp — owning rank of each interval
    t_start: np.ndarray  #: (n,) float64
    t_end: np.ndarray  #: (n,) float64
    phase_row: np.ndarray  #: (n,) intp — row into :attr:`phases`
    phases: List[Phase]  #: unique Phase objects, deduplicated by identity
    makespan: float  #: completion time of the slowest rank

    def __len__(self) -> int:
        return self.rank.size

    @property
    def intensity(self) -> np.ndarray:
        """Per-interval CPU intensity, gathered through the phase table."""
        if not self.phases:
            return np.zeros(0)
        per_row = np.fromiter(
            (p.cpu_intensity for p in self.phases), float, len(self.phases)
        )
        return per_row[self.phase_row]

    def demand_table(self) -> np.ndarray:
        """``(len(phases), 6)`` demand vectors (see ``Phase.demand_vector``)."""
        if not self.phases:
            return np.zeros((0, 6))
        return np.asarray([p.demand_vector() for p in self.phases]).reshape(
            len(self.phases), 6
        )

    def counts_per_rank(self) -> np.ndarray:
        """Interval count per rank id."""
        return np.bincount(self.rank, minlength=self.num_ranks)

    # -- compatibility with the object form ----------------------------
    def to_interval_lists(self) -> List[List[RankInterval]]:
        """Materialize the per-rank ``RankInterval`` lists (the view every
        pre-columnar consumer expects)."""
        out: List[List[RankInterval]] = [[] for _ in range(self.num_ranks)]
        phases = self.phases
        for r, t0, t1, row in zip(
            self.rank.tolist(),
            self.t_start.tolist(),
            self.t_end.tolist(),
            self.phase_row.tolist(),
        ):
            out[r].append(RankInterval(rank=r, t_start=t0, t_end=t1, phase=phases[row]))
        return out

    @classmethod
    def from_interval_lists(
        cls,
        intervals: Sequence[Sequence[RankInterval]],
        *,
        makespan: Optional[float] = None,
    ) -> "IntervalArrays":
        """Flatten per-rank interval lists into columnar form."""
        flat = [iv for per_rank in intervals for iv in per_rank]
        n = len(flat)
        rank = np.fromiter((iv.rank for iv in flat), np.intp, n)
        t_start = np.fromiter((iv.t_start for iv in flat), float, n)
        t_end = np.fromiter((iv.t_end for iv in flat), float, n)
        phase_row = np.empty(n, dtype=np.intp)
        phases: List[Phase] = []
        row_of: Dict[int, int] = {}
        for k, iv in enumerate(flat):
            row = row_of.get(id(iv.phase))
            if row is None:
                row = len(phases)
                row_of[id(iv.phase)] = row
                phases.append(iv.phase)
            phase_row[k] = row
        if makespan is None:
            makespan = max(
                (per_rank[-1].t_end if per_rank else 0.0) for per_rank in intervals
            )
        return cls(
            num_ranks=len(intervals),
            rank=rank,
            t_start=t_start,
            t_end=t_end,
            phase_row=phase_row,
            phases=phases,
            makespan=makespan,
        )

    def validate(self) -> None:
        """Continuity validation on the columnar path.

        Mirrors the reference engine's per-rank scan: within each rank,
        every interval must start where the previous one ended (no gaps,
        no overlaps, first interval at t=0), to within ``_EPS``.
        """
        n = self.rank.size
        if n == 0:
            return
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(self.rank[1:], self.rank[:-1], out=first[1:])
        prev_end = np.empty(n)
        prev_end[first] = 0.0
        prev_end[1:][~first[1:]] = self.t_end[:-1][~first[1:]]
        overlap = self.t_start < prev_end - _EPS
        if overlap.any():
            k = int(np.argmax(overlap))
            raise SimulationError(
                f"overlapping intervals for rank {int(self.rank[k])} "
                f"at t={float(self.t_start[k])}"
            )
        gap = self.t_start > prev_end + _EPS
        if gap.any():
            k = int(np.argmax(gap))
            raise SimulationError(
                f"gap in rank {int(self.rank[k])}'s timeline at "
                f"t={float(prev_end[k])}..{float(self.t_start[k])}"
            )


class SimulationEngine:
    """Executes a set of rank programs (see module docstring).

    Parameters
    ----------
    programs:
        One :class:`~repro.sim.workload.RankProgram` per rank, with dense
        rank ids ``0..n-1`` and identical barrier counts.
    engine:
        ``"vectorized"`` (default) for the struct-of-arrays sweep or
        ``"reference"`` for the original event-heap oracle.  Both produce
        the same intervals; the property suite pins them to each other.
    """

    #: Valid engine implementations.
    ENGINE_MODES = ("vectorized", "reference")

    def __init__(self, programs: Sequence[RankProgram], *, engine: str = "vectorized"):
        if not programs:
            raise SimulationError("need at least one rank program")
        ranks = sorted(p.rank for p in programs)
        if ranks != list(range(len(programs))):
            raise SimulationError(f"rank ids must be 0..{len(programs) - 1}, got {ranks}")
        # Ranks built from one template share its tuple: count each
        # distinct sequence's barriers once.
        distinct = {id(p.phases): p for p in programs}
        barrier_counts = {p.barrier_count for p in distinct.values()}
        if len(barrier_counts) != 1:
            raise SimulationError(
                f"all ranks must have the same number of barriers, got {sorted(barrier_counts)}"
            )
        if engine not in self.ENGINE_MODES:
            raise SimulationError(
                f"engine must be one of {self.ENGINE_MODES}, got {engine!r}"
            )
        self.engine = engine
        self._programs: Dict[int, RankProgram] = {p.rank: p for p in programs}
        self._num_ranks = len(programs)
        self._num_barriers = barrier_counts.pop()

    # ------------------------------------------------------------------
    def run(self) -> List[List[RankInterval]]:
        """Execute and return per-rank interval lists (index = rank id).

        Compatibility entry point: the vectorized engine computes the
        columnar form and materializes the view.  Fast-path consumers
        (the executor) use :meth:`run_arrays` instead.
        """
        with tele.span(
            "sim.engine.run", ranks=self._num_ranks, engine=self.engine
        ) as trace:
            if self.engine == "reference":
                intervals = self._run_reference()
                self._validate_continuity(intervals)
                trace.set(intervals=sum(len(per_rank) for per_rank in intervals))
                return intervals
            arrays = self._run_vectorized()
            trace.set(intervals=len(arrays))
            return arrays.to_interval_lists()

    def run_arrays(self) -> IntervalArrays:
        """Execute and return the columnar :class:`IntervalArrays`.

        The fast path: with ``engine="vectorized"`` no per-interval
        Python objects are created.  With ``engine="reference"`` the heap
        engine runs and its interval lists are flattened.
        """
        with tele.span(
            "sim.engine.run", ranks=self._num_ranks, engine=self.engine
        ) as trace:
            if self.engine == "reference":
                intervals = self._run_reference()
                self._validate_continuity(intervals)
                arrays = IntervalArrays.from_interval_lists(intervals)
            else:
                arrays = self._run_vectorized()
            trace.set(intervals=len(arrays))
        return arrays

    def makespan(
        self, intervals: Union[IntervalArrays, List[List[RankInterval]]]
    ) -> float:
        """Completion time of the slowest rank."""
        if isinstance(intervals, IntervalArrays):
            return intervals.makespan
        return max((per_rank[-1].t_end if per_rank else 0.0) for per_rank in intervals)

    # -- vectorized sweep ----------------------------------------------
    def _run_vectorized(self) -> IntervalArrays:
        """Struct-of-arrays sweep over barrier-separated segments.

        Barriers split every program into ``B+1`` segments.  Within a
        segment ranks run independently; at barrier ``s`` all ranks
        synchronize and restart from the latest arrival.  So the whole
        schedule is: per-(rank, segment) phase offsets (one cumulative
        sum), per-segment release times (one column max per barrier), and
        wait intervals wherever a rank's arrival trails the release.
        """
        num_ranks = self._num_ranks
        num_barriers = self._num_barriers

        # 1. One flat pass over the *distinct* phase sequences.  Ranks
        # built from one template share its tuple, so one ``np.unique``
        # over sequence ids finds the distinct sequences, only those are
        # flattened, a second ``np.unique`` deduplicates their phases by
        # identity (attributes are read once per unique phase), and one
        # offset gather expands the phase rows back to per-rank rows:
        # O(distinct phases + ranks) Python work.  (``per_rank`` and
        # ``flat`` keep every object alive, so ids stay unique.)
        per_rank = [self._programs[r].phases for r in range(num_ranks)]
        seq_ids = np.fromiter(map(id, per_rank), np.int64, num_ranks)
        _, seq_first, seq_of_rank = np.unique(seq_ids, return_index=True, return_inverse=True)
        sequences = [per_rank[i] for i in seq_first]
        seq_len = np.fromiter(map(len, sequences), np.intp, len(sequences))
        flat = [phase for phases in sequences for phase in phases]
        ids = np.fromiter(map(id, flat), np.int64, len(flat))
        _, first_idx, flat_row = np.unique(ids, return_index=True, return_inverse=True)
        table: List[Phase] = [flat[i] for i in first_idx]
        # Rank r's k-th row is flat row (start of r's sequence) + k.
        counts = seq_len[seq_of_rank]
        rank_all = np.repeat(np.arange(num_ranks, dtype=np.intp), counts)
        seq_start = np.cumsum(seq_len) - seq_len
        shift = np.repeat(seq_start[seq_of_rank] - (np.cumsum(counts) - counts), counts)
        inverse = flat_row[shift + np.arange(shift.size, dtype=np.intp)]
        is_barrier = (p.kind is PhaseKind.BARRIER for p in table)
        barrier_all = np.fromiter(is_barrier, bool, len(table))[inverse]
        dur_all = np.fromiter((p.duration_s for p in table), float, len(table))[inverse]
        # Segment ordinal = barriers seen so far in the owning program.
        # Every rank holds exactly `num_barriers` barriers (validated in
        # __init__), so the global running barrier count folds back to a
        # per-rank ordinal with one multiply.
        seg_all = np.cumsum(barrier_all) - barrier_all - num_barriers * rank_all
        keep_phase = ~barrier_all
        ph_rank = rank_all[keep_phase]
        ph_seg = seg_all[keep_phase].astype(np.intp, copy=False)
        ph_row = inverse[keep_phase].astype(np.intp, copy=False)
        dur = dur_all[keep_phase]
        n = dur.size

        # 2. Phase offsets inside their (rank, segment) group via one flat
        # cumulative sum.  The running prefix crosses group boundaries, so
        # group-local values are recovered by subtracting the prefix at
        # each group's start; extended precision keeps the reintroduced
        # rounding noise far below _EPS even when the flat stream sums to
        # ~1e7 s across 100k ranks (in float64 that ulp would rival _EPS
        # and could fabricate sliver waits between logically tied ranks).
        cs = np.cumsum(dur, dtype=np.longdouble)
        cse = np.concatenate([np.zeros(1, dtype=np.longdouble), cs[:-1]])
        new_group = np.empty(n, dtype=bool)
        if n:
            new_group[0] = True
            new_group[1:] = (ph_rank[1:] != ph_rank[:-1]) | (ph_seg[1:] != ph_seg[:-1])
        sid = np.maximum.accumulate(np.where(new_group, np.arange(n), 0))
        base = cse[sid] if n else cse[:0]
        local_start = cse[:n] - base  # exclusive prefix inside the group
        local_end = cs - base  # inclusive prefix inside the group

        # 3. Segment totals per (rank, segment) — the group's last
        # inclusive prefix — then the schedule: release of barrier s is
        # the latest arrival, i.e. segment start plus the column max.
        segtot = np.zeros((num_ranks, num_barriers + 1), dtype=np.longdouble)
        if n:
            last = np.empty(n, dtype=bool)
            last[:-1] = new_group[1:]
            last[-1] = True
            segtot[ph_rank[last], ph_seg[last]] = local_end[last]
        col_max = segtot.max(axis=0)
        seg_start = np.empty(num_barriers + 1, dtype=np.longdouble)
        seg_start[0] = 0.0
        if num_barriers:
            seg_start[1:] = np.cumsum(col_max[:num_barriers])
        makespan = float(seg_start[num_barriers] + col_max[num_barriers])

        # 4. Interval bounds.  Bounds are emitted as float64; consecutive
        # phases share the same prefix value and a segment's first phase
        # starts exactly at the previous release, so per-rank timelines
        # are continuity-exact by construction.
        keep = dur > 0.0  # zero-duration phases are legal no-ops
        p_rank = ph_rank[keep]
        p_seg = ph_seg[keep]
        p_row = ph_row[keep]
        p_pos = np.arange(n, dtype=np.intp)[keep]
        p_start = np.asarray(seg_start[p_seg] + local_start[keep], dtype=float)
        p_end = np.asarray(seg_start[p_seg] + local_end[keep], dtype=float)

        # 5. Barrier waits from the arrival/release deltas: rank r arrives
        # at barrier s at seg_start[s] + segtot[r, s]; the release is
        # seg_start[s+1].  The comparison runs on the emitted float64
        # values so the wait-emission rule matches the interval bounds.
        if num_barriers:
            arrive = np.asarray(
                seg_start[None, :num_barriers] + segtot[:, :num_barriers], dtype=float
            )
            release = np.asarray(seg_start[1:], dtype=float)
            w_rank, w_seg = np.nonzero(release[None, :] > arrive + _EPS)
            w_start = arrive[w_rank, w_seg]
            w_end = release[w_seg]
        else:
            w_rank = w_seg = np.zeros(0, dtype=np.intp)
            w_start = w_end = np.zeros(0)
        if w_rank.size:
            wait_row = len(table)
            table.append(_WAIT_PHASE)
        else:
            wait_row = 0

        # 6. Merge phases and waits into per-rank time order: within a
        # rank, segment-s phases (in program order), then the barrier-s
        # wait, then segment s+1.  The phase table is then compacted to
        # the rows the intervals actually reference (the full table still
        # holds barrier and zero-duration phases).
        a_rank = np.concatenate([p_rank, w_rank])
        a_seg = np.concatenate([p_seg, w_seg])
        a_wait = np.concatenate(
            [np.zeros(p_rank.size, dtype=np.intp), np.ones(w_rank.size, dtype=np.intp)]
        )
        a_pos = np.concatenate([p_pos, np.zeros(w_rank.size, dtype=np.intp)])
        order = np.lexsort((a_pos, a_wait, a_seg, a_rank))
        row_full = np.concatenate(
            [p_row, np.full(w_rank.size, wait_row, dtype=np.intp)]
        )[order]
        used_rows, phase_row = np.unique(row_full, return_inverse=True)
        arrays = IntervalArrays(
            num_ranks=num_ranks,
            rank=a_rank[order],
            t_start=np.concatenate([p_start, w_start])[order],
            t_end=np.concatenate([p_end, w_end])[order],
            phase_row=phase_row.astype(np.intp, copy=False),
            phases=[table[i] for i in used_rows],
            makespan=makespan,
        )
        arrays.validate()
        return arrays

    # -- reference event-heap oracle -----------------------------------
    def _run_reference(self) -> List[List[RankInterval]]:
        """The original event-heap loop, kept as the oracle.

        An event queue keyed on (time, sequence number) drives rank
        progress; barriers collect arrivals and release all ranks at the
        max arrival time.
        """
        intervals: List[List[RankInterval]] = [[] for _ in range(self._num_ranks)]
        # Per-rank cursor into its phase list and local clock.
        cursor = [0] * self._num_ranks
        clock = [0.0] * self._num_ranks
        # Barrier bookkeeping: ordinal -> list of (arrival_time, rank).
        barrier_arrivals: Dict[int, List] = {}
        barrier_ordinal = [0] * self._num_ranks

        counter = itertools.count()
        heap: List = [(0.0, next(counter), r) for r in range(self._num_ranks)]
        heapq.heapify(heap)
        blocked: Dict[int, float] = {}  # rank -> arrival time at its barrier

        while heap:
            t, _, rank = heapq.heappop(heap)
            program = self._programs[rank].phases
            i = cursor[rank]
            if i >= len(program):
                continue  # rank already finished
            phase = program[i]
            if phase.kind is PhaseKind.BARRIER:
                ordinal = barrier_ordinal[rank]
                barrier_ordinal[rank] += 1
                cursor[rank] += 1
                arrivals = barrier_arrivals.setdefault(ordinal, [])
                arrivals.append((t, rank))
                blocked[rank] = t
                if len(arrivals) == self._num_ranks:
                    release = max(at for at, _ in arrivals)
                    for at, r in arrivals:
                        if release > at + _EPS:
                            intervals[r].append(
                                RankInterval(rank=r, t_start=at, t_end=release, phase=_WAIT_PHASE)
                            )
                        clock[r] = release
                        del blocked[r]
                        heapq.heappush(heap, (release, next(counter), r))
                    # Released ordinals never collect another arrival;
                    # dropping them keeps barrier bookkeeping O(ranks)
                    # instead of O(ranks x barriers) over a long program.
                    del barrier_arrivals[ordinal]
                continue
            # Ordinary phase: record its interval and schedule its end.
            t_end = t + phase.duration_s
            if phase.duration_s > 0:
                intervals[rank].append(
                    RankInterval(rank=rank, t_start=t, t_end=t_end, phase=phase)
                )
            cursor[rank] += 1
            clock[rank] = t_end
            heapq.heappush(heap, (t_end, next(counter), rank))

        if blocked:
            stuck = sorted(blocked)
            raise SimulationError(
                f"deadlock: ranks {stuck} blocked at a barrier no other rank reaches"
            )
        return intervals

    @staticmethod
    def _validate_continuity(intervals: List[List[RankInterval]]) -> None:
        for per_rank in intervals:
            t = 0.0
            for iv in per_rank:
                if iv.t_start < t - _EPS:
                    raise SimulationError(
                        f"overlapping intervals for rank {iv.rank} at t={iv.t_start}"
                    )
                if iv.t_start > t + _EPS:
                    raise SimulationError(
                        f"gap in rank {iv.rank}'s timeline at t={t}..{iv.t_start}"
                    )
                t = iv.t_end

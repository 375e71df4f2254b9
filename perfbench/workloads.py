"""Workloads of the forestbound benchmark: seeded inputs, timed operations, checks.

Each workload drives forestbound's public API from one thread in a closed
loop: the next operation starts after the previous one has returned and been
checked.  The inputs of operation i come from numpy's PCG64 seeded with
(seed, stream, i), so they do not depend on what ran before, and forestbound
receives only the generated arrays and lists; ``forestbound.sim`` is not used,
so changes to it cannot shift the workloads.  Statistics are one-sided
Gaussian: N(MU, 1) on a seeded tenth of the atoms, N(0, 1) elsewhere.  Budgets
are DKWM at level ALPHA on a dyadic family.

Why these workloads:

* analysis-2e13: whole analyses at m = 2^13 (512 atoms).  Most of the time
  goes to zeta, formats and building the family, the layers that a rewrite of
  the family storage or of the estimator moves, and every size dispatch sits
  on its large side.
* posthoc-2e17: one family built, estimated and pruned in set-up, then read
  requests: vstar on sets of log-uniform size, and curves of bootstrap
  redraws.  The time goes to bounds and curve only, so cost moved into
  building the family shows as a gain here and as a loss on the analyses.
* replicates-512: hundreds of analyses at m = 512 (16 atoms).  Per-call
  overhead dominates and every size dispatch sits on its small side (vstar
  runs its Python engine, below NUMPY_MIN_ATOMS).
"""

from __future__ import annotations

import gc
import hashlib
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.special import ndtr

from forestbound import (
    apply_zetas,
    atom_hit_counts,
    build_dyadic,
    compact,
    fast_curve,
    naive_curve,
    prune,
    vstar,
    zeta_dkwm,
)
from forestbound.bounds import validate_path
from forestbound.formats import dump_curve_csv, dump_forest, parse_forest

from spans import Tracer, speed_scale

MU = 3.0
SIGNAL_FRAC = 0.1
ALPHA = 0.05
# The prefix sets of an analysis have the fixed sizes m**(k/4), k = 0..4, so
# the latency percentiles do not move with the seed, and the median of the
# pooled vstar latencies falls inside one size, not between two.
PREFIX_EXPONENTS = (0.0, 0.25, 0.5, 0.75, 1.0)
CURVE_CHECK_TS = 3  # curve values re-derived by vstar on the unpruned family
QUERY_CHECK_EVERY = 8  # post hoc queries re-evaluated on the unpruned family
QUERY_KINDS = ("prefix", "random", "regions")
SETUP_REPS = 3  # set-up steps per run; setup_s takes their median
MAX_REPORTED = 5


@dataclass(frozen=True)
class Workload:
    name: str
    height: int  # of the dyadic family: 2**(height-1) atoms
    atom_size: int
    min_ops: int  # measured operations in every run; the digest covers them
    queries: int = 0  # vstar queries per post hoc session; 0: full analyses
    naive_check: bool = False  # compare every curve with naive_curve

    @property
    def n_atoms(self) -> int:
        return 2 ** (self.height - 1)

    @property
    def m(self) -> int:
        return self.n_atoms * self.atom_size


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analysis-2e13", height=10, atom_size=16, min_ops=4),
        Workload("posthoc-2e17", height=14, atom_size=16, min_ops=4, queries=64),
        Workload(
            "replicates-512", height=5, atom_size=32, min_ops=100, naive_check=True
        ),
    )
}
# The analysis workloads set up by running this small analysis, which loads
# every code path before the first timed operation.
WARMUP = WORKLOADS["replicates-512"]


class Tally:
    """Attempted and failed operations, and the digest of their outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._sha = hashlib.sha256()

    def record(self, op: str, problems: list[str], parts, digest: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED:
                print(f"check failed: {op}: {'; '.join(problems)}", file=sys.stderr)
        if digest:
            self._sha.update(op.encode())
            for part in parts:
                self._sha.update(part)

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()


@dataclass
class Op:
    """One measured operation that returned: its latency, the latencies of
    its curve and vstar calls, and the speed scale that turns them into
    seconds at the reference speed."""

    seconds: float
    scale: float
    traced: bool
    curve_s: float
    vstar_s: list[float]


@dataclass
class Run:
    """Everything one run measured; the operations are those after set-up."""

    spec: Workload
    tracer: Tracer = field(default_factory=Tracer)
    tally: Tally = field(default_factory=Tally)
    setup_s: list[float] = field(default_factory=list)  # at reference speed
    ops: list[Op] = field(default_factory=list)
    first_span: int = 0  # the first span of the measured operations


# -- inputs -----------------------------------------------------------------


def signal_mask(spec: Workload, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0])
    atoms = rng.choice(
        spec.n_atoms, max(1, round(SIGNAL_FRAC * spec.n_atoms)), replace=False
    )
    mask = np.zeros(spec.n_atoms, dtype=bool)
    mask[atoms] = True
    return np.repeat(mask, spec.atom_size)


def draw_pvalues(rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    z = rng.standard_normal(mask.size)
    z[mask] += MU
    return ndtr(-z)


def pvalue_path(p: np.ndarray) -> list[int]:
    return (np.argsort(p, kind="stable") + 1).tolist()


@dataclass
class AnalysisInputs:
    p: np.ndarray
    path: list[int]
    prefixes: list[list[int]]
    check_ts: list[int]


def analysis_inputs(spec, mask, seed, stream, i) -> AnalysisInputs:
    rng = np.random.default_rng([seed, stream, i])
    p = draw_pvalues(rng, mask)
    path = pvalue_path(p)
    prefixes = [path[: round(spec.m**e)] for e in PREFIX_EXPONENTS]
    check_ts = rng.integers(1, spec.m + 1, CURVE_CHECK_TS).tolist()
    return AnalysisInputs(p, path, prefixes, check_ts)


@dataclass
class Query:
    kind: str
    members: list[int]
    bound: int | None = None  # regions: sum of the budgets of the union


@dataclass
class SessionInputs:
    path: list[int]
    queries: list[Query]
    check_ts: list[int]


def region_union(spec, est, rng, k) -> Query:
    """Whole dyadic regions of one level, as many as fit in k hypotheses."""
    level = min(spec.height - 1, int(np.log2(max(k / spec.atom_size, 1.0))))
    span = 2**level  # atoms per region
    n_regions = spec.n_atoms // span
    count = max(1, min(n_regions, k // (span * spec.atom_size)))
    firsts = np.sort(rng.choice(n_regions, count, replace=False)) * span
    size = span * spec.atom_size
    members = (firsts[:, None] * spec.atom_size + np.arange(size)).ravel() + 1
    bound = sum(est.zeta((a + 1, a + span)) for a in firsts.tolist())
    return Query("regions", members.tolist(), bound)


def session_inputs(spec, mask, est, seed, i) -> SessionInputs:
    """A bootstrap redraw's path and queries of stratified log-uniform size.

    Stratifying |S| within the session keeps the latency percentiles of a
    run independent of the seed's luck; each kind spans all sizes.
    """
    rng = np.random.default_rng([seed, 2, i])
    path = pvalue_path(draw_pvalues(rng, mask))
    q = spec.queries
    u = (np.arange(q) + rng.random(q)) / q
    sizes = np.clip(np.rint(spec.m**u), 1, spec.m).astype(int)
    queries = []
    for j in rng.permutation(q).tolist():
        k = int(sizes[j])
        kind = QUERY_KINDS[j % len(QUERY_KINDS)]
        if kind == "prefix":
            queries.append(Query(kind, path[:k]))
        elif kind == "random":
            members = rng.choice(spec.m, k, replace=False) + 1
            queries.append(Query(kind, members.tolist()))
        else:
            queries.append(region_union(spec, est, rng, k))
    check_ts = rng.integers(1, spec.m + 1, CURVE_CHECK_TS).tolist()
    return SessionInputs(path, queries, check_ts)


# -- operations -------------------------------------------------------------


@dataclass
class Analysis:
    fam: object  # as built, budgets vacuous
    est: object  # estimated, unpruned
    text: str
    loaded: object
    pruned: object  # PruneResult
    family: object  # compacted, the one the curve and vstar run on
    curve: object
    curve_s: float
    csv: str
    vstars: list[int]
    vstar_s: list[float]


def analyse(tr: Tracer, spec: Workload, inp: AnalysisInputs) -> Analysis:
    """Everything of an analysis after its inputs, in the order the CLI runs it."""
    fam = tr.call("forest.build_dyadic", build_dyadic, spec.height, spec.atom_size)
    est = tr.call("zeta.zeta_dkwm", zeta_dkwm, fam, inp.p, ALPHA)
    text = tr.call("formats.dump_forest", dump_forest, est)
    loaded = tr.call("formats.parse_forest", parse_forest, text)
    pruned = tr.call("pruning.prune", prune, loaded)
    family = tr.call("pruning.compact", compact, pruned)
    curve, curve_s = tr.timed("curve.fast_curve", fast_curve, family, inp.path)
    csv = tr.call("formats.dump_curve_csv", dump_curve_csv, inp.path, curve)
    vstars, vstar_s = [], []
    for members in inp.prefixes:
        v, dt = tr.timed("bounds.vstar", vstar, family, members)
        vstars.append(v)
        vstar_s.append(dt)
    return Analysis(
        fam, est, text, loaded, pruned, family, curve, curve_s, csv, vstars, vstar_s
    )


def check_curve(curve, path, vstar_full, reference, ts) -> list[str]:
    values = np.asarray(curve.values, dtype=np.int64)
    if values.size != len(path) + 1:
        return [f"curve has {values.size} values for {len(path)} steps"]
    problems = []
    steps = np.diff(values)
    if values[0] != 0 or np.any((steps != 0) & (steps != 1)):
        problems.append("a curve step adds neither 0 nor 1")
    if values[-1] != vstar_full:
        problems.append(f"final value {values[-1]} != prune vstar_full {vstar_full}")
    for t in ts:
        v = vstar(reference, path[:t])
        if v != values[t]:
            problems.append(f"V_{t} = {values[t]} but unpruned vstar gives {v}")
    return problems


def check_analysis(spec, a: Analysis, inp: AnalysisInputs) -> list[str]:
    problems = []
    if a.loaded != a.est:
        problems.append("parse_forest(dump_forest(family)) differs from family")
    problems += check_curve(a.curve, inp.path, a.pruned.vstar_full, a.est, inp.check_ts)
    lines = a.csv.count("\n")
    if lines != spec.m + 1 or not a.csv.endswith("\n"):
        problems.append(f"curve CSV has {lines} lines, expected {spec.m + 1}")
    for members, v in zip(inp.prefixes, a.vstars):
        if v != a.curve[len(members)]:
            problems.append(f"vstar of the {len(members)}-prefix {v} != curve")
    if spec.naive_check and naive_curve(a.est, inp.path) != a.curve:
        problems.append("curve differs from naive_curve")
    return problems


def _curve_bytes(curve) -> bytes:
    return np.asarray(curve.values, dtype=np.int64).tobytes()


def _note_curve(tr: Tracer, family, curve) -> None:
    values = np.asarray(curve.values, dtype=np.int64)
    tr.note("curve.steps", values.size - 1)
    tr.note("curve.saturated_steps", int(np.count_nonzero(np.diff(values) == 0)))
    tr.note("curve.work_bound", family.m + sum(k.j - k.i + 1 for k in family.keys()))


def _beside_analysis(tr: Tracer, spec, a: Analysis, inp: AnalysisInputs) -> None:
    """Sub-steps timed on their own after the analysis, and its counts."""
    estimates = {key: a.est.zeta(key) for key in a.est.keys()}
    tr.timed("zeta.apply_zetas", apply_zetas, a.fam, estimates, beside=True)
    _, repeat_s = tr.timed(
        "curve.fast_curve", fast_curve, a.family, inp.path, beside=True
    )
    tr.note("curve.first_call_extra_s", a.curve_s - repeat_s)
    tr.timed("bounds.validate_path", validate_path, spec.m, inp.path, beside=True)
    for members in inp.prefixes:
        tr.timed(
            "bounds.atom_hit_counts", atom_hit_counts, a.family, members, beside=True
        )
    regions = len(a.est)
    vacuous = sum(r.zeta == a.est.region_size(r.key) for r in a.est.regions())
    tr.note("forest.regions", regions)
    tr.note("forest.atoms", a.est.n_atoms)
    tr.note("zeta.vacuous_frac", vacuous / regions)
    tr.note("pruning.kept_frac", len(a.family) / regions)
    tr.note("formats.curve_csv_bytes", len(a.csv.encode()))
    _note_curve(tr, a.family, a.curve)


def _failure() -> list[str]:
    lines = traceback.format_exc().strip().splitlines()
    return [f"raised {lines[-1]}"]


def analysis_op(run: Run, spec, inp, op: str, digest: bool):
    """One checked analysis; returns it, its seconds and their speed scale,
    or None thrice if it raised."""
    tr = run.tracer
    gc.collect()
    before = speed_scale()
    started = tr.start_op("analysis", op)
    try:
        a = analyse(tr, spec, inp)
    except Exception:
        tr.end_op(started)
        run.tally.record(op, _failure(), [b"raised"], digest)
        return None, None, None
    seconds = tr.end_op(started)
    scale = (before + speed_scale()) / 2
    if tr.recording:
        _beside_analysis(tr, spec, a, inp)
    try:
        problems = check_analysis(spec, a, inp)
    except Exception:
        problems = _failure()
    parts = [
        a.text.encode(),
        repr(sorted(a.pruned.removed)).encode(),
        _curve_bytes(a.curve),
        a.csv.encode(),
        repr(a.vstars).encode(),
    ]
    run.tally.record(op, problems, parts, digest)
    return a, seconds, scale


def check_query(q: Query, v: int, curve, est, recheck: bool) -> list[str]:
    problems = []
    if not 0 <= v <= len(q.members):
        problems.append(f"vstar {v} outside 0..{len(q.members)}")
    if q.kind == "prefix" and v != curve[len(q.members)]:
        problems.append(f"prefix vstar {v} != curve {curve[len(q.members)]}")
    if q.bound is not None and v > q.bound:
        problems.append(f"vstar {v} above the union's budget sum {q.bound}")
    if recheck and v != vstar(est, q.members):
        problems.append("pruned and unpruned families disagree")
    return problems


def session_op(run: Run, spec, base: Analysis, inp: SessionInputs, op, digest):
    """One curve request, then the session's vstar queries; returns the
    session's seconds, their speed scale, the curve's seconds and the
    queries', or None if a call raised."""
    tr, tally = run.tracer, run.tally
    gc.collect()
    before = speed_scale()
    started = tr.start_op("session", op)
    try:
        curve, curve_s = tr.timed("curve.fast_curve", fast_curve, base.family, inp.path)
        values, times = [], []
        for q in inp.queries:
            v, dt = tr.timed("bounds.vstar", vstar, base.family, q.members)
            values.append(v)
            times.append(dt)
    except Exception:
        tr.end_op(started)
        problems = _failure()
        for j in range(1 + len(inp.queries)):
            tally.record(f"{op}/{j}", problems, [b"raised"], digest)
        return None
    seconds = tr.end_op(started)
    scale = (before + speed_scale()) / 2
    if tr.recording:
        tr.timed("bounds.validate_path", validate_path, spec.m, inp.path, beside=True)
        for q in inp.queries:
            tr.timed(
                "bounds.atom_hit_counts",
                atom_hit_counts,
                base.family,
                q.members,
                beside=True,
            )
        _note_curve(tr, base.family, curve)
    try:
        problems = check_curve(
            curve, inp.path, base.pruned.vstar_full, base.est, inp.check_ts
        )
    except Exception:
        problems = _failure()
    tally.record(f"{op}/curve", problems, [_curve_bytes(curve)], digest)
    for j, (q, v) in enumerate(zip(inp.queries, values)):
        try:
            problems = check_query(q, v, curve, base.est, j % QUERY_CHECK_EVERY == 0)
        except Exception:
            problems = _failure()
        tally.record(f"{op}/vstar-{j}", problems, [repr(v).encode()], digest)
    return seconds, scale, curve_s, times


# -- runs -------------------------------------------------------------------


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool) -> Run:
    """Set up, then run operations for ``seconds`` and at least ``min_ops``.

    With ``trace``, every other measured operation records spans, so the
    traced and untraced operations of one process give the tracing overhead.
    """
    run = Run(spec)
    tr = run.tracer
    # The post hoc set-up builds the family the requests read, so it is
    # traced; the analysis workloads' warm-up is smaller than what they
    # measure, so it is not.
    tr.recording = trace and spec.queries > 0
    if spec.queries:
        # The observed data's analysis, as many times as set-up is timed; the
        # last one serves the requests.
        mask = signal_mask(spec, seed)
        inp = analysis_inputs(spec, mask, seed, 1, 0)
        for r in range(SETUP_REPS):
            base, dt, scale = analysis_op(run, spec, inp, f"setup-{r}", True)
            if base is None:
                raise RuntimeError("set-up analysis failed; nothing to serve")
            run.setup_s.append(dt * scale)
    else:
        wmask = signal_mask(WARMUP, seed)
        for r in range(SETUP_REPS):
            inp = analysis_inputs(WARMUP, wmask, seed, 0, r)
            _, dt, scale = analysis_op(run, WARMUP, inp, f"warmup-{r}", True)
            if dt is not None:
                run.setup_s.append(dt * scale)
        mask = signal_mask(spec, seed)

    run.first_span = len(tr.spans)
    began = perf_counter()
    i = 0
    while i < spec.min_ops or perf_counter() - began < seconds:
        tr.recording = trace and i % 2 == 1
        digest = i < spec.min_ops
        if spec.queries:
            inp = session_inputs(spec, mask, base.est, seed, i)
            out = session_op(run, spec, base, inp, f"session-{i}", digest)
        else:
            inp = analysis_inputs(spec, mask, seed, 1, i)
            a, dt, scale = analysis_op(run, spec, inp, f"analysis-{i}", digest)
            out = None if a is None else (dt, scale, a.curve_s, a.vstar_s)
        if out is not None:
            dt, scale, curve_s, vstar_s = out
            run.ops.append(Op(dt, scale, tr.recording, curve_s, vstar_s))
        i += 1
    tr.recording = False
    return run

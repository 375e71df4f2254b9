"""Acceptance suite: every shipped criterion, one test each.

Each test prints a single `[criterion N] ...: PASS/FAIL` line (visible with
``pytest -s``) and asserts the same condition.  The timing-sensitive checks
share module-scoped benchmark fixtures so the expensive scenario runs happen
once.
"""

import itertools
import random
import time

import pytest

import forestbound as fb
from forestbound import sim

from oracles import (
    EXAMPLE_ATOMS,
    EXAMPLE_CURVE,
    EXAMPLE_M,
    EXAMPLE_PATH,
    EXAMPLE_REGIONS,
    definition_removed_set,
    oracle_vstar_partitions,
    oracle_vstar_sets,
    oracle_vstar_subsets,
    random_family,
    random_path,
    random_selection,
)

SEED = 20260809


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def scaling_reports():
    cfg_small = sim.ScenarioConfig(
        m=1024, tree_height=10, n_repl=6, seed=SEED
    )
    cfg_large = sim.ScenarioConfig(
        m=10240, tree_height=10, n_repl=3, seed=SEED
    )
    return sim.scaling_check(
        cfg_small,
        cfg_large,
        variants=("naive.not.pruned", "fast.not.pruned"),
    )


@pytest.fixture(scope="module")
def fast_large_report():
    cfg = sim.ScenarioConfig(m=10240, tree_height=10, n_repl=10, seed=SEED)
    return sim.run_scenario(cfg, variants=("fast.not.pruned", "fast.pruned"))


def test_criterion_1_golden_worked_example():
    family = fb.ForestFamily(EXAMPLE_M, EXAMPLE_ATOMS, EXAMPLE_REGIONS)
    completed = fb.complete_family(family)
    result = fb.prune(completed)
    removed_ok = result.removed == {fb.RegionKey(6, 7)}

    pruned = result.pruned_family
    curve = fb.fast_curve(pruned, EXAMPLE_PATH)  # also warms lazy caches
    elapsed = min(
        _timed(lambda: fb.fast_curve(pruned, EXAMPLE_PATH)) for _ in range(5)
    )
    values_ok = curve.values == EXAMPLE_CURVE
    ok = removed_ok and values_ok and elapsed < 1e-3
    _report(
        1,
        "golden worked example",
        ok,
        f"(removed={sorted(result.removed)}, curve={curve.values[1:]}, "
        f"fast_curve={elapsed * 1e6:.0f}us)",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_oracle_equivalence():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    families = 0
    checks = 0
    while families < 1000:
        fam = random_family(rng, max_atoms=6, max_atom_size=2, complete=True)
        assert fam.m <= 12 and fam.n_atoms <= 6
        families += 1
        for _ in range(20):
            sel = random_selection(rng, fam.m)
            v = fb.vstar(fam, sel)
            ok = (
                v == oracle_vstar_sets(fam, sel)
                and v == oracle_vstar_subsets(fam, sel)
                and v == oracle_vstar_partitions(fam, sel)
            )
            checks += 1
            if not ok:
                _report(2, "oracle equivalence", False, f"({fam}, {sorted(sel)})")
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "oracle equivalence",
        elapsed < 60.0,
        f"({families} families, {checks} selections, {elapsed:.1f}s)",
    )


def test_criterion_3_curve_equivalence():
    rng = random.Random(SEED + 1)
    t0 = time.perf_counter()
    instances = 0
    while instances < 500:
        fam = fb.complete_family(
            random_family(rng, max_atoms=rng.randint(2, 40), max_atom_size=5)
        )
        assert fam.m <= 200
        path = random_path(rng, fam.m, partial=rng.random() < 0.25)
        pruned = fb.prune(fam).pruned_family
        reference = fb.naive_curve(fam, path)
        ok = (
            reference == fb.fast_curve(fam, path)
            and reference == fb.fast_curve(pruned, path)
            and reference == fb.naive_curve(pruned, path)
        )
        instances += 1
        if not ok:
            _report(3, "curve equivalence", False, f"({fam}, path={path})")
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "curve equivalence",
        elapsed < 60.0,
        f"({instances} instances, {elapsed:.1f}s)",
    )


def test_criterion_4_pruning_correctness():
    rng = random.Random(SEED + 2)
    exhaustive = 0
    sampled = 0
    for _ in range(500):
        fam = fb.complete_family(
            random_family(rng, max_atoms=8, max_atom_size=2)
        )
        assert fam.n_atoms <= 8
        result = fb.prune(fam)
        if result.removed != definition_removed_set(fam):
            _report(4, "pruning correctness", False, f"(checker mismatch on {fam})")
        pruned = result.pruned_family
        if fam.m <= 12:
            exhaustive += 1
            members = list(range(1, fam.m + 1))
            for r in range(fam.m + 1):
                for combo in itertools.combinations(members, r):
                    sel = set(combo)
                    if fb.vstar(fam, sel) != fb.vstar(pruned, sel):
                        _report(4, "pruning correctness", False, f"({fam}, {sel})")
        else:
            sampled += 1
            for _ in range(50):
                sel = random_selection(rng, fam.m)
                if fb.vstar(fam, sel) != fb.vstar(pruned, sel):
                    _report(4, "pruning correctness", False, f"({fam}, {sel})")
    _report(
        4,
        "pruning correctness",
        True,
        f"(500 families: {exhaustive} exhaustive, {sampled} sampled)",
    )


def test_criterion_5_structural_invariants():
    rng = random.Random(SEED + 3)
    families = 0
    curves = 0
    for _ in range(300):
        fam = random_family(rng, max_atoms=10, max_atom_size=3)
        families += 1
        # forest law, exhaustively
        keys = list(fam.keys())
        for a in keys:
            for b in keys:
                lo, hi = max(a.i, b.i), min(a.j, b.j)
                if lo <= hi:
                    nested = (a.i <= b.i and b.j <= a.j) or (
                        b.i <= a.i and a.j <= b.j
                    )
                    if not nested:
                        _report(5, "structural invariants", False, f"(law: {a},{b})")
        # depth consistency
        for reg in fam.regions():
            containers = sum(
                1
                for other in keys
                if other != reg.key
                and other.i <= reg.key.i
                and reg.key.j <= other.j
            )
            if reg.depth != 1 + containers:
                _report(5, "structural invariants", False, f"(depth: {reg})")
        # completion idempotence
        once = fb.complete_family(fam)
        if fb.complete_family(once) != once:
            _report(5, "structural invariants", False, f"(completion: {fam})")
        # curve step law on a random path
        if curves < 150:
            curves += 1
            path = random_path(rng, once.m)
            curve = fb.fast_curve(once, path)
            if curve[0] != 0:
                _report(5, "structural invariants", False, "(V_0 != 0)")
            if any(
                cur - prev not in (0, 1)
                for prev, cur in zip(curve, curve.values[1:])
            ):
                _report(5, "structural invariants", False, f"(steps: {curve})")
            if curve.final != fb.vstar(once, set(range(1, once.m + 1))):
                _report(5, "structural invariants", False, "(V_m != vstar(full))")
    _report(
        5,
        "structural invariants",
        True,
        f"({families} families, {curves} curves)",
    )


def test_criterion_6_scaling_law(scaling_reports):
    fast_ratio = scaling_reports.ratios["fast.not.pruned"]
    naive_ratio = scaling_reports.ratios["naive.not.pruned"]
    ok = 4.0 <= fast_ratio <= 25.0 and 40.0 <= naive_ratio <= 250.0
    _report(
        6,
        "scaling law",
        ok,
        f"(fast x{fast_ratio:.1f} in [4,25], naive x{naive_ratio:.1f} in [40,250])",
    )


def test_criterion_7_desk_scale_sanity(fast_large_report):
    unpruned = fast_large_report.summaries["fast.not.pruned"]
    pruned = fast_large_report.summaries["fast.pruned"]
    ok = unpruned.max < 30.0 and pruned.median <= unpruned.median
    _report(
        7,
        "desk-scale sanity",
        ok,
        f"(m=10240 fast max {unpruned.max * 1000:.1f}ms < 30s, "
        f"pruned median {pruned.median * 1000:.2f}ms <= "
        f"unpruned {unpruned.median * 1000:.2f}ms, neval={unpruned.neval})",
    )


def test_criterion_8_pruned_size_determinism():
    trivial = fb.zeta_trivial(fb.build_dyadic(10, 2))
    size = len(fb.prune(trivial).pruned_family)
    dkwm_sizes = {}
    for m, atom in ((1024, 2), (10240, 20)):
        cfg = sim.ScenarioConfig(m=m, tree_height=10, zeta_method="dkwm", seed=SEED)
        p = sim.gen_pvalues(cfg)
        fam = fb.zeta_dkwm(fb.build_dyadic(10, atom), p, cfg.alpha)
        dkwm_sizes[m] = len(fb.prune(fam).pruned_family)
    _report(
        8,
        "pruned-size determinism",
        size == 512,
        f"(trivial pruned size={size}, dkwm pruned sizes logged: {dkwm_sizes})",
    )

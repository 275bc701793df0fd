"""The verification suites at small sizes: all pass, reports are
deterministic, and parallel runs match serial ones."""

import concurrent.futures
import os

import pytest

from egc import grothendieck, pipeline, ring, verify
from egc.cli import main
from egc.grothendieck import ORBIT_PRIME
from egc.pipeline import build_context
from egc.ring import DEFAULT_PRIME, EvaluationPoint, GrahamSum, factor_code
from egc.shapes import (Flag, Partition, SkewShape, compatible_flags,
                        diagonal_split, subpartitions)
from egc.tableaux import (EnumSpec, SetValuedTableau, enumerate_tableaux,
                          split)
from egc.verify import (GVEX_N, GVEX_P0, SUITES, RunConfig, all_vexillary,
                        partitions_up_to, verify_identities)


def test_partitions_up_to():
    parts = partitions_up_to(3)
    assert len(parts) == 6
    assert len(set(parts)) == 6
    assert all(p.size <= 3 for p in parts)


def test_run_config_validation():
    RunConfig()
    with pytest.raises(ValueError):
        RunConfig(prime=91)
    RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(trials=-1)
    with pytest.raises(ValueError):
        RunConfig(window=(3, -3))
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            RunConfig(jobs=jobs)
    RunConfig(max_size=1)
    for max_size in (0, -1):
        with pytest.raises(ValueError):
            RunConfig(max_size=max_size)


def test_theorem_structure_checks_report_each_fault(monkeypatch):
    """One monomial per structural fault, each reported once per ρ in the
    sorted key order, and a Type 3 square, which is none; the order check
    decodes the factor (2, 1) and does not trust the Type 1 bits its
    hand-made code carries."""
    f12, f20 = factor_code((1, 2)), factor_code((2, 0))
    unordered = (1 << 42) | ((2 - ring._IDX_LO) << 21) | (1 - ring._IDX_LO)
    terms = {(f12, f12): 1, (f12, factor_code((-1, 0))): 1,
             (unordered,): 1, (unordered, unordered): 1, (f20, f20): 1,
             (f20, f20, f20): 1}
    monkeypatch.setattr(verify, "j_coefficient",
                        lambda lam, phi, rho: GrahamSum(terms))
    checks, failures = verify._theorem_instance(RunConfig(trials=0),
                                                ((1,), (1,)))
    faults = ["factor (1, 2) of type 1 appears 2 times",
              "monomial mixes Type 1 and Type 2",
              "factor violates the order",
              "factor violates the order",
              "factor (2, 1) of type None appears 2 times",
              "factor (2, 0) of type 3 appears 3 times"]
    key = "lam=(1,) phi=(1,)"
    assert checks == 6 + 6 + 1
    assert failures == [f"{key} rho=(1,): {m}" for m in faults] \
        + [f"{key} rho=(1,): beta=0 specialization is 0, expected 1"] \
        + [f"{key} rho=(): {m}" for m in faults]


@pytest.mark.parametrize("options,suites", [
    pytest.param({k: v}, SUITES + ("all",), id=k) for k, v in [
        ("max_size", 0), ("flag_range", (3, -2)), ("window", (3, -3)),
        ("trials", -1), ("prime", 91)]])
def test_invalid_options_rejected_before_any_instance(monkeypatch, options,
                                                       suites):
    def no_run(cfg):
        raise AssertionError("a suite ran on invalid options")
    for s in SUITES:
        monkeypatch.setattr(verify, f"suite_{s}", no_run)
    for suite in suites:
        with pytest.raises(ValueError):
            verify_identities(suite, **options)


def test_all_vexillary_small():
    ws = all_vexillary(1, 3)
    assert len(ws) == 6  # every element of S_3 avoids the pattern
    assert len(all_vexillary(1, 4)) == 23  # 24 minus 2143 itself


def test_gvex_sweep_visits_each_vexillary_w_once(monkeypatch):
    seen = []

    def record(cfg, inst):
        seen.append((inst, cfg.prime))
        return 0, []

    monkeypatch.setattr(verify, "_gvex_instance", record)
    ws = sorted((w.images, w.lo) for w in all_vexillary(-2, 3))
    for prime, used in ((DEFAULT_PRIME, ORBIT_PRIME), (1000003, 1000003)):
        seen.clear()
        assert verify_identities("gvex", prime=prime)["prime"] == used
        assert len(seen) == len(ws) == 513
        assert sorted(inst for inst, _ in seen) == ws
        assert {p for _, p in seen} == {used}


def test_gvex_sweep_steps_each_tree_node_once(monkeypatch):
    # the nodes other than w_0 on the paths from w_0 down to each
    # iota^4(w) in S_7, where the parent of u is u*s_a for u's last ascent a
    nodes = set()
    for w in all_vexillary(-2, 3):
        line = w.iota(GVEX_P0).one_line(1, GVEX_N)
        while a := max((a for a in range(1, len(line))
                        if line[a - 1] < line[a]), default=0):
            nodes.add(line)
            line = line[:a - 1] + (line[a], line[a - 1]) + line[a + 1:]
    assert len(nodes) == 666
    filled, fill = {}, grothendieck.OrbitTable._fill

    def counted(self, level, ranks):
        line = self._path[level - 1][0] if level else None
        filled[line] = filled.get(line, 0) + len(ranks)
        return fill(self, level, ranks)

    monkeypatch.setattr(grothendieck.OrbitTable, "_fill", counted)
    grothendieck._orbit_table.cache_clear()  # one new table, empty path
    assert verify_identities("gvex", trials=1)["ok"]
    # only the entries the queries read, each once: a node stepped twice
    # would refill its slots
    assert filled.pop(None) == 5040
    assert set(filled) == nodes
    assert sum(filled.values()) == 23999


def test_suite_ring():
    assert verify_identities("ring")["ok"]


def test_suite_ring_checks_the_point_ominus(monkeypatch):
    # every route evaluates (-) through EvaluationPoint.ominus, so the
    # telescoping check must fail when that one is wrong
    def flipped(self, a, b):
        return (a - b) * pow(1 - self.beta * b, -1, self.prime) % self.prime

    monkeypatch.setattr(EvaluationPoint, "ominus", flipped)
    report = verify_identities("ring")
    assert not report["ok"]
    assert any("telescoping" in f for f in report["failures"])


def test_suite_omega_small():
    report = verify_identities("omega", max_size=2, trials=2)
    assert report["ok"] and report["checks"] > 0


def test_suite_pi_small():
    assert verify_identities("pi", max_size=2, trials=2)["ok"]


def test_pi_checks_each_lower_part_once():
    """The chain is checked trials times on each distinct nonempty part
    below the diagonal of a diagonal-free λ/μ, per (λ, φ)."""
    instances = [(lam, phi) for lam in partitions_up_to(3)
                 for phi in compatible_flags(lam, 0, 2)]
    instances.append((Partition((4, 4, 4, 4, 4, 2, 1)),
                      Flag((3, 4, 4, 5, 6, 6, 8))))
    parts = 0
    for lam, _ in instances:
        lowers = {frozenset(diagonal_split(SkewShape(lam, mu))[1].cells())
                  for mu in subpartitions(lam)
                  if not SkewShape(lam, mu).props.has_diagonal_cell}
        parts += len(lowers - {frozenset()})
    report = verify_identities("pi", max_size=3, flag_range=(-1, 2),
                               trials=2)
    assert report["ok"] and report["instances"] == len(instances)
    assert report["checks"] == 2 * parts


def test_suite_decompose_small():
    report = verify_identities("decompose", max_size=2, trials=2,
                               flag_range=(-1, 2), window=(-2, 2))
    assert report["ok"]


DECOMPOSE_SMALL = {"max_size": 3, "flag_range": (-1, 2), "window": (-2, 2),
                   "trials": 0}


def test_decompose_checks_each_tableau_once():
    """merge∘split runs once per tableau of λ under its largest flag, and
    the count identity once per (λ, φ)."""
    tableaux, pairs = 0, 0
    for lam in partitions_up_to(3):
        flags = [phi.bounds for phi in compatible_flags(lam, -1, 2)]
        top = Flag(tuple(max(b[r] for b in flags) for r in range(len(lam))))
        assert top.bounds in flags  # compatible flags are closed under max
        tableaux += len(list(enumerate_tableaux(
            EnumSpec(SkewShape(lam), top, "any", (-2, 2)))))
        pairs += len(flags)
    report = verify_identities("decompose", **DECOMPOSE_SMALL)
    assert report["ok"] and report["instances"] == pairs
    assert report["checks"] == tableaux + pairs


def test_decompose_flag_filter_is_exact(monkeypatch):
    """One tableau given a wrong shape pair spoils the count identity of
    exactly the flags whose bounds dominate its row maxima, and its
    merge∘split failure names the least of them.  For λ = (1,1) and the
    rows {0}, {2}, that flag is (1, 2), not the incompatible (0, 2)."""
    lam = Partition((1, 1))
    t0 = SetValuedTableau(SkewShape(lam), (((0,),), ((2,),)))
    other = SetValuedTableau(SkewShape(lam), (((1,),), ((2,),)))
    assert split(t0)[0].shape != split(other)[0].shape
    real = verify.split_rows
    monkeypatch.setattr(verify, "split_rows", lambda lam, rows: real(
        lam, other.rows if rows == t0.rows else rows))
    maxima = tuple(row[-1][-1] for row in t0.rows)
    dominating = [phi.bounds for phi in compatible_flags(lam, -1, 2)
                  if all(m <= b for m, b in zip(maxima, phi.bounds))]
    least = tuple(map(min, zip(*dominating)))
    assert dominating == [(1, 2), (2, 2)] and least == (1, 2)

    failures = verify_identities("decompose", **DECOMPOSE_SMALL)["failures"]
    counts = [f.split(":")[0] for f in failures if "counts differ" in f]
    assert counts == [f"lam={lam.parts} phi={b}" for b in dominating]
    assert [f for f in failures if "counts differ" not in f] == [
        f"lam={lam.parts} phi={least}: merge(split(T)) != T for "
        f"{t0.to_text()!r}"]


@pytest.mark.parametrize("wrong", ["rows", "shape"])
def test_decompose_reports_a_wrong_merge(monkeypatch, wrong):
    """A merge result that differs from T, in its rows (those of another
    valid tableau) or in its shape alone, is exactly one merge∘split
    failure, which names the least flag admitting T."""
    lam = Partition((1, 1))
    t0 = SetValuedTableau(SkewShape(lam), (((0,),), ((2,),)))
    other = SetValuedTableau(SkewShape(lam), (((1,),), ((2,),)))
    if wrong == "rows":
        shape, rows = t0.shape, other.rows
    else:
        shape, rows = SkewShape(Partition((2, 1))), t0.rows
    real = verify.merge_rows

    def merged(*parts):
        out = real(*parts)
        return (shape, rows) if out == (t0.shape, t0.rows) else out
    monkeypatch.setattr(verify, "merge_rows", merged)
    failures = verify_identities("decompose", **DECOMPOSE_SMALL)["failures"]
    assert failures == [f"lam={lam.parts} phi=(1, 2): merge(split(T)) != T "
                        f"for {t0.to_text()!r}"]


def test_decompose_reports_a_crossing_cell_kept_whole(monkeypatch):
    """A split that counts the cell across 0 toward mu hands merge a
    nonpositive part with a positive value; merge refuses it, and each λ
    whose tableaux have such a cell (every λ here) is a unit failure."""
    real = verify.split_rows

    def whole(lam, rows):
        minus_shape, _, _, _ = real(lam, rows)
        nu = minus_shape.outer
        return (minus_shape, SkewShape(Partition(lam), nu),
                tuple(row[:nu.part(r)] for r, row in
                      enumerate(rows[:len(nu)], start=1)),
                tuple(row[nu.part(r):] for r, row in
                      enumerate(rows, start=1)))
    monkeypatch.setattr(verify, "split_rows", whole)
    failures = verify_identities("decompose", **DECOMPOSE_SMALL)["failures"]
    assert len(failures) == len(partitions_up_to(3))
    assert all(f.startswith("decompose ") and f.endswith(
        ": ValueError: nonpositive part has a positive value")
        for f in failures)


def test_suite_theorem_small():
    report = verify_identities("theorem", max_size=2, trials=2,
                               flag_range=(-1, 2))
    assert report["ok"]


def test_theorem_computes_each_half_once():
    """From empty caches, the theorem suite computes j_plus once per
    distinct input of either role, the upper half and the lower one that
    j_minus conjugates, and j_minus once per distinct lower half."""
    pipeline.j_plus.cache_clear()
    pipeline.j_minus.cache_clear()
    assert verify_identities("theorem", max_size=3, trials=2,
                             flag_range=(-2, 2))["ok"]
    uppers, lowers = set(), set()
    for lam, bounds in verify._pairs(3, -2, 2):
        for rho in subpartitions(Partition(lam)):
            ctx = build_context(Partition(lam), Flag(bounds), rho)
            if ctx.nu is not None:
                uppers.add(ctx.upper)
                lowers.add(ctx.lower)
    assert len(uppers | lowers) <= pipeline.HALF_CACHE_SIZE  # none evicted
    assert pipeline.j_plus.cache_info().misses == len(uppers | lowers)
    assert pipeline.j_minus.cache_info().misses == len(lowers)


def test_reports_deterministic():
    a = verify_identities("theorem", max_size=2, trials=2, seed=5,
                          flag_range=(-1, 1))
    b = verify_identities("theorem", max_size=2, trials=2, seed=5,
                          flag_range=(-1, 1))
    assert a == b


def test_jobs_match_serial(monkeypatch):
    serial = verify_identities("theorem", max_size=2, trials=1,
                               flag_range=(-1, 1), jobs=1)
    started, pool = [], concurrent.futures.ProcessPoolExecutor

    def counted_pool(**kwargs):
        started.append(kwargs)
        return pool(**kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        counted_pool)
    parallel = verify_identities("theorem", max_size=2, trials=1,
                                 flag_range=(-1, 1), jobs=2)
    assert serial == parallel
    # a pool starts whenever the host has two CPUs to give it
    assert started == ([{"max_workers": 2}] if (os.cpu_count() or 1) > 1
                       else [])


def test_decompose_jobs_match_serial(monkeypatch):
    """The decompose suite's unit of parallel work is one λ and its flags."""
    serial = verify_identities("decompose", max_size=3, trials=1)
    started, pool = [], concurrent.futures.ProcessPoolExecutor

    def counted_pool(**kwargs):
        started.append(kwargs)
        return pool(**kwargs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        counted_pool)
    assert verify_identities("decompose", max_size=3, trials=1,
                             jobs=2) == serial
    assert started == ([{"max_workers": 2}] if (os.cpu_count() or 1) > 1
                       else [])


def test_jobs_bounded(monkeypatch):
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            verify_identities("ring", jobs=jobs)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-instance suite started a process pool")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    report = verify_identities("decompose", max_size=1, flag_range=(1, 1),
                               trials=1, jobs=2)
    assert report["instances"] == 1 and report["ok"]


def test_unit_exception_becomes_failure(monkeypatch):
    """An exception in one unit of work is that unit's failure: the other
    units still run, serially and in a pool alike."""
    options = {"max_size": 3, "trials": 1, "flag_range": (-1, 1)}
    clean = verify_identities("theorem", **options)
    broken = [inst for inst in verify._pairs(3, -1, 1) if inst[0] == (2, 1)]
    lost = sum(verify._theorem_instance(RunConfig(**options), inst)[0]
               for inst in broken)
    real = verify.j_coefficient

    def raising(lam, phi, rho):
        if lam.parts == (2, 1):
            raise RuntimeError("no coefficient")
        return real(lam, phi, rho)

    monkeypatch.setattr(verify, "j_coefficient", raising)
    for jobs in (1, 2):
        report = verify_identities("theorem", **options, jobs=jobs)
        assert report["instances"] == clean["instances"] and not report["ok"]
        assert report["failures"] == [
            f"theorem {inst}: RuntimeError: no coefficient"
            for inst in broken]
        assert report["checks"] == clean["checks"] - lost > 0


@pytest.mark.parametrize("suite", ["decompose", "pi", "gvex", "omega"])
def test_suite_exception_becomes_failure(monkeypatch, suite):
    """An exception in one unit of each other suite is that unit's
    failure: the other units still run, serially and in a pool alike.
    The injection raises from the unit's random stream, for gvex from its
    checker (whose ValueError the unit reports itself)."""
    options = {"max_size": 3, "trials": 1}
    cfg = RunConfig(**options)
    lam_21 = [(lam, phi) for lam, phi in verify._pairs(3, -2, 3)
              if lam == (2, 1)]
    unit_fn, broken = {
        "decompose": (verify._decompose_group,
                      [((2, 1), [phi for _, phi in lam_21])]),
        "pi": (verify._pi_instance, [inst for inst in lam_21
                                     if min(inst[1]) >= 0]),
        "gvex": (verify._gvex_instance, [((), 0)]),
        "omega": (verify._omega_instance, [(2, 1)]),
    }[suite]
    clean = verify_identities(suite, **options)
    lost = sum(unit_fn(cfg, unit)[0] for unit in broken)
    if suite == "gvex":
        real_checker = verify.gvex_checker

        def checker(w, **kwargs):
            if w.is_identity():
                raise RuntimeError("injected")
            return real_checker(w, **kwargs)
        monkeypatch.setattr(verify, "gvex_checker", checker)
    else:
        real_stream = verify._stream

        def stream(seed, name):
            if name.startswith(f"{suite}:lam=(2, 1)"):
                raise RuntimeError("injected")
            return real_stream(seed, name)
        monkeypatch.setattr(verify, "_stream", stream)
    for jobs in (1, 2):
        report = verify_identities(suite, **options, jobs=jobs)
        assert report["instances"] == clean["instances"] and not report["ok"]
        assert report["failures"] == [
            f"{suite} {unit}: RuntimeError: injected" for unit in broken]
        assert report["checks"] == clean["checks"] - lost > 0


def test_ring_exception_becomes_failure(monkeypatch, capsys):
    """The ring suite is one unit of work: an exception in it is its
    failure, and a run of every suite still reports the other five."""
    def raising(f, i, beta):
        raise RuntimeError("no operator")

    monkeypatch.setattr(verify, "isobaric", raising)
    assert verify_identities("ring", seed=3) == {
        "suite": "ring", "instances": 665, "checks": 0,
        "failures": ["ring seed=3: RuntimeError: no operator"], "ok": False}
    report = verify_identities("all", max_size=2, trials=1)
    assert [r["suite"] for r in report["suites"]] == list(SUITES)
    assert [r["suite"] for r in report["suites"] if not r["ok"]] == ["ring"]
    assert not report["ok"]
    assert main(["verify", "--suite", "ring"]) == 1
    assert "ring: FAIL (665 instances, 0 checks)" in capsys.readouterr().out


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_identities("nope")

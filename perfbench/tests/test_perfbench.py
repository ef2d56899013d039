"""Tests of the benchmark's own arithmetic, spans and checks."""

import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, stats
from perfbench.spans import Tracer, totals
from perfbench.workloads import (Q, BuildSweep, Check, Outcome, VerifyN12,
                                 bracket_residual, headroom_checks,
                                 scaling_gap, summarize)

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# headroom and failed_frac


def test_headroom_takes_the_tightest_passed_check():
    assert stats.headroom_min_dex([(1e-10, 1e-9), (1e-9, 1e-8),
                                   (5e-9, 1e-8)]) == pytest.approx(
        math.log10(2.0))


def test_headroom_skips_zero_and_negative_residuals():
    # a zero residual or a negative margin is inside the bound by an
    # unbounded factor, so it has no finite headroom
    assert stats.headroom_min_dex([(0.0, 1e-9), (-3.0, 1e-8),
                                   (1e-12, 1e-9)]) == pytest.approx(3.0)
    assert stats.headroom_min_dex([(0.0, 1e-9), (-0.5, 0.0)]) is None


def test_headroom_skips_zero_bounds_and_counts_failed_checks():
    assert stats.headroom_min_dex([(0.0, 0.0), (1e-3, 0.0)]) is None
    # a residual above its bound has negative headroom
    assert stats.headroom_min_dex([(2e-9, 1e-9), (1e-12, 1e-10)]) == \
        pytest.approx(-math.log10(2.0))


def test_headroom_leaves_out_known_defects_and_set_up_checks():
    timed = Check("scaling-closed-form", 1e-10, 1e-9)
    unknown = Check("hn-0", 2.0, 1.0)
    known = Check("kac-null-count", 3.0, 1.0, known_defect="spurious-nulls")
    passed_known = Check("bracket", 1e-12, 1e-10,
                         known_defect="spurious-nulls")
    set_up = Check("bracket", 9e-11, 1e-10, headroom=False)
    outcomes = [Outcome("a", [timed, unknown]),
                Outcome("b", [known, passed_known, set_up])]
    assert headroom_checks(outcomes) == [timed, unknown, passed_known]


def test_failed_frac():
    assert stats.failed_frac(2, 7) == pytest.approx(2 / 7)
    assert stats.failed_frac(0, 3) == 0.0
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)


# ---------------------------------------------------------------------------
# tail percentiles


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(range(19)) is None
    assert stats.tail(range(1, 21)) == (50.0, 10, 10, 20)


def test_tail_picks_the_highest_percentile_that_qualifies():
    xs = list(range(1, 101))
    assert stats.tail(xs[::-1]) == (90.0, 90, 10, 100)
    assert stats.tail(range(1, 1001)) == (99.0, 990, 10, 1000)
    assert stats.tail(range(1, 10001)) == (99.9, 9990, 10, 10000)


# ---------------------------------------------------------------------------
# spans


def _thread_clock():
    local = threading.local()

    def clock():
        return getattr(local, "now", 0.0)

    def tick(dt):
        local.now = clock() + dt
    return clock, tick


def test_self_time_with_children_on_several_threads():
    clock, tick = _thread_clock()
    tr = Tracer(clock=clock, cpu_clock=clock)
    both_open = threading.Barrier(3, timeout=10)

    def worker(i):
        outer = tr.open("outer")
        tick(1.0)
        both_open.wait()  # every outer span and main are open together
        inner = tr.open("inner")
        tick(2.0 + i)
        tr.close(inner)
        tick(0.5)
        tr.close(outer)

    main = tr.open("main")
    tick(0.25)
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    both_open.wait()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    tick(0.25)
    tr.close(main)

    by_id = {sp.id: sp for sp in tr.spans}
    outers = [sp for sp in tr.spans if sp.name == "outer"]
    inners = [sp for sp in tr.spans if sp.name == "inner"]
    assert len(outers) == len(inners) == 2
    for sp in outers:
        assert sp.parent is None
        assert sp.self_s == pytest.approx(1.5)
    for sp in inners:
        parent = by_id[sp.parent]
        assert parent.name == "outer" and parent.thread == sp.thread
    # work on other threads is never a child of the main thread's span
    assert main.self_s == pytest.approx(0.5)
    t = totals(tr.spans)
    assert t["outer"]["calls"] == 2
    assert t["outer"]["self_s"] == pytest.approx(3.0)
    assert t["inner"]["s"] == pytest.approx(5.0)


def test_spans_must_close_in_order():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_queue_wait_counts_from_the_build_inside_run_config():
    clock, tick = _thread_clock()
    tr = Tracer(clock=clock, cpu_clock=clock)
    rc = tr.open("verify.run_config")
    b = tr.open("virmod.build_module")
    tick(1.0)
    tr.close(b)
    for wait in (0.0, 2.0):
        tick(wait)
        s = tr.open("verify.suite.gram")
        tick(1.0)
        tr.close(s)
    tr.close(rc)
    assert layers.queue_waits(tr.spans) == {rc.id: pytest.approx(3.0)}


# ---------------------------------------------------------------------------
# checks


def test_perturbed_operator_counts_as_failed():
    dims = [1, 1, 2, 3, 5]
    k = np.repeat(np.arange(len(dims)), dims)
    U = np.diag(Q ** (0.5 + k))
    good = Outcome("scaling", [Check("scaling-closed-form",
                                     scaling_gap(U, Q, 0.5, dims), 1e-9)])
    U[3, 1] += 1e-6
    bad = Outcome("scaling", [Check("scaling-closed-form",
                                    scaling_gap(U, Q, 0.5, dims), 1e-9)])
    assert not good.failed and bad.failed and bad.known_defect is None
    correct, attempted, failed, lines = summarize([good, bad])
    assert (correct, attempted, failed) == (False, 2, 1)
    assert lines[0].startswith("FAILED: scaling: scaling-closed-form")


def test_raising_operation_counts_as_failed():
    o = Outcome("run_config", [], error="EvolutionError: overflow")
    assert o.failed and o.known_defect is None
    assert summarize([o])[:3] == (False, 1, 1)


def test_bracket_check_agrees_with_the_bracket_suite():
    from virann.verify import suite_bracket
    from virann.virmod import ModuleParams, build_module
    m = build_module(ModuleParams(2.0, 0.5, 8))
    ours = bracket_residual(m.lmat, m.dims, 2.0)
    suite = suite_bracket(m, 1e-10, None)[0].residual
    assert ours == pytest.approx(suite, abs=1e-13)
    m.lmat_by_n[2] = m.lmat_by_n[2] * (1 + 1e-6)
    assert bracket_residual(m.lmat, m.dims, 2.0) > 1e-10


def test_spurious_nulls_fail_as_a_known_defect():
    from virann.virmod import ModuleParams, build_module
    sweep = BuildSweep()
    clean = Outcome("n12", sweep.check(
        "n12", build_module(ModuleParams(2.0, 0.5, 12))))
    lossy_module = build_module(ModuleParams(2.0, 0.5, 14))
    assert layers.spurious_nulls(lossy_module) == 3
    lossy = Outcome("n14", sweep.check("n14", lossy_module))
    assert not clean.failed
    assert lossy.failed and lossy.known_defect == "spurious-nulls"
    assert summarize([clean, lossy])[:3] == (True, 2, 1)


def _verify_outcome(seed, rows):
    wl = VerifyN12()
    wl.setup(seed, None)
    return Outcome("run_config", wl.check("run_config", {"results": [
        {"id": rid, "residual": r, "bound": 1e-4} for rid, r in rows]}))


def test_only_listed_verify_rows_fail_as_known_defects():
    seg = _verify_outcome(310, [("segal-standard", 1e-9),
                                ("segal-flowed", 1.005e-4)])
    both = _verify_outcome(310, [("segal-standard", 2e-4),
                                 ("segal-flowed", 1.005e-4)])
    assert seg.known_defect == "segal-flowed-seeds"
    assert both.failed and both.known_defect is None
    assert summarize([seg, both])[:3] == (False, 2, 2)


def test_segal_flowed_fails_outside_its_listed_seeds_and_cap():
    for seed in (12, 15, 310):
        assert _verify_outcome(seed, [("segal-flowed", 3.4e-4)]).known_defect
    elsewhere = _verify_outcome(11, [("segal-flowed", 1.005e-4)])
    above_cap = _verify_outcome(15, [("segal-flowed", 5e-4)])
    for o in (elsewhere, above_cap):
        assert o.failed and o.known_defect is None
        assert summarize([o])[:3] == (False, 1, 1)


# ---------------------------------------------------------------------------
# tracing virann


def test_instrument_traces_calls_between_modules_and_restores():
    import virann
    from virann import annulus, rep, verify, virmod
    originals = (rep.represent, virann.represent, rep.RepresentedAnnulus.
                 hn_report, dict(verify.SUITES))
    tr = Tracer()
    module = virmod.build_module(virmod.ModuleParams(2.0, 0.5, 3))
    with layers.instrument(tr):
        R = rep.represent(annulus.standard_element(0.5), module)
        R.hn_report()
        assert verify.SUITES["gram"] is not originals[3]["gram"]
    assert (rep.represent, virann.represent,
            rep.RepresentedAnnulus.hn_report, verify.SUITES) == originals
    by_id = {sp.id: sp for sp in tr.spans}
    names = {sp.name for sp in tr.spans}
    assert {"rep.represent", "evolve.ode_exp", "field.pi_field",
            "rep.hn_report"} <= names
    ode = next(sp for sp in tr.spans if sp.name == "evolve.ode_exp")
    assert by_id[ode.parent].name == "rep.represent"
    metrics = layers.layer_metrics(tr.spans)
    assert metrics["rep.represent.calls"]["value"] == 1
    assert metrics["evolve.ode_exp.nfev"]["value"] == R.result.meta["nfev"]
    assert metrics["field.pi_field.calls"]["value"] == R.result.meta["nfev"]
    # the catalogue's suites are registry suites, in registry order
    assert list(VerifyN12.SUITES) == [n for n in verify.SUITES
                                      if n in VerifyN12.SUITES]


def test_benchmark_json_lists_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["per_layer"] == layers.catalogue_entries()
    assert len(doc["per_layer"]) <= 128
    from perfbench.workloads import WORKLOADS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [
        w.why for w in WORKLOADS.values()]

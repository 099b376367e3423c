"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_same_seed_same_inputs_and_other_seed_other_traffic(tmp_path):
    a = inputs.generate(5, inputs.SMOKE, str(tmp_path / "a"))
    b = inputs.generate(5, inputs.SMOKE, str(tmp_path / "b"))
    c = inputs.generate(6, inputs.SMOKE, str(tmp_path / "c"))
    assert a["sha256"] == b["sha256"]
    assert a["sha256"]["impressions.jsonl"] != c["sha256"]["impressions.jsonl"]
    assert a["contracts"].keys() == c["contracts"].keys()
    assert a["in_window"] == a["impressions"] > 0


def test_targeting_text_matches_gdserve_evaluation(tmp_path):
    run.import_gdserve()
    from gdserve import targeting
    manifest = inputs.generate(2, inputs.SMOKE, str(tmp_path))
    visits = [{"gender": "male", "age_bucket": "2", "state": "CA"},
              {"interest": "news", "state": "TX", "age_bucket": "5"}, {}]
    for c in manifest["contracts"].values():
        expr = targeting.parse_targeting(inputs.render(c["targeting"]))
        for attrs in visits:
            assert targeting.eligible(attrs, expr) == inputs.matches(attrs, c["targeting"])


LAYERS = {
    "model.load_graph_s", "simulate.load_impressions_s",
    "targeting.eligible_calls", "targeting.eligible_s", "targeting.eligible_per_imp",
    "hwm.generate_hwm_plan_calls", "hwm.replan_p50_ms", "hwm.replan_p88_ms",
    "dual.solve_dual_offline_calls", "dual.solve_s", "dual.replan_p50_ms",
    "dual.replan_max_ms",
    *(f"kernels.{k}_{x}" for k in ("solve_rate", "dual_probs", "effective_probs",
                                   "draw_index") for x in ("calls", "s")),
    "kernels.effective_probs_per_imp", "kernels.plan_s", "kernels.serve_s",
    "feedback.apply_feedback_calls", "feedback.apply_feedback_s",
    "hwm.serve_hwm_calls", "hwm.serve_hwm_s", "cli.serve_self_s",
    "simulate.run_simulation_s", "simulate.self_s", "simulate.write_report_s",
    "metrics.build_smoothness_s", "plan.replan_p50_ms", "op.self_s",
}


def test_layer_metrics_self_time_and_nesting():
    tracer = spans.Tracer("t")

    def kernel(x):
        return x

    def planner():
        return wrapped_kernel(1)

    def serve_loop():
        for _ in range(3):
            wrapped_kernel(2)
        return wrapped_plan()

    wrapped_kernel = tracer.aggregate("kernels.effective_probs", kernel)
    wrapped_plan = tracer.span("hwm.generate_hwm_plan", planner)
    tracer.span("cli.cmd_serve", serve_loop)()
    m = spans.layer_metrics(tracer.records, impressions=3)
    assert set(m) == LAYERS
    assert all(run.unit_of(name) for name in m)
    assert m["kernels.effective_probs_calls"] == 4
    assert m["kernels.effective_probs_per_imp"] == 1.0     # the planner's call is excluded
    assert m["hwm.generate_hwm_plan_calls"] == 1
    assert m["plan.replan_p50_ms"] == m["hwm.replan_p50_ms"] > 0
    assert m["dual.solve_dual_offline_calls"] == 0 and m["dual.solve_s"] == 0.0
    op = tracer.records[0]
    children = sum(spans.duration(r) for r in tracer.records if r["parent"] == op["id"])
    assert abs(m["op.self_s"] - (spans.duration(op) - children)) < 1e-12
    assert m["cli.serve_self_s"] == m["op.self_s"]
    assert m["kernels.plan_s"] + m["kernels.serve_s"] == m["kernels.effective_probs_s"]
    for rec in tracer.records:
        assert {"run", "id", "name", "parent", "start", "end"} <= rec.keys()
        assert rec["start"] <= rec["end"]


def test_eligibility_counts_outer_calls_inside_the_operation():
    tracer = spans.Tracer("t")

    def depth(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = tracer.aggregate("targeting.eligible", depth)
    assert tracer.span("simulate.run_simulation", wrapped)(4) == 4
    assert wrapped(2) == 2          # outside the operation: set-up, not counted
    assert spans.layer_metrics(tracer.records, 1)["targeting.eligible_calls"] == 1


def test_instrument_restores_every_patched_name():
    run.import_gdserve()
    from gdserve import kernels, simulate
    before = (kernels.dual_probs, simulate.generate_hwm_plan, simulate.draw_index)
    with spans.instrument(spans.Tracer("t")):
        assert simulate.generate_hwm_plan is not before[1]
        assert simulate.draw_index is not before[2]
    assert (kernels.dual_probs, simulate.generate_hwm_plan, simulate.draw_index) == before


def test_work_counts_repeat_exactly_for_a_seed():
    counts = ("kernels.dual_probs_calls", "targeting.eligible_calls")
    for workload in ("hwm-sampled-2h", "dual-expected-24h"):
        first, second = (run.run_one(workload, 4, 0.0, True, smoke=True)
                         for _ in range(2))
        assert first["correct"] and second["correct"]
        assert [first["per_layer"][k] for k in counts] == \
            [second["per_layer"][k] for k in counts]
    assert first["per_layer"]["kernels.dual_probs_calls"] > 0


def test_smoke_emits_every_metric_and_passes_checks():
    assert run.smoke(seed=1) == 0


def test_units_follow_names():
    assert run.unit_of("sim_imp_per_s") == run.unit_of("imp_per_s") == "imp/s"
    assert run.unit_of("targeting.eligible_per_imp") == "calls/imp"
    assert run.unit_of("sigma75_abs") == "pp"
    assert run.unit_of("plan.replan_p50_ms") == "ms"
    assert run.unit_of("setup_s") == "s"

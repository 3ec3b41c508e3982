import csv
import io
import math
import types

import numpy as np
import pytest

import parkplan.evaluate
from parkplan.evaluate import (
    EvalReport,
    EvalRow,
    evaluate_planner,
    evaluate_policy,
    pivot_count,
    run_policy_episode,
    travel_distance,
)
from parkplan.env import EnvConfig, ParkingEnv
from parkplan.geometry import Pose2D
from parkplan.hybrid_astar import PlannerConfig
from parkplan.policy import PolicyConfig, PolicyNetwork
from parkplan.scenarios import Scenario, synth_scenario


def brute_pivots(signs):
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def test_pivot_examples():
    assert pivot_count([1, 1, 1]) == 0
    assert pivot_count([1, 1, -1, -1, 1]) == 2
    assert pivot_count([1, 0, 0, -1]) == 1
    assert pivot_count([]) == 0
    assert pivot_count([0, 0]) == 0


def test_pivot_matches_bruteforce(rng):
    for _ in range(1000):
        signs = rng.choice([-1, 0, 1], size=rng.integers(0, 30))
        assert pivot_count(signs) == brute_pivots(signs)


def test_travel_distance_examples():
    assert math.isclose(travel_distance([0.08] * 10), 0.8)
    assert travel_distance([]) == 0.0
    # forward then backward over the same arc adds, never cancels
    assert math.isclose(travel_distance([0.08, -0.08]), 0.16)


def test_travel_distance_matches_bruteforce(rng):
    for _ in range(1000):
        moves = rng.choice([-0.08, 0.0, 0.08], size=rng.integers(0, 50))
        assert math.isclose(travel_distance(moves), float(np.abs(moves).sum()))


def test_report_aggregates_recompute():
    rows = [
        EvalRow("a", "m", True, 0.2, 10.0, 2),
        EvalRow("b", "m", False, 0.1, 0.0, 0, "collided"),
        EvalRow("c", "m", True, 0.4, 20.0, 4),
    ]
    rep = EvalReport("m", rows)
    agg = rep.aggregates()
    assert agg["success_rate"] == pytest.approx(2 / 3)
    assert agg["mean_time_s"] == pytest.approx(0.3)
    assert agg["mean_distance_m"] == pytest.approx(15.0)
    assert agg["mean_pivots"] == pytest.approx(3.0)
    csv = rep.to_csv()
    assert csv.count("\n") == 4
    assert "successful cases only" in rep.summary()


def test_csv_quotes_ids_and_causes():
    odd = ["lot 3, bay 2", 'the "tight" one', "two\nlines", "crlf\r\nend", "lone\rcr", 'a,"b"\nc']
    rows = [EvalRow(text, "m", False, 0.5, 1.25, 1, text) for text in odd]
    rows.append(EvalRow("plain", "m", True, 0.2, 10.0, 2))
    text = EvalReport("m", rows).to_csv()
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed[0] == ["scenario_id", "method", "success", "planning_time_s",
                         "travel_distance_m", "pivot_points", "failure_cause"]
    assert parsed[1:] == [[t, "m", "0", "0.500000", "1.2500", "1", t] for t in odd] + [
        ["plain", "m", "1", "0.200000", "10.0000", "2", ""]
    ]
    # plain fields stay unquoted
    assert text.endswith("\nplain,m,1,0.200000,10.0000,2,\n")


def test_hybrid_astar_sweep_records_failures(spec):
    ring = []
    for t in np.linspace(0, 2 * math.pi, 300, endpoint=False):
        ring.append([6.0 * math.cos(t), 6.0 * math.sin(t)])
    blocked = Scenario("blocked", Pose2D(-20, 0, 0), Pose2D(0, 0, 0), ring)
    easy = Scenario("easy", Pose2D(0, 0, 0), Pose2D(8, 0, 0), np.empty((0, 2)))
    report = evaluate_planner([easy, blocked], PlannerConfig(time_budget=0.5))
    assert len(report.rows) == 2
    assert report.rows[0].success
    assert not report.rows[1].success
    assert report.rows[1].failure_cause in ("exhausted", "timeout")


def test_trivial_scenario_zero_metrics(spec):
    s = Scenario("trivial", Pose2D(0, 0, 0), Pose2D(0, 0, 0), np.empty((0, 2)))
    report = evaluate_planner([s], PlannerConfig())
    row = report.rows[0]
    assert row.success
    assert row.travel_distance_m == 0.0
    assert row.pivot_points == 0


def test_rl_eval_runs_greedy_episode(spec):
    s = Scenario(
        "nearly-there", Pose2D(-0.4, 0, 0), Pose2D(0, 0, 0), np.empty((0, 2))
    )
    policy = PolicyNetwork(
        PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4,
                     chunk_length=4),
        seed=0,
    )
    report = evaluate_policy([s], policy, EnvConfig(), max_episode_len=100)
    assert len(report.rows) == 1
    row = report.rows[0]
    # untrained net may or may not park; metrics must still be filled
    assert row.planning_time_s >= 0.0
    assert row.travel_distance_m >= 0.0
    assert "forward-pass" in report.metadata["timing"]


def test_rl_eval_uses_the_checkpoint_k(monkeypatch):
    evaluate_mod = parkplan.evaluate
    assert isinstance(evaluate_mod, types.ModuleType)
    seen = []

    def fake_episode(policy, env, scenario, max_episode_len):
        seen.append((env.k_obstacles, env.cfg))
        return True, {}, 0.0, []

    monkeypatch.setattr(evaluate_mod, "run_policy_episode", fake_episode)
    policy = PolicyNetwork(
        PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4),
        seed=0,
    )
    env_cfg = EnvConfig(horizon=12.0)
    s = Scenario("open", Pose2D(0, 0, 0), Pose2D(8, 0, 0), np.empty((0, 2)))
    evaluate_policy([s, s], policy, env_cfg, max_episode_len=1000)
    assert [k for k, _ in seen] == [4, 4]
    assert all(cfg is env_cfg for _, cfg in seen)


def test_eval_deterministic_decisions(spec):
    s = synth_scenario("perpendicular_bay")
    policy = PolicyNetwork(
        PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=16,
                     chunk_length=4),
        seed=1,
    )
    env = ParkingEnv(spec=spec, k_obstacles=16)
    a = run_policy_episode(policy, env, s, max_episode_len=60)
    b = run_policy_episode(policy, env, s, max_episode_len=60)
    assert a[0] == b[0]
    assert a[3] == b[3]  # identical displacement sequences

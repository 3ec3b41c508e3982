import math

from parkplan.geometry import VehicleSpec, wrap_angle
from parkplan.kinematics import (
    ACTIONS,
    STEP_DISPLACEMENT,
    VehicleState,
    step,
)
from oracles import bicycle_step_oracle


def test_action_table_matches_published_rows():
    table = ACTIONS
    assert len(table) == 8
    assert [a.index for a in table] == list(range(8))
    deg = math.degrees
    assert (deg(table[1].delta_steer), table[1].speed) == (0.0, 0.8)
    assert (deg(table[4].delta_steer), table[4].speed) == (0.0, -0.8)
    assert (round(deg(table[0].delta_steer)), table[0].speed) == (-8, 0.8)
    assert (round(deg(table[7].delta_steer)), table[7].speed) == (8, 0.0)
    for a in table:
        assert a.dt == 0.1
        assert a.displacement in (-0.08, 0.0, 0.08) or math.isclose(
            abs(a.displacement), 0.08
        )
        # the idle (0, 0) pair is excluded
        assert not (a.delta_steer == 0.0 and a.speed == 0.0)


def test_straight_forward_step(spec):
    s = step(VehicleState(0, 0, 0, 0), ACTIONS[1], spec)
    assert math.isclose(s.x, 0.08, rel_tol=1e-15)
    assert s.y == 0.0 and s.theta == 0.0 and s.delta == 0.0


def test_straight_with_zero_steer_keeps_heading(spec):
    for idx in (1, 4):
        s = step(VehicleState(2.0, -1.0, 0.9, 0.0), ACTIONS[idx], spec)
        assert s.theta == 0.9


def test_steer_clamps_at_limit(spec):
    start = VehicleState(0, 0, 0, spec.max_steer)
    s = step(start, ACTIONS[2], spec)  # +8 deg on top of the limit
    assert s.delta == spec.max_steer
    expected_dtheta = 0.08 / spec.wheelbase * math.tan(spec.max_steer)
    assert math.isclose(s.theta, expected_dtheta, rel_tol=1e-12)
    assert math.isclose(s.theta, 0.016663, abs_tol=5e-7)


def test_presteer_changes_only_delta(spec):
    start = VehicleState(1.0, 2.0, 0.3, 0.0)
    s = step(start, ACTIONS[6], spec)
    assert (s.x, s.y, s.theta) == (1.0, 2.0, 0.3)
    assert math.isclose(s.delta, -math.radians(8))


def test_step_matches_independent_oracle(spec, rng):
    for _ in range(10_000):
        st = VehicleState(
            rng.uniform(-30, 30),
            rng.uniform(-30, 30),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-spec.max_steer, spec.max_steer),
        )
        a = ACTIONS[rng.integers(8)]
        got = step(st, a, spec)
        ex, ey, eth, edelta = bicycle_step_oracle(
            st.x, st.y, st.theta, st.delta,
            a.delta_steer, a.speed, a.dt,
            spec.wheelbase, spec.max_steer,
        )
        assert abs(got.x - ex) <= 1e-12
        assert abs(got.y - ey) <= 1e-12
        assert abs(wrap_angle(got.theta - eth)) <= 1e-12
        assert abs(got.delta - edelta) <= 1e-12


def test_forward_back_reversibility(spec, rng):
    # with straight wheels the chord is retraced exactly
    for _ in range(500):
        st = VehicleState(
            rng.uniform(-10, 10),
            rng.uniform(-10, 10),
            rng.uniform(-math.pi, math.pi),
            0.0,
        )
        mid = step(st, ACTIONS[1], spec)
        out = step(mid, ACTIONS[4], spec)
        assert abs(out.x - st.x) <= 1e-12
        assert abs(out.y - st.y) <= 1e-12
        assert abs(wrap_angle(out.theta - st.theta)) <= 1e-12


def test_forward_back_heading_reversibility_any_steer(spec, rng):
    # the explicit-Euler position update advances along the pre-update
    # heading, so only the heading (and steering) is exactly restored when
    # the wheels are turned; position closes to first order in ds*dtheta
    for _ in range(500):
        st = VehicleState(
            rng.uniform(-10, 10),
            rng.uniform(-10, 10),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-spec.max_steer, spec.max_steer),
        )
        mid = step(st, ACTIONS[1], spec)
        out = step(mid, ACTIONS[4], spec)
        assert abs(wrap_angle(out.theta - st.theta)) <= 1e-12
        assert out.delta == st.delta
        assert math.hypot(out.x - st.x, out.y - st.y) < 2e-3


def test_circle_closure(spec):
    for delta_deg in (8, 16, 24, 32):
        delta = math.radians(delta_deg)
        circumference = 2 * math.pi * spec.wheelbase / math.tan(delta)
        n = int(round(circumference / STEP_DISPLACEMENT))
        st = VehicleState(0, 0, 0, delta)
        for _ in range(n):
            st = step(st, ACTIONS[1], spec)
        # theta update is linear in arc length, so heading closes exactly
        # up to the rounding of n; position closes to first order
        assert math.hypot(st.x, st.y) < 0.05
        assert abs(wrap_angle(st.theta)) < 0.01


def test_delta_always_clamped(spec, rng):
    st = VehicleState(0, 0, 0, 0)
    for _ in range(1000):
        st = step(st, ACTIONS[rng.integers(8)], spec)
        assert abs(st.delta) <= spec.max_steer + 1e-15


def test_turning_radius():
    spec = VehicleSpec()
    r = spec.min_turn_radius
    assert math.isclose(r, spec.wheelbase / math.tan(spec.max_steer), rel_tol=1e-12)
    assert math.isclose(r, 4.801, abs_tol=5e-4)

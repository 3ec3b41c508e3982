"""Independent brute-force oracles used by the test suite.

Everything here is deliberately written from first principles, structured
differently from the library code it checks: ray casting instead of
half-plane tests, the twelve classical curve formulas applied under
explicit transforms instead of the five word-family builders, a recursive
advantage scan instead of the vectorized one, and the policy's attention
with explicit per-token key and value projections instead of the pooled,
reassociated form.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# geometry: ray-casting containment with explicit boundary handling
# ---------------------------------------------------------------------------


def point_on_segment(px, py, ax, ay, bx, by, tol=1e-9):
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if abs(cross) > tol * max(1.0, math.hypot(bx - ax, by - ay)):
        return False
    dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
    if dot < -tol:
        return False
    if dot > (bx - ax) ** 2 + (by - ay) ** 2 + tol:
        return False
    return True


def point_in_polygon_raycast(px, py, poly, tol=1e-9):
    """Containment in a simple polygon; boundary points count as inside."""
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if point_on_segment(px, py, ax, ay, bx, by, tol):
            return True
    inside = False
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
    return inside


def polygon_area(vertices) -> float:
    """Shoelace area of a simple polygon (positive for CCW order)."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# ---------------------------------------------------------------------------
# kinematics: independent transcription of the discrete bicycle update
# ---------------------------------------------------------------------------


def bicycle_step_oracle(x, y, theta, delta, d_steer, speed, dt, wheelbase, max_steer):
    new_delta = min(max(delta + d_steer, -max_steer), max_steer)
    ds = speed * dt
    nx = x + ds * math.cos(theta)
    ny = y + ds * math.sin(theta)
    ntheta = theta + (ds / wheelbase) * math.tan(new_delta)
    ntheta = math.atan2(math.sin(ntheta), math.cos(ntheta))
    return nx, ny, ntheta, new_delta


# ---------------------------------------------------------------------------
# Reeds-Shepp: the twelve classical formulas + timeflip/reflect transforms
# ---------------------------------------------------------------------------
# A word is a list of (steer, gear, param): steer in {L, S, R}, gear +-1,
# param >= 0 in normalized units. Words that fail to reach the goal under
# exact integration are discarded.


def _m(theta):
    theta = theta % (2.0 * math.pi)
    if theta < -math.pi:
        return theta + 2.0 * math.pi
    if theta >= math.pi:
        return theta - 2.0 * math.pi
    return theta


def _r(x, y):
    return math.hypot(x, y), math.atan2(y, x)


def _el(param, steer, gear):
    if param >= 0:
        return (steer, gear, param)
    return (steer, -gear, -param)


def _path1(x, y, phi):
    u, t = _r(x - math.sin(phi), y - 1.0 + math.cos(phi))
    v = _m(phi - t)
    return [_el(t, "L", 1), _el(u, "S", 1), _el(v, "L", 1)]


def _path2(x, y, phi):
    phi = _m(phi)
    rho, t1 = _r(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if rho * rho < 4.0:
        return []
    u = math.sqrt(rho * rho - 4.0)
    t = _m(t1 + math.atan2(2.0, u))
    v = _m(t - phi)
    return [_el(t, "L", 1), _el(u, "S", 1), _el(v, "R", 1)]


def _path3(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho > 4.0:
        return []
    a = math.acos(rho / 4.0)
    t = _m(theta + math.pi / 2.0 + a)
    u = _m(math.pi - 2.0 * a)
    v = _m(phi - t - u)
    return [_el(t, "L", 1), _el(u, "R", -1), _el(v, "L", 1)]


def _path4(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho > 4.0:
        return []
    a = math.acos(rho / 4.0)
    t = _m(theta + math.pi / 2.0 + a)
    u = _m(math.pi - 2.0 * a)
    v = _m(t + u - phi)
    return [_el(t, "L", 1), _el(u, "R", -1), _el(v, "L", -1)]


def _path5(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho > 4.0:
        return []
    u = math.acos(1.0 - rho * rho / 8.0)
    a = math.asin(2.0 * math.sin(u) / rho) if rho > 0 else 0.0
    t = _m(theta + math.pi / 2.0 - a)
    v = _m(t - u - phi)
    return [_el(t, "L", 1), _el(u, "R", 1), _el(v, "L", -1)]


def _path6(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho > 4.0:
        return []
    if rho <= 2.0:
        a = math.acos((rho + 2.0) / 4.0)
        t = _m(theta + math.pi / 2.0 + a)
        u = _m(a)
        v = _m(phi - t + 2.0 * u)
    else:
        a = math.acos((rho - 2.0) / 4.0)
        t = _m(theta + math.pi / 2.0 - a)
        u = _m(math.pi - a)
        v = _m(phi - t + 2.0 * u)
    return [_el(t, "L", 1), _el(u, "R", 1), _el(u, "L", -1), _el(v, "R", -1)]


def _path7(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho, theta = _r(xi, eta)
    u1 = (20.0 - rho * rho) / 16.0
    if rho > 6.0 or u1 < 0.0 or u1 > 1.0:
        return []
    u = math.acos(u1)
    a = math.asin(2.0 * math.sin(u) / rho) if rho > 0 else 0.0
    t = _m(theta + math.pi / 2.0 + a)
    v = _m(t - phi)
    return [_el(t, "L", 1), _el(u, "R", -1), _el(u, "L", -1), _el(v, "R", 1)]


def _path8(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho < 2.0:
        return []
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(2.0, u + 2.0)
    t = _m(theta + math.pi / 2.0 + a)
    v = _m(t - phi + math.pi / 2.0)
    return [
        _el(t, "L", 1),
        _el(math.pi / 2.0, "R", -1),
        _el(u, "S", -1),
        _el(v, "L", -1),
    ]


def _path9(x, y, phi):
    xi = x - math.sin(phi)
    eta = y - 1.0 + math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho < 2.0:
        return []
    u = math.sqrt(rho * rho - 4.0) - 2.0
    a = math.atan2(u + 2.0, 2.0)
    t = _m(theta + math.pi / 2.0 - a)
    v = _m(t - phi - math.pi / 2.0)
    return [
        _el(t, "L", 1),
        _el(u, "S", 1),
        _el(math.pi / 2.0, "R", 1),
        _el(v, "L", -1),
    ]


def _path10(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho < 2.0:
        return []
    t = _m(theta + math.pi / 2.0)
    u = rho - 2.0
    v = _m(phi - t - math.pi / 2.0)
    return [
        _el(t, "L", 1),
        _el(math.pi / 2.0, "R", -1),
        _el(u, "S", -1),
        _el(v, "R", -1),
    ]


def _path11(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho < 2.0:
        return []
    t = _m(theta)
    u = rho - 2.0
    v = _m(phi - t - math.pi / 2.0)
    return [
        _el(t, "L", 1),
        _el(u, "S", 1),
        _el(math.pi / 2.0, "L", 1),
        _el(v, "R", -1),
    ]


def _path12(x, y, phi):
    xi = x + math.sin(phi)
    eta = y - 1.0 - math.cos(phi)
    rho, theta = _r(xi, eta)
    if rho < 4.0:
        return []
    u = math.sqrt(rho * rho - 4.0) - 4.0
    if u < 0.0:
        return []
    a = math.atan2(2.0, u + 4.0)
    t = _m(theta + math.pi / 2.0 + a)
    v = _m(t - phi)
    return [
        _el(t, "L", 1),
        _el(math.pi / 2.0, "R", -1),
        _el(u, "S", -1),
        _el(math.pi / 2.0, "L", -1),
        _el(v, "R", 1),
    ]


_PATH_FNS = (
    _path1,
    _path2,
    _path3,
    _path4,
    _path5,
    _path6,
    _path7,
    _path8,
    _path9,
    _path10,
    _path11,
    _path12,
)

_STEER_FLIP = {"L": "R", "R": "L", "S": "S"}


def _timeflip(word):
    return [(s, -g, p) for s, g, p in word]


def _reflect(word):
    return [(_STEER_FLIP[s], g, p) for s, g, p in word]


def integrate_word(word, x0=0.0, y0=0.0, th0=0.0):
    """Exact unit-radius endpoint of a word."""
    x, y, th = x0, y0, th0
    for steer, gear, param in word:
        s = gear * param
        if steer == "S":
            x += s * math.cos(th)
            y += s * math.sin(th)
        elif steer == "L":
            x += math.sin(th + s) - math.sin(th)
            y += -math.cos(th + s) + math.cos(th)
            th += s
        else:
            x += -math.sin(th - s) + math.sin(th)
            y += math.cos(th - s) - math.cos(th)
            th -= s
    return x, y, th


def rs_all_words(x, y, phi, reach_tol=1e-8):
    """Every valid word of the family for the normalized goal (x, y, phi)."""
    words = []
    for fn in _PATH_FNS:
        for word in (
            fn(x, y, phi),
            _timeflip(fn(-x, y, -phi)),
            _reflect(fn(x, -y, -phi)),
            _reflect(_timeflip(fn(-x, -y, phi))),
        ):
            word = [(s, g, p) for s, g, p in word if p > 1e-12]
            ex, ey, eth = integrate_word(word)
            if (
                abs(ex - x) <= reach_tol
                and abs(ey - y) <= reach_tol
                and abs(_m(eth - phi)) <= reach_tol
            ):
                words.append(word)
    return words


def rs_shortest_length_bruteforce(start, goal, radius):
    """Minimum length (meters) over the full validated word family.

    ``start`` and ``goal`` are (x, y, theta) triples in world units.
    """
    sx, sy, sth = start
    gx, gy, gth = goal
    c, s = math.cos(sth), math.sin(sth)
    dx, dy = gx - sx, gy - sy
    x = (c * dx + s * dy) / radius
    y = (-s * dx + c * dy) / radius
    phi = _m(gth - sth)
    words = rs_all_words(x, y, phi)
    if not words and abs(x) < 1e-12 and abs(y) < 1e-12 and abs(phi) < 1e-12:
        return 0.0
    best = min(sum(p for _, _, p in w) for w in words)
    return best * radius


# ---------------------------------------------------------------------------
# advantage estimation: plain recursive GAE on one episode
# ---------------------------------------------------------------------------


def gae_recursive(rewards, values, bootstrap, terminal, gamma, lam):
    """GAE over a single trajectory.

    ``bootstrap`` is the value of the state after the last transition;
    ``terminal`` tells whether the trajectory ended in a true terminal
    state (bootstrap forced to zero) rather than a truncation/cut.
    """
    n = len(rewards)
    adv = np.zeros(n)
    next_value = 0.0 if terminal else bootstrap
    next_adv = 0.0
    for t in reversed(range(n)):
        is_last = t == n - 1
        v_next = next_value if is_last else values[t + 1]
        nonterminal = 0.0 if (is_last and terminal) else 1.0
        delta = rewards[t] + gamma * v_next * nonterminal - values[t]
        next_adv = delta + gamma * lam * nonterminal * next_adv
        adv[t] = next_adv
    return adv


def search_key_oracle(x, y, theta, direction, xy_resolution, theta_resolution):
    """Hybrid A* search key of one pose, one Python float at a time: the
    heading is wrapped to (-pi, pi] before it is binned."""
    if not -math.pi < theta <= math.pi:
        theta = math.pi - (math.pi - theta) % (2.0 * math.pi)
    return (
        math.floor(x / xy_resolution),
        math.floor(y / xy_resolution),
        math.floor(theta / theta_resolution),
        direction,
    )


def octile_distance(ax, ay, bx, by, resolution):
    dx = abs(ax - bx)
    dy = abs(ay - by)
    return resolution * (max(dx, dy) + (math.sqrt(2.0) - 1.0) * min(dx, dy))


# ---------------------------------------------------------------------------
# policy: single-query attention with explicit key and value projections
# ---------------------------------------------------------------------------
# The policy network's forward and reverse pass as they were before the
# attention was reassociated: every token is projected to a key and a value
# per head, shape (B, H, K, dh). ``cfg`` is a ``PolicyConfig``; ``params``
# and the returned cache use the network's names.


def policy_forward_oracle(params, cfg, batch):
    """(logits, values, cache) for a batch of observations."""
    p = params
    feats, tokens, mask = batch["feats"], batch["tokens"], batch["mask"]
    d = cfg.embed_dim
    nh = cfg.n_heads
    dh = d // nh
    b, k, _ = tokens.shape

    e = np.tanh(tokens @ p["tok_w"] + p["tok_b"])  # (B,K,d)
    q0 = np.tanh(feats @ p["ego_w"] + p["ego_b"])  # (B,d)

    qh = (q0 @ p["wq"]).reshape(b, nh, dh)
    kh = (e @ p["wk"]).reshape(b, k, nh, dh).transpose(0, 2, 1, 3)  # (B,H,K,dh)
    vh = (e @ p["wv"]).reshape(b, k, nh, dh).transpose(0, 2, 1, 3)

    scores = np.einsum("bhd,bhkd->bhk", qh, kh) / math.sqrt(dh)
    masked = np.where(mask[:, None, :], scores, -np.inf)
    m = masked.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)  # rows with no unmasked token
    ex = np.exp(masked - m)
    z = ex.sum(axis=-1, keepdims=True)
    w = ex / np.where(z > 0.0, z, 1.0)  # masked slots exactly 0

    ctx = np.einsum("bhk,bhkd->bhd", w, vh).reshape(b, d)
    attn = ctx @ p["wo"] + p["ob"]
    fused = np.concatenate([q0, attn], axis=1)
    h1 = np.tanh(fused @ p["f1_w"] + p["f1_b"])
    h2 = np.tanh(h1 @ p["f2_w"] + p["f2_b"])
    logits = h2 @ p["act_w"] + p["act_b"]
    values = (h2 @ p["val_w"])[:, 0] + p["val_b"][0]

    cache = {
        "feats": feats, "tokens": tokens, "mask": mask,
        "e": e, "q0": q0, "qh": qh, "kh": kh, "vh": vh, "w": w,
        "ctx": ctx, "fused": fused, "h1": h1, "h2": h2,
    }
    return logits, values, cache


def policy_gradients_oracle(params, cfg, cache, dlogits, dvalues):
    """Gradients of (dlogits . logits + dvalues . values) with respect to
    every parameter, from a cache made by ``policy_forward_oracle``."""
    p = params
    d = cfg.embed_dim
    nh = cfg.n_heads
    dh = d // nh
    b, k, _ = cache["tokens"].shape
    e, q0, w = cache["e"], cache["q0"], cache["w"]
    h1, h2, fused, ctx = cache["h1"], cache["h2"], cache["fused"], cache["ctx"]

    g = {}
    g["act_w"] = h2.T @ dlogits
    g["act_b"] = dlogits.sum(axis=0)
    g["val_w"] = (h2 * dvalues[:, None]).sum(axis=0)[:, None]
    g["val_b"] = np.array([dvalues.sum()])

    dh2 = dlogits @ p["act_w"].T + dvalues[:, None] * p["val_w"][:, 0]
    dh2 = dh2 * (1.0 - h2 * h2)
    g["f2_w"] = h1.T @ dh2
    g["f2_b"] = dh2.sum(axis=0)

    dh1 = (dh2 @ p["f2_w"].T) * (1.0 - h1 * h1)
    g["f1_w"] = fused.T @ dh1
    g["f1_b"] = dh1.sum(axis=0)

    dfused = dh1 @ p["f1_w"].T
    dq0 = dfused[:, :d].copy()
    dattn = dfused[:, d:]

    g["wo"] = ctx.T @ dattn
    g["ob"] = dattn.sum(axis=0)
    dctx = (dattn @ p["wo"].T).reshape(b, nh, dh)

    vh, kh, qh = cache["vh"], cache["kh"], cache["qh"]
    dw = np.einsum("bhd,bhkd->bhk", dctx, vh)
    dvh = np.einsum("bhk,bhd->bhkd", w, dctx)
    ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
    ds = ds / math.sqrt(dh)
    dqh = np.einsum("bhk,bhkd->bhd", ds, kh)
    dkh = np.einsum("bhk,bhd->bhkd", ds, qh)

    dq = dqh.reshape(b, d)
    dk = dkh.transpose(0, 2, 1, 3).reshape(b, k, d)
    dv = dvh.transpose(0, 2, 1, 3).reshape(b, k, d)

    g["wq"] = q0.T @ dq
    dq0 += dq @ p["wq"].T
    g["wk"] = np.tensordot(e, dk, axes=([0, 1], [0, 1]))
    g["wv"] = np.tensordot(e, dv, axes=([0, 1], [0, 1]))
    de = (dk @ p["wk"].T + dv @ p["wv"].T) * (1.0 - e * e)

    g["tok_w"] = np.tensordot(cache["tokens"], de, axes=([0, 1], [0, 1]))
    g["tok_b"] = de.sum(axis=(0, 1))

    dq0 = dq0 * (1.0 - q0 * q0)
    g["ego_w"] = cache["feats"].T @ dq0
    g["ego_b"] = dq0.sum(axis=0)
    return g

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from oracles import policy_forward_oracle, policy_gradients_oracle

from parkplan import cli
from parkplan.errors import InputError
from parkplan.policy import (
    FEATURE_DIM,
    PolicyConfig,
    PolicyNetwork,
    batch_observations,
    make_distribution,
)
from parkplan.ppo import TrainConfig, ppo_loss_and_grads
from parkplan.scenarios import save_scenario, synth_scenario

TINY = PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4)


def random_batch(rng, b=3, k=4, all_masked=False, mask=None):
    feats = rng.uniform(-1, 1, size=(b, FEATURE_DIM))
    tokens = rng.uniform(-1, 1, size=(b, k, 2))
    if mask is None:
        mask = np.zeros((b, k), dtype=bool) if all_masked else rng.uniform(size=(b, k)) < 0.7
    return {"feats": feats, "tokens": tokens, "mask": mask}


def test_forward_deterministic(rng):
    net1 = PolicyNetwork(TINY, seed=7)
    net2 = PolicyNetwork(TINY, seed=7)
    batch = random_batch(rng)
    l1, v1, _ = net1.forward(batch)
    l2, v2, _ = net2.forward(batch)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(v1, v2)


def test_value_is_the_forward_value(rng):
    # the PPO bootstrap: bit for bit the value head of the full forward,
    # for float64 networks and for the float32 copies training runs on
    net = PolicyNetwork(TINY, seed=3)
    net32 = PolicyNetwork(TINY, seed=3)
    net32.params = {k: v.astype(np.float32) for k, v in net32.params.items()}
    for i in range(6):
        mask = np.zeros(4, dtype=bool) if i == 0 else rng.uniform(size=4) < 0.7
        feats = np.concatenate(([rng.uniform(-1, 1), float(i % 3 - 1)],
                                rng.uniform(-1, 1, size=4)))
        obs = {"feats": feats[None], "tokens": rng.uniform(-1, 1, size=(1, 4, 2)),
               "mask": mask[None]}
        for n in (net, net32):
            value = n.value(obs)
            assert type(value) is float
            assert value == n.distribution(batch_observations([obs]))[1][0]


def test_masked_slots_have_no_influence(rng):
    net = PolicyNetwork(TINY, seed=0)
    batch = random_batch(rng, b=4, k=6)
    logits, values, _ = net.forward(batch)
    scrambled = dict(batch)
    scrambled["tokens"] = batch["tokens"].copy()
    scrambled["tokens"][~batch["mask"]] = rng.uniform(-5, 5, size=((~batch["mask"]).sum(), 2))
    l2, v2, _ = net.forward(scrambled)
    np.testing.assert_allclose(l2, logits, atol=1e-12)
    np.testing.assert_allclose(v2, values, atol=1e-12)


def test_integer_mask_acts_as_the_bool_mask(rng):
    net = PolicyNetwork(TINY, seed=8)
    batch = random_batch(rng, b=5, k=4)
    batch["mask"][0] = False  # one row with no live token
    as_int = {**batch, "mask": batch["mask"].astype(np.int64)}
    l1, v1, c1 = net.forward(batch)
    l2, v2, c2 = net.forward(as_int)
    assert np.array_equal(l1, l2) and np.array_equal(v1, v2)
    dlogits, dvalues = rng.normal(size=l1.shape), rng.normal(size=5)
    g1 = net.gradients(c1, dlogits, dvalues)
    g2 = net.gradients(c2, dlogits, dvalues)
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_all_masked_depends_only_on_ego(rng):
    net = PolicyNetwork(TINY, seed=0)
    a = random_batch(rng, b=2, k=4, all_masked=True)
    b = dict(a)
    b["tokens"] = rng.uniform(-1, 1, size=a["tokens"].shape)
    la, va, _ = net.forward(a)
    lb, vb, _ = net.forward(b)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(va, vb)


def test_permutation_invariance(rng):
    net = PolicyNetwork(TINY, seed=3)
    batch = random_batch(rng, b=2, k=8)
    logits, values, _ = net.forward(batch)
    perm = rng.permutation(8)
    permuted = {
        "feats": batch["feats"],
        "tokens": batch["tokens"][:, perm],
        "mask": batch["mask"][:, perm],
    }
    l2, v2, _ = net.forward(permuted)
    np.testing.assert_allclose(l2, logits, atol=1e-9)
    np.testing.assert_allclose(v2, values, atol=1e-9)


def test_attention_weights_single_token(rng):
    net = PolicyNetwork(TINY, seed=1)
    mask = np.zeros((1, 4), dtype=bool)
    mask[0, 2] = True
    batch = random_batch(rng, b=1, k=4, mask=mask)
    _, _, cache = net.forward(batch)
    w = cache["w"][0]  # (heads, K)
    np.testing.assert_allclose(w[:, 2], 1.0, atol=1e-12)
    assert np.all(w[:, [0, 1, 3]] == 0.0)


def test_attention_weights_normalized_and_masked_zero(rng):
    net = PolicyNetwork(TINY, seed=1)
    batch = random_batch(rng, b=5, k=6)
    _, _, cache = net.forward(batch)
    w = cache["w"]
    assert np.all(w >= 0)
    assert np.all(w[~np.repeat(batch["mask"][:, None, :], w.shape[1], 1)] == 0.0)
    sums = w.sum(axis=-1)
    has_tokens = batch["mask"].any(axis=1)
    np.testing.assert_allclose(sums[has_tokens], 1.0, atol=1e-12)
    assert np.all(sums[~has_tokens] == 0.0)


def test_duplicated_token_splits_weight(rng):
    net = PolicyNetwork(TINY, seed=2)
    feats = rng.uniform(-1, 1, size=(1, FEATURE_DIM))
    point = rng.uniform(-1, 1, size=2)
    single = {
        "feats": feats,
        "tokens": np.array([[point, [0, 0], [0, 0], [0, 0]]], dtype=float),
        "mask": np.array([[True, False, False, False]]),
    }
    double = {
        "feats": feats,
        "tokens": np.array([[point, point, [0, 0], [0, 0]]], dtype=float),
        "mask": np.array([[True, True, False, False]]),
    }
    l1, v1, c1 = net.forward(single)
    l2, v2, c2 = net.forward(double)
    np.testing.assert_allclose(c2["w"][0][:, :2], 0.5, atol=1e-12)
    np.testing.assert_allclose(l2, l1, atol=1e-12)
    np.testing.assert_allclose(v2, v1, atol=1e-12)


def test_value_head_independent_of_action_head(rng):
    net = PolicyNetwork(TINY, seed=4)
    batch = random_batch(rng)
    logits, values, _ = net.forward(batch)
    net.params["val_w"] = net.params["val_w"] + 0.5
    net.params["val_b"] = net.params["val_b"] + 1.0
    l2, v2, _ = net.forward(batch)
    np.testing.assert_array_equal(l2, logits)
    assert not np.allclose(v2, values)


# -- distributions --------------------------------------------------------------


def test_uniform_logits_log_prob():
    cfg = PolicyConfig(embed_dim=8, n_heads=2)
    dist = make_distribution(np.zeros((2, 8)), cfg)
    lp = dist.log_prob(np.array([3, 5]))
    np.testing.assert_allclose(lp, -math.log(8), atol=1e-12)
    np.testing.assert_allclose(dist.entropy, math.log(8), atol=1e-12)


def test_peaked_logits_entropy_approaches_zero():
    cfg = PolicyConfig(embed_dim=8, n_heads=2)
    logits = np.zeros((1, 8))
    logits[0, 2] = 50.0
    dist = make_distribution(logits, cfg)
    assert dist.entropy[0] < 1e-12
    assert dist.greedy()[0] == 2


def test_entropy_bounds(rng):
    cfg = PolicyConfig(embed_dim=8, n_heads=2)
    dist = make_distribution(rng.normal(size=(100, 8)), cfg)
    assert np.all(dist.entropy >= 0)
    assert np.all(dist.entropy <= math.log(8) + 1e-12)
    np.testing.assert_allclose(dist.probs.sum(axis=-1), 1.0, atol=1e-6)


def test_chunks_repeat_mode():
    cfg = PolicyConfig(embed_dim=8, n_heads=2, chunk_length=4)
    dist = make_distribution(np.zeros((2, 8)), cfg)
    assert dist.chunks(np.array([3, 6])) == [[3, 3, 3, 3], [6, 6, 6, 6]]


# -- gradients -------------------------------------------------------------------


def loss_for_params(probe, params, batch, actions, old_logp, adv, ret, cfg):
    """The loss with ``params`` assigned to the probe network ``probe``."""
    probe.params = params
    loss, _, _ = ppo_loss_and_grads(probe, batch, actions, old_logp, adv, ret, cfg)
    return float(loss)


def fd_check():
    rng = np.random.default_rng(11)
    cfg = PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=4, chunk_length=3)
    net = PolicyNetwork(cfg, seed=5)
    tcfg = TrainConfig(entropy_coef=0.01, vf_coef=0.5, clip_range=0.2)
    b = 6
    batch = random_batch(rng, b=b, k=4)
    actions = rng.integers(0, 8, size=b)
    dist, _, _ = net.distribution(batch)
    old_logp = dist.log_prob(actions) + rng.normal(scale=0.3, size=b)
    adv = rng.normal(size=b)
    ret = rng.normal(size=b)

    _, _, grads = ppo_loss_and_grads(
        net, batch, actions, old_logp, adv, ret, tcfg
    )
    probe = PolicyNetwork(cfg)
    eps = 1e-6
    worst = 0.0
    for key, g in grads.items():
        flat = g.ravel()
        for i in range(flat.size):
            params = {k: v.copy() for k, v in net.params.items()}
            params[key].ravel()[i] += eps
            up = loss_for_params(probe, params, batch, actions, old_logp, adv, ret, tcfg)
            params[key].ravel()[i] -= 2 * eps
            down = loss_for_params(probe, params, batch, actions, old_logp, adv, ret, tcfg)
            fd = (up - down) / (2 * eps)
            err = abs(flat[i] - fd) / max(abs(flat[i]), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst


def test_gradients_match_finite_differences_repeat():
    assert fd_check() < 1e-3


def test_constant_loss_zero_gradients(rng):
    net = PolicyNetwork(TINY, seed=5)
    batch = random_batch(rng)
    _, _, cache = net.forward(batch)
    g = net.gradients(cache, np.zeros((3, 8)), np.zeros(3))
    assert all(np.all(v == 0) for v in g.values())


def test_gradient_linearity(rng):
    net = PolicyNetwork(TINY, seed=5)
    batch = random_batch(rng)
    _, _, cache = net.forward(batch)
    dlogits = rng.normal(size=(3, 8))
    dvalues = rng.normal(size=3)
    g1 = net.gradients(cache, dlogits, dvalues)
    g2 = net.gradients(cache, 2 * dlogits, 2 * dvalues)
    for k in g1:
        np.testing.assert_allclose(g2[k], 2 * g1[k], rtol=1e-12, atol=1e-14)


def test_kept_token_path_arrays_are_invisible_to_callers(rng):
    """gradients keeps its (B, K, d) arrays between calls and across a batch
    shape change; its results equal a fresh network's bit for bit, caches
    stay as forward left them, and no two calls' gradients share memory."""
    cfg = PolicyConfig(embed_dim=8, n_heads=2, fusion_width=8, k_obstacles=16)
    net = PolicyNetwork(cfg, seed=6)
    calls = []
    for b in (256, 256, 8, 256):
        batch = random_batch(rng, b=b, k=16)
        logits, _, cache = net.forward(batch)
        saved = {k: cache[k].copy() for k in ("e", "w")}
        calls.append((batch, cache, saved, rng.normal(size=logits.shape), rng.normal(size=b)))
    grads = [net.gradients(cache, dl, dv) for _, cache, _, dl, dv in calls]
    for (batch, cache, saved, dl, dv), g in zip(calls, grads):
        fresh = PolicyNetwork(cfg, seed=6)
        _, _, fresh_cache = fresh.forward(batch)
        want = fresh.gradients(fresh_cache, dl, dv)
        assert g.keys() == want.keys()
        assert all(np.array_equal(g[k], want[k]) for k in want)
        assert all(np.array_equal(cache[k], saved[k]) for k in saved)
    for i, g in enumerate(grads):
        for other in grads[i + 1:]:
            assert not any(np.shares_memory(a, b) for a in g.values() for b in other.values())


def oracle_masks(rng, b, k):
    """Random, full, one live token per row, and all-masked rows among live ones."""
    single = np.zeros((b, k), dtype=bool)
    single[np.arange(b), rng.integers(0, k, size=b)] = True
    mixed = rng.uniform(size=(b, k)) < 0.6
    mixed[::2] = False
    return {
        "random": rng.uniform(size=(b, k)) < 0.6,
        "full": np.ones((b, k), dtype=bool),
        "single": single,
        "mixed": mixed,
    }


@pytest.mark.parametrize("b,k", [(1, 256), (8, 64), (256, 64), (3, 4)])
def test_forward_and_gradients_match_projection_oracle(b, k):
    """The pooled attention equals the one with explicit per-token keys and
    values, to 1e-12 of each array's largest magnitude."""
    rng = np.random.default_rng(b * 1000 + k)
    cfg = PolicyConfig(embed_dim=16, n_heads=4, fusion_width=16, chunk_length=3,
                       k_obstacles=k)
    net = PolicyNetwork(cfg, seed=b + k)

    def close(name, got, want):
        scale = max(np.abs(want).max(), 1e-300)
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * scale, name

    for pattern, mask in oracle_masks(rng, b, k).items():
        batch = random_batch(rng, b=b, k=k, mask=mask)
        logits, values, cache = net.forward(batch)
        o_logits, o_values, o_cache = policy_forward_oracle(net.params, cfg, batch)
        close(f"{pattern} logits", logits, o_logits)
        close(f"{pattern} values", values, o_values)
        close(f"{pattern} w", cache["w"], o_cache["w"])

        dlogits = rng.normal(size=logits.shape)
        dvalues = rng.normal(size=b)
        g = net.gradients(cache, dlogits, dvalues)
        o_g = policy_gradients_oracle(net.params, cfg, o_cache, dlogits, dvalues)
        assert g.keys() == o_g.keys() == net.params.keys()
        for name in o_g:
            close(f"{pattern} d{name}", g[name], o_g[name])


@pytest.mark.parametrize("b,k", [(1, 256), (8, 64), (256, 64), (3, 4)])
def test_float32_pass_stays_float32_and_near_float64(b, k):
    """Float32 parameters run the whole pass in float32: every logit, value
    and gradient comes out float32, within 1e-4 of each float64 array's
    largest magnitude (about 1,700 float32 roundoffs; 5.4e-6 was measured
    on these cases)."""
    rng = np.random.default_rng(b * 1000 + k)
    cfg = PolicyConfig(embed_dim=16, n_heads=4, fusion_width=16, chunk_length=3,
                       k_obstacles=k)
    net = PolicyNetwork(cfg, seed=b + k)
    net32 = PolicyNetwork(cfg, seed=b + k)
    net32.params = {name: v.astype(np.float32) for name, v in net.params.items()}

    def close(name, got, want):
        assert got.dtype == np.float32 and got.shape == want.shape, name
        scale = max(np.abs(want).max(), 1e-300)
        assert np.abs(got - want).max() <= 1e-4 * scale, name

    for pattern, mask in oracle_masks(rng, b, k).items():
        batch = random_batch(rng, b=b, k=k, mask=mask)
        logits, values, cache = net.forward(batch)
        logits32, values32, cache32 = net32.forward(batch)
        close(f"{pattern} logits", logits32, logits)
        close(f"{pattern} values", values32, values)
        close(f"{pattern} w", cache32["w"], cache["w"])

        dlogits = rng.normal(size=logits.shape)
        dvalues = rng.normal(size=b)
        g = net.gradients(cache, dlogits, dvalues)
        g32 = net32.gradients(cache32, dlogits.astype(np.float32),
                              dvalues.astype(np.float32))
        assert g32.keys() == g.keys()
        for name in g:
            close(f"{pattern} d{name}", g32[name], g[name])


def test_checkpoint_roundtrip(tmp_path, rng):
    net = PolicyNetwork(TINY, seed=9)
    assert net.extra == {}
    path = tmp_path / "ckpt.npz"
    net.save_checkpoint(path, extra={"note": "test"})
    again = PolicyNetwork.load_checkpoint(path)
    assert again.cfg == net.cfg
    assert again.extra["note"] == "test"
    batch = random_batch(rng)
    l1, v1, _ = net.forward(batch)
    l2, v2, _ = again.forward(batch)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(v1, v2)
    net.params = {k: v.astype(np.float32) for k, v in net.params.items()}
    net.save_checkpoint(path)
    assert all(v.dtype == np.float64 for v in PolicyNetwork.load_checkpoint(path).params.values())


def save_with_chunk_mode(path, net, chunk_mode):
    """Save ``net`` as a checkpoint whose config records ``chunk_mode``, as
    checkpoints did while the policy had a second, factored action head."""
    config = {**asdict(net.cfg), "chunk_mode": chunk_mode}
    meta = {"format_version": 1, "config": config, "seed": net.seed, "extra": {}}
    raw = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, _meta=raw, **net.params)


def test_checkpoint_recording_chunk_mode_repeat_loads(tmp_path, rng):
    net = PolicyNetwork(TINY, seed=9)
    path = tmp_path / "ckpt.npz"
    save_with_chunk_mode(path, net, "repeat")
    again = PolicyNetwork.load_checkpoint(path)
    assert again.cfg == net.cfg
    batch = random_batch(rng)
    np.testing.assert_array_equal(again.forward(batch)[0], net.forward(batch)[0])


def test_checkpoint_recording_chunk_mode_factored_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "ckpt.npz"
    save_with_chunk_mode(path, PolicyNetwork(TINY, seed=9), "factored")
    with pytest.raises(InputError, match="chunk_mode"):
        PolicyNetwork.load_checkpoint(path)
    scenario = tmp_path / "bay.json"
    save_scenario(synth_scenario("perpendicular_bay"), scenario)
    code = cli.main(["eval", "--method", "rl-policy", "--checkpoint", str(path),
                     "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "chunk_mode" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "reshaped"])
def test_checkpoint_params_must_match_config(tmp_path, damage):
    net = PolicyNetwork(TINY, seed=9)
    if damage == "truncated":
        del net.params["val_b"]
    else:
        net.params["wk"] = net.params["wk"][:, :-1]
    path = tmp_path / "ckpt.npz"
    net.save_checkpoint(path)
    with pytest.raises(InputError, match="val_b" if damage == "truncated" else "wk"):
        PolicyNetwork.load_checkpoint(path)


@pytest.mark.parametrize("damage", [
    "no_meta", "unknown_config_key", "zero_k_obstacles", "extra_not_an_object",
    "meta_a_list", "negative_seed",
])
def test_checkpoint_metadata_must_be_readable(tmp_path, capsys, damage):
    net = PolicyNetwork(TINY, seed=9)
    path = tmp_path / "ckpt.npz"
    meta = {"format_version": 1, "config": asdict(TINY), "seed": 9, "extra": {}}
    if damage == "unknown_config_key":
        meta["config"] = {**asdict(TINY), "depth": 3}
    elif damage == "zero_k_obstacles":
        meta["config"] = {**asdict(TINY), "k_obstacles": 0}
    elif damage == "extra_not_an_object":
        meta["extra"] = ["horizon", 12.0]
    elif damage == "meta_a_list":
        meta = [meta]
    elif damage == "negative_seed":
        meta["seed"] = -1
    if damage == "no_meta":
        np.savez(path, **net.params)
    else:
        raw = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, _meta=raw, **net.params)
    with pytest.raises(InputError):
        PolicyNetwork.load_checkpoint(path)
    if damage in ("meta_a_list", "negative_seed"):
        scenario = tmp_path / "bay.json"
        save_scenario(synth_scenario("perpendicular_bay"), scenario)
        code = cli.main(["eval", "--method", "rl-policy", "--checkpoint", str(path),
                         "--scenario", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["text", "npy"])
def test_checkpoint_that_is_no_npz_archive_is_an_input_error(tmp_path, content):
    path = tmp_path / "ckpt.npz"
    if content == "text":
        path.write_text("not a npz")
    else:
        np.save(tmp_path / "params.npy", np.zeros(3))
        (tmp_path / "params.npy").rename(path)
    with pytest.raises(InputError, match="not a checkpoint archive"):
        PolicyNetwork.load_checkpoint(path)


@pytest.mark.parametrize("damage", ["object", "string", "nan"])
def test_checkpoint_params_must_be_finite_floats(tmp_path, capsys, damage):
    net = PolicyNetwork(TINY, seed=9)
    d = TINY.embed_dim
    net.params["tok_b"] = {
        "object": np.array([0.5] * d, dtype=object),
        "string": np.array(["0.5"] * d),
        "nan": np.full(d, np.nan),
    }[damage]
    path = tmp_path / "ckpt.npz"
    net.save_checkpoint(path)
    with pytest.raises(InputError, match="tok_b"):
        PolicyNetwork.load_checkpoint(path)
    scenario = tmp_path / "bay.json"
    save_scenario(synth_scenario("perpendicular_bay"), scenario)
    code = cli.main(["eval", "--method", "rl-policy", "--checkpoint", str(path),
                     "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "tok_b" in capsys.readouterr().err

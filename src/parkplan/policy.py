"""Actor-critic network over ego-centric set observations.

A single learned query token (embedded ego/goal features) cross-attends to
the embedded obstacle tokens; masked slots receive exactly zero attention
weight and contribute nothing to outputs or gradients. The fused features
feed a small tanh MLP with a categorical action head and a scalar value
head.

With one query and bias-free key and value projections, the attention is
computed by associativity, as the one-seed pooling by attention of Set
Transformer (Lee et al., ICML 2019): head h scores the embedded tokens e
against W_k,h q_h, pools them as w_h e, and only then applies W_v,h. No
per-token key or value is formed, in the forward or the reverse pass.

The network is numpy with a hand-derived reverse pass. Every pass reads
the network's one weight set, ``params``, and computes in its dtype:
float64 for fresh networks, checkpoints and evaluation, float32 for the
copies ``ppo.train`` swaps in to train with. Gradients are verified
against central finite differences in the test suite. A macro-action is
one categorical choice over the 8 primitives, which the wrapper repeats
for the whole chunk (four repeats of a pre-steer primitive sweep the
steering from 0 to the limit).
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .env import DEFAULT_K
from .errors import ConfigurationError, InputError
from .kinematics import N_ACTIONS

FEATURE_DIM = 6  # steering, gear, goal (4)


@dataclass(frozen=True)
class PolicyConfig:
    embed_dim: int = 64
    n_heads: int = 4
    fusion_width: int = 128
    chunk_length: int = 4
    k_obstacles: int = DEFAULT_K

    def __post_init__(self):
        widths = (self.embed_dim, self.n_heads, self.fusion_width, self.k_obstacles)
        if min(widths) < 1:
            raise ConfigurationError(
                "embed_dim, n_heads, fusion_width and k_obstacles must be >= 1, "
                f"got {widths}"
            )
        if self.embed_dim % self.n_heads != 0:
            raise ConfigurationError("embed_dim must be divisible by n_heads")
        if self.chunk_length < 1:
            raise ConfigurationError("chunk_length must be >= 1")


def batch_observations(batches: list[dict]) -> dict:
    """One policy batch of the rows of ``batches``, in order."""
    return {key: np.concatenate([b[key] for b in batches])
            for key in ("feats", "tokens", "mask")}


@dataclass
class ActionDistribution:
    """Categorical distribution over macro-actions: ``logits`` has shape
    (B, 8) and ``entropy`` is per-sample."""

    logits: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray
    entropy: np.ndarray
    chunk_length: int

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.uniform(size=self.probs.shape[:-1] + (1,))
        cdf = np.cumsum(self.probs, axis=-1)
        return np.minimum((u > cdf).sum(axis=-1), N_ACTIONS - 1)

    def greedy(self) -> np.ndarray:
        return np.argmax(self.logits, axis=-1)

    def log_prob(self, actions: np.ndarray) -> np.ndarray:
        actions = np.asarray(actions)
        if np.any(actions < 0) or np.any(actions >= N_ACTIONS):
            raise InputError("action index out of range")
        return np.take_along_axis(self.log_probs, actions[..., None], axis=-1)[..., 0]

    def chunks(self, actions: np.ndarray) -> list[list[int]]:
        """Primitive index sequences executed by the env wrapper."""
        return [[int(a)] * self.chunk_length for a in np.atleast_1d(actions)]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _head_columns(n_heads: int, head_dim: int, dtype) -> np.ndarray:
    """(n_heads, n_heads * head_dim) 0/1 matrix: row h marks head h's columns."""
    return np.repeat(np.eye(n_heads, dtype=dtype), head_dim, axis=1)


def make_distribution(logits: np.ndarray, cfg: PolicyConfig) -> ActionDistribution:
    logp = _log_softmax(logits)
    p = np.exp(logp)
    ent = -(p * logp).sum(axis=-1)
    return ActionDistribution(logits, logp, p, ent, cfg.chunk_length)


class PolicyNetwork:
    def __init__(self, cfg: PolicyConfig | None = None, seed: int = 0):
        self.cfg = cfg or PolicyConfig()
        self.seed = seed
        self.params = self._init_params(np.random.default_rng(seed))
        self.extra: dict = {}
        # gradients' (B, K, d) token-path pair, de and its 1 - e*e factor,
        # kept between calls so each minibatch does not fault in fresh pages
        self._token_grad: tuple[np.ndarray, np.ndarray] | None = None

    def _init_params(self, rng) -> dict[str, np.ndarray]:
        d = self.cfg.embed_dim
        w = self.cfg.fusion_width

        def uniform(shape, fan_in):
            bound = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        return {
            "tok_w": uniform((2, d), 2),
            "tok_b": np.zeros(d),
            "ego_w": uniform((FEATURE_DIM, d), FEATURE_DIM),
            "ego_b": np.zeros(d),
            "wq": uniform((d, d), d),
            "wk": uniform((d, d), d),
            "wv": uniform((d, d), d),
            "wo": uniform((d, d), d),
            "ob": np.zeros(d),
            "f1_w": uniform((2 * d, w), 2 * d),
            "f1_b": np.zeros(w),
            "f2_w": uniform((w, w), w),
            "f2_b": np.zeros(w),
            "act_w": uniform((w, N_ACTIONS), w),
            "act_b": np.zeros(N_ACTIONS),
            "val_w": uniform((w, 1), w),
            "val_b": np.zeros(1),
        }

    # -- forward -------------------------------------------------------------

    def forward(self, batch: dict):
        """Compute (logits, values, cache) for a batch of observations, in
        the dtype of the parameters."""
        p = self.params
        feats, tokens, mask = batch["feats"], batch["tokens"], batch["mask"]
        if feats.shape[1] != FEATURE_DIM or tokens.shape[2] != 2:
            raise ConfigurationError("observation does not match the network input")
        dtype = p["tok_w"].dtype
        feats = feats.astype(dtype, copy=False)  # no copy for float64 parameters
        tokens = tokens.astype(dtype, copy=False)
        d = self.cfg.embed_dim
        nh = self.cfg.n_heads
        dh = d // nh

        e = tokens @ p["tok_w"]  # (B,K,d), one fresh array per call
        e += p["tok_b"]
        np.tanh(e, out=e)
        q0 = np.tanh(feats @ p["ego_w"] + p["ego_b"])  # (B,d)

        heads = _head_columns(nh, dh, dtype)  # (H,d)
        qh = (q0 @ p["wq"])[:, None, :] * heads  # (B,H,d), head h's query in its own columns
        qk = qh @ p["wk"].T  # (B,H,d): W_k,h q_h
        # one (B,H,K) array holds scores, masked scores and weights, so no
        # fresh temporary is faulted in page by page
        w = qk @ e.transpose(0, 2, 1)  # (B,H,K)
        w /= math.sqrt(dh)
        # logical_not, not ~: ~ turns an integer 0/1 mask into -1/-2, all true
        np.copyto(w, -np.inf, where=np.logical_not(mask)[:, None, :])
        m = w.max(axis=-1, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)  # rows with no unmasked token
        w -= m
        np.exp(w, out=w)
        z = w.sum(axis=-1, keepdims=True)
        w /= np.where(z > 0.0, z, 1.0)  # masked slots exactly 0

        pooled = w @ e  # (B,H,d)
        ctx = ((pooled @ p["wv"]) * heads).sum(axis=1)  # (B,d): pooled_h W_v,h
        attn = ctx @ p["wo"] + p["ob"]
        fused = np.concatenate([q0, attn], axis=1)
        h1 = np.tanh(fused @ p["f1_w"] + p["f1_b"])
        h2 = np.tanh(h1 @ p["f2_w"] + p["f2_b"])
        logits = h2 @ p["act_w"] + p["act_b"]
        values = (h2 @ p["val_w"])[:, 0] + p["val_b"][0]

        cache = {
            "feats": feats, "tokens": tokens, "mask": mask,
            "e": e, "q0": q0, "qh": qh, "qk": qk, "pooled": pooled, "w": w,
            "ctx": ctx, "fused": fused, "h1": h1, "h2": h2,
        }
        return logits, values, cache

    def distribution(self, batch: dict):
        logits, values, cache = self.forward(batch)
        return make_distribution(logits, self.cfg), values, cache

    def value(self, obs: dict) -> float:
        """The value estimate of a one-row batch."""
        _, values, _ = self.forward(obs)
        return float(values[0])

    def attention_weights(self, obs: dict) -> np.ndarray:
        """(n_heads, K) attention weights of a one-row batch over its
        obstacle token slots."""
        _, _, cache = self.forward(obs)
        return cache["w"][0]

    # -- reverse mode ----------------------------------------------------------

    def gradients(
        self, cache: dict, dlogits: np.ndarray, dvalues: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Exact gradients of (dlogits . logits + dvalues . values) with
        respect to every parameter.

        Computes in the cache's dtype, so ``dlogits`` and ``dvalues`` should
        share it: float64 seeds promote a float32 pass back to float64.

        Not reentrant on one network: the token path's (B, K, d) arrays are
        kept on the network between calls and reused while the batch shape
        and dtype hold. No returned gradient and no cache entry shares them,
        so a cache stays valid and gradients stay fresh arrays.
        """
        p = self.params
        d = self.cfg.embed_dim
        nh = self.cfg.n_heads
        dh = d // nh
        e, q0, w = cache["e"], cache["q0"], cache["w"]
        qh, qk, pooled = cache["qh"], cache["qk"], cache["pooled"]
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
        heads = _head_columns(nh, dh, e.dtype)
        dctx = (dattn @ p["wo"].T)[:, None, :] * heads  # (B,H,d)
        g["wv"] = pooled.reshape(-1, d).T @ dctx.reshape(-1, d)
        dpooled = dctx @ p["wv"].T  # (B,H,d)
        ds = dpooled @ e.transpose(0, 2, 1)  # (B,H,K): dw, then in place ds
        ds -= (ds * w).sum(axis=-1, keepdims=True)
        ds *= w  # (dw - s) * w, the same bits as w * (dw - s)
        ds /= math.sqrt(dh)
        dqk = ds @ e  # (B,H,d)
        g["wk"] = dqk.reshape(-1, d).T @ qh.reshape(-1, d)
        dq = ((dqk @ p["wk"]) * heads).sum(axis=1)  # (B,d)

        g["wq"] = q0.T @ dq
        dq0 += dq @ p["wq"].T
        kept = self._token_grad
        if kept is None or kept[0].shape != e.shape or kept[0].dtype != e.dtype:
            self._token_grad = (np.empty_like(e), np.empty_like(e))
        de, t = self._token_grad
        # de = ds^T qk + w^T dpooled, as one product over the stacked heads
        np.matmul(np.concatenate([ds, w], axis=1).transpose(0, 2, 1),
                  np.concatenate([qk, dpooled], axis=1), out=de)
        np.multiply(e, e, out=t)
        np.subtract(1.0, t, out=t)
        de *= t

        g["tok_w"] = np.tensordot(cache["tokens"], de, axes=([0, 1], [0, 1]))
        g["tok_b"] = de.sum(axis=(0, 1))

        dq0 = dq0 * (1.0 - q0 * q0)
        g["ego_w"] = cache["feats"].T @ dq0
        g["ego_b"] = dq0.sum(axis=0)
        return g

    # -- persistence -----------------------------------------------------------

    def save_checkpoint(self, path, extra: dict | None = None) -> None:
        meta = {
            "format_version": 1,
            "config": asdict(self.cfg),
            "seed": self.seed,
            "extra": extra or {},
        }
        meta_bytes = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, _meta=meta_bytes, **self.params)

    @classmethod
    def load_checkpoint(cls, path) -> "PolicyNetwork":
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"checkpoint not found: {path}")
        try:
            archive = np.load(path)
        except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
            raise InputError(f"{path}: not a checkpoint archive: {exc}")
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise InputError(
                f"{path}: not a checkpoint archive: holds a {type(archive).__name__}"
            )
        with archive as data:
            try:
                meta = json.loads(bytes(data["_meta"]).decode())
            except (KeyError, ValueError) as exc:
                raise InputError(f"{path}: no readable checkpoint metadata: {exc}")
            params = {}
            for k in data.files:
                if k == "_meta":
                    continue
                try:
                    v = data[k]
                except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
                    raise InputError(f"{path}: checkpoint parameter {k} is unreadable: {exc}")
                if not np.issubdtype(v.dtype, np.floating):
                    raise InputError(
                        f"{path}: checkpoint parameter {k} holds {v.dtype}, not real floats"
                    )
                if not np.isfinite(v).all():
                    raise InputError(f"{path}: checkpoint parameter {k} holds non-finite values")
                # a loaded network computes in float64, as evaluation does;
                # training keeps float64 master weights and saves those
                params[k] = v.astype(np.float64, copy=False)
        if not isinstance(meta, dict):
            raise InputError(f"{path}: checkpoint metadata must be an object")
        if meta.get("format_version") != 1:
            raise InputError(
                f"unsupported checkpoint format {meta.get('format_version')}"
            )
        seed = meta.get("seed")
        if not (type(seed) is int and seed >= 0):
            raise InputError(f"{path}: checkpoint seed must be an integer >= 0, got {seed!r}")
        try:
            config = meta["config"]
            if isinstance(config, dict) and config.get("chunk_mode") == "repeat":
                # written when the policy had a second, factored action head
                config = {k: v for k, v in config.items() if k != "chunk_mode"}
            net = cls(PolicyConfig(**config), seed=seed)
        except (KeyError, TypeError, ConfigurationError) as exc:
            raise InputError(f"{path}: checkpoint config does not fit PolicyConfig: {exc}")
        if not isinstance(meta.get("extra", {}), dict):
            raise InputError(f"{path}: checkpoint extra must be an object")
        expected = {k: v.shape for k, v in net.params.items()}
        stored = {k: v.shape for k, v in params.items()}
        problems = [
            f"{k}: stored {stored.get(k, 'nothing')}, "
            f"config needs {expected.get(k, 'nothing')}"
            for k in sorted(expected.keys() | stored.keys())
            if stored.get(k) != expected.get(k)
        ]
        if problems:
            raise InputError(
                f"{path}: checkpoint parameters do not match its config: "
                + "; ".join(problems)
            )
        net.params = params
        net.extra = meta.get("extra", {})
        return net

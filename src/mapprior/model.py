"""Two-branch location prior: convolutional map encoder, recurrent odometry
encoder, per-cell dot-product scoring, and the weighted-MSE training loop.

The map branch is a small U-Net emitting a c-channel embedding with the input
map's spatial dimensions ("deep map tensor"); the odometry branch is a stacked
LSTM whose last hidden state embeds a relative-position window ("deep
trajectory vector").  The score heatmap is their per-cell dot product, so the
map embedding can be computed once per map and reused for every query.

Training regresses `targets.location_target` of each window's true end
position with a plain squared error: a unit Gaussian peak plus a constant
floor on free cells, zero on occupied ones.  The regression optimum is the
floor plus the smoothed posterior of where the agent is, so the heatmap is a
positive, location-bearing likelihood for the particle filter.
`targets.make_target`, the overlap target with the formula of acceptance
criterion 3, is not regressed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from .nn.tensor import Tensor, backward, constant, parameter, zero_grads
from .occupancy import OccupancyMap, crop
from .simulate import PERIOD_ATOL, NoiseProfile, Trajectory, window
# make_target stays importable from here: perfbench traces model.make_target.
from .targets import location_target, make_target  # noqa: F401


class TrainingDiverged(RuntimeError):
    pass


# Cell-unit window positions are divided by this before entering the LSTM so
# typical windows land in the non-saturating range of the gate nonlinearities.
ODOM_INPUT_SCALE = 1.0 / 16.0


@dataclass(frozen=True)
class ModelConfig:
    channels: int = 32        # embedding width c
    unet_depth: int = 3       # encoder levels including the bottleneck
    base_width: int = 16      # channels at the top level; doubles per level
    lstm_layers: int = 2
    window_len: int = 5       # samples per odometry window at 1 Hz
    crop_size: int = 64       # training crop side, cells
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.01
    val_fraction: float = 0.1
    augment_copies: int = 1
    target_dilate: int = 0        # accepted; no effect on training
    max_grad_norm: float = 1.0    # global-norm clip; <= 0 disables
    warmup_epochs: int = 2        # linear learning-rate ramp

    def __post_init__(self):
        if self.channels < 1 or self.unet_depth < 1:
            raise ValueError("channels and unet_depth must be >= 1")
        if self.crop_size % (2 ** self.unet_depth) != 0:
            raise ValueError(
                f"crop_size {self.crop_size} must be divisible by 2^depth "
                f"({2 ** self.unet_depth})")
        if self.window_len < 1 or self.lstm_layers < 1:
            raise ValueError("window_len and lstm_layers must be >= 1")

    def widths(self) -> list[int]:
        return [self.base_width * (2 ** i) for i in range(self.unet_depth)]

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from parsed JSON; a float field also accepts an int."""
        if not isinstance(d, dict):
            raise ValueError("model config is not a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            kind = {"int": int, "float": (int, float)}[types[key]]
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"config {key} must be {types[key]}, not {value!r}")
        return cls(**d)


def init_weights(config: ModelConfig, seed: int,
                 dtype=np.float32) -> dict[str, Tensor]:
    """Kaiming-uniform conv weights, uniform +-1/sqrt(H) LSTM weights."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    def conv(name, c_in, c_out, k):
        bound = np.sqrt(6.0 / (c_in * k * k))
        params[f"{name}.w"] = parameter(
            rng.uniform(-bound, bound, (c_out, c_in, k, k)), dtype)
        params[f"{name}.b"] = parameter(np.zeros(c_out), dtype)

    widths = config.widths()
    c_in = 1
    for i, w in enumerate(widths):
        conv(f"unet.enc{i}.c1", c_in, w, 3)
        conv(f"unet.enc{i}.c2", w, w, 3)
        c_in = w
    for i in range(config.unet_depth - 2, -1, -1):
        conv(f"unet.dec{i}.up", widths[i + 1], widths[i], 3)
        conv(f"unet.dec{i}.c1", 2 * widths[i], widths[i], 3)
        conv(f"unet.dec{i}.c2", widths[i], widths[i], 3)
    conv("unet.out", widths[0], config.channels, 1)

    hidden = config.channels
    bound = 1.0 / np.sqrt(hidden)
    in_f = 2
    for layer in range(config.lstm_layers):
        for tag, shape in (("w_ih", (4 * hidden, in_f)),
                           ("w_hh", (4 * hidden, hidden)),
                           ("b_ih", (4 * hidden,)), ("b_hh", (4 * hidden,))):
            params[f"lstm.l{layer}.{tag}"] = parameter(
                rng.uniform(-bound, bound, shape), dtype)
        in_f = hidden
    return params


def as_tensors(weights: dict) -> dict[str, Tensor]:
    return {k: (v if isinstance(v, Tensor) else constant(np.asarray(v, dtype=np.float32)))
            for k, v in weights.items()}


def unet_forward(x: Tensor, params: dict[str, Tensor],
                 config: ModelConfig) -> Tensor:
    """Map branch on x (N, 1, H, W); H and W must divide 2^(depth-1)."""
    skips = []
    h = x
    for i in range(config.unet_depth):
        h = nn.relu(nn.conv2d(h, params[f"unet.enc{i}.c1.w"],
                              params[f"unet.enc{i}.c1.b"]))
        h = nn.relu(nn.conv2d(h, params[f"unet.enc{i}.c2.w"],
                              params[f"unet.enc{i}.c2.b"]))
        if i < config.unet_depth - 1:
            skips.append(h)
            h = nn.maxpool2(h)
    for i in range(config.unet_depth - 2, -1, -1):
        h = nn.upsample2(h)
        h = nn.relu(nn.conv2d(h, params[f"unet.dec{i}.up.w"],
                              params[f"unet.dec{i}.up.b"]))
        h = nn.concat([h, skips.pop()], axis=1)
        h = nn.relu(nn.conv2d(h, params[f"unet.dec{i}.c1.w"],
                              params[f"unet.dec{i}.c1.b"]))
        h = nn.relu(nn.conv2d(h, params[f"unet.dec{i}.c2.w"],
                              params[f"unet.dec{i}.c2.b"]))
    return nn.conv2d(h, params["unet.out.w"], params["unet.out.b"])


def lstm_param_list(params: dict[str, Tensor],
                    config: ModelConfig) -> list[dict[str, Tensor]]:
    return [{tag: params[f"lstm.l{layer}.{tag}"]
             for tag in ("w_ih", "w_hh", "b_ih", "b_hh")}
            for layer in range(config.lstm_layers)]


def encode_map(occ: OccupancyMap, weights: dict,
               config: ModelConfig) -> np.ndarray:
    """Deep map tensor (c, H, W) for a full map; pads to the U-Net stride and
    crops back so output dims always equal the input dims."""
    params = as_tensors(weights)
    h, w = occ.free.shape
    mult = 2 ** config.unet_depth
    ph = (-h) % mult
    pw = (-w) % mult
    inp = occ.free.astype(np.float32)[None, None]
    if ph or pw:
        inp = np.pad(inp, ((0, 0), (0, 0), (0, ph), (0, pw)))
    out = unet_forward(constant(inp), params, config).data[0]
    return np.ascontiguousarray(out[:, :h, :w])


def encode_odometry(window_cells: np.ndarray, weights: dict,
                    config: ModelConfig) -> np.ndarray:
    """Deep trajectory vector (c,) for one relative window, in cell units."""
    arr = np.asarray(window_cells, dtype=np.float32)
    if arr.shape != (config.window_len, 2):
        raise ValueError(
            f"window shape {arr.shape} does not match configured "
            f"({config.window_len}, 2)")
    params = as_tensors(weights)
    out = nn.lstm_forward(constant(arr[None] * ODOM_INPUT_SCALE),
                          lstm_param_list(params, config), config.channels)
    return out.data[0].copy()


def score(map_tensor: np.ndarray, traj_vector: np.ndarray) -> np.ndarray:
    """Heatmap of per-cell dot products between embeddings."""
    if map_tensor.shape[0] != traj_vector.shape[0]:
        raise ValueError(
            f"channel mismatch: map {map_tensor.shape[0]} vs vector "
            f"{traj_vector.shape[0]}")
    return np.einsum("chw,c->hw", map_tensor, traj_vector)


# --- training -----------------------------------------------------------------

@dataclass(frozen=True)
class TrainingSample:
    crop_free: np.ndarray      # (S, S) float32, 1 = free
    window_cells: np.ndarray   # (L, 2) float32, noisy relative positions
    target_values: np.ndarray  # (S, S) float32
    loss_weights: np.ndarray   # (S, S) float32


def augment_window(rel_window: np.ndarray, noise: NoiseProfile,
                   resolution: float, rng: np.random.Generator) -> np.ndarray:
    """Velocity bias plus accumulated white position noise, window re-zeroed."""
    if noise.fixed_bias is not None:
        b = float(noise.fixed_bias)
    else:
        b = float(rng.normal(1.0, noise.velocity_bias_sigma))
    steps = rng.normal(0.0, noise.additive_sigma * resolution,
                       (len(rel_window), 2))
    steps[0] = 0.0
    return b * rel_window + np.cumsum(steps, axis=0)


def build_training_set(occ: OccupancyMap, trajectories: list[Trajectory],
                       config: ModelConfig, noise: NoiseProfile, seed: int,
                       stride: int = 1) -> list[TrainingSample]:
    """Chronologically ordered (crop, noisy window, target) samples.

    Crop centers are jittered so the window's true end stays inside the
    central half of the crop.  The target is `location_target` of the true
    end position with unit loss weights; the window is the clean window with
    `augment_window` noise.  config.target_dilate has no effect.  Windows
    are sample counts, so every trajectory must have a 1 s period.
    """
    for traj in trajectories:
        if not np.allclose(np.diff(traj.t), 1.0, rtol=0, atol=PERIOD_ATOL):
            raise ValueError("training trajectories must be sampled at 1 Hz")
    rng = np.random.default_rng(seed)
    res = occ.resolution
    jitter = config.crop_size // 4
    samples: list[TrainingSample] = []
    for traj in trajectories:
        wins = window(traj.xy, config.window_len, 1.0)[::stride]
        ends = traj.xy[config.window_len - 1 :][::stride]
        for k in range(len(wins)):
            end_cell = occ.world_to_cell(ends[k])
            for _ in range(config.augment_copies):
                center = (end_cell[0] + int(rng.integers(-jitter, jitter + 1)),
                          end_cell[1] + int(rng.integers(-jitter, jitter + 1)))
                patch = crop(occ, center, config.crop_size)
                values = location_target(patch.map, ends[k])
                noisy = augment_window(wins[k], noise, res, rng)
                samples.append(TrainingSample(
                    crop_free=patch.map.free.astype(np.float32),
                    window_cells=(noisy / res).astype(np.float32),
                    target_values=values.astype(np.float32),
                    loss_weights=np.ones_like(values, dtype=np.float32)))
    return samples


def _stack(samples: list[TrainingSample]):
    crops = np.stack([s.crop_free for s in samples])[:, None]
    wins = np.stack([s.window_cells for s in samples])
    targets = np.stack([s.target_values for s in samples])
    weights = np.stack([s.loss_weights for s in samples])
    return crops, wins, targets, weights


def _batch_loss(params: dict[str, Tensor], config: ModelConfig, crops, wins,
                targets, weights) -> Tensor:
    mt = unet_forward(constant(crops), params, config)
    vec = nn.lstm_forward(constant(wins * ODOM_INPUT_SCALE),
                          lstm_param_list(params, config), config.channels)
    pred = nn.channel_dot(mt, vec)
    return nn.weighted_mse(pred, targets, weights)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm.

    Keeps the early optimization phase from killing activations outright; the
    loss concentrates most of its mass on near-zero targets, and unclipped
    first steps reliably drive the encoder into a dead, spatially constant
    regime.
    """
    total = np.sqrt(sum(float((p.grad ** 2).sum())
                        for p in params.values() if p.grad is not None))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return total


def _eval_loss(params: dict[str, Tensor], config: ModelConfig, data,
               batch_size: int) -> float:
    crops, wins, targets, weights = data
    saved = [(p, p.requires_grad) for p in params.values()]
    for p, _ in saved:
        p.requires_grad = False
    try:
        total = 0.0
        for i in range(0, len(crops), batch_size):
            sl = slice(i, i + batch_size)
            loss = _batch_loss(params, config, crops[sl], wins[sl],
                               targets[sl], weights[sl])
            total += loss.item() * (len(crops[sl]) / len(crops))
    finally:
        for p, flag in saved:
            p.requires_grad = flag
    return total


def train(dataset: list[TrainingSample], config: ModelConfig, seed: int,
          log_fn=None) -> tuple[dict[str, np.ndarray], list[tuple[int, float, float]]]:
    """Fit the model; returns the best-validation weights and the loss curve.

    The dataset is assumed chronological; the validation split takes the
    trailing val_fraction with a window-length gap to avoid overlap leakage.
    History rows are (epoch, train_loss, val_loss), with epoch 0 recording the
    untrained losses.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    rng = np.random.default_rng(seed)
    params = init_weights(config, int(rng.integers(2 ** 31)))

    n_val = int(round(config.val_fraction * len(dataset)))
    gap = config.window_len * config.augment_copies
    n_train = len(dataset) - n_val - gap
    if n_val > 0 and n_train >= config.batch_size:
        train_set = dataset[:n_train]
        val_set = dataset[len(dataset) - n_val :]
    else:
        train_set = dataset
        val_set = dataset
    train_data = _stack(train_set)
    val_data = _stack(val_set)

    opt = nn.AdamState(lr=config.learning_rate)
    history: list[tuple[int, float, float]] = []
    t0 = _eval_loss(params, config, train_data, config.batch_size)
    v0 = _eval_loss(params, config, val_data, config.batch_size)
    history.append((0, t0, v0))
    best_val = v0
    best = {k: p.data.copy() for k, p in params.items()}

    crops, wins, targets, weights = train_data
    for epoch in range(1, config.epochs + 1):
        if config.warmup_epochs > 0:
            opt.lr = config.learning_rate * min(
                1.0, (epoch - 0.5) / config.warmup_epochs)
        perm = rng.permutation(len(crops))
        total = 0.0
        for i in range(0, len(perm), config.batch_size):
            idx = perm[i : i + config.batch_size]
            zero_grads(params)
            loss = _batch_loss(params, config, crops[idx], wins[idx],
                               targets[idx], weights[idx])
            backward(loss)
            clip_gradients(params, config.max_grad_norm)
            nn.adam_step(params, opt)
            total += loss.item() * (len(idx) / len(perm))
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"loss became non-finite at epoch {epoch} (lr="
                f"{config.learning_rate}, batch={config.batch_size})")
        val = _eval_loss(params, config, val_data, config.batch_size)
        history.append((epoch, total, val))
        if val < best_val:
            best_val = val
            best = {k: p.data.copy() for k, p in params.items()}
        if log_fn is not None:
            log_fn(epoch, total, val)
    return best, history

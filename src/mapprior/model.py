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

from dataclasses import dataclass, fields

import numpy as np

from . import nn
from .nn.tensor import (Tensor, backward, constant, keep_freed_memory, parameter,
                        zero_grads)
from .occupancy import OccupancyMap, crop
from .simulate import NoiseProfile, Trajectory, check_fields, require_1hz, window
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
    window_len: int = 5       # samples per training window
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
        low = {f.name: 1 for f in fields(self) if f.type == "int"}
        low.update(epochs=0, warmup_epochs=0, target_dilate=0, learning_rate=0)
        check_fields(self, "config ", low, above=("learning_rate",))
        if not 0 <= self.val_fraction < 1:
            raise ValueError(f"config val_fraction must be in [0, 1), "
                             f"not {self.val_fraction}")
        if np.isnan(self.max_grad_norm):
            raise ValueError("config max_grad_norm must not be nan")
        if self.crop_size % (2 ** self.unet_depth) != 0:
            raise ValueError(
                f"crop_size {self.crop_size} must be divisible by 2^depth "
                f"({2 ** self.unet_depth})")

    def widths(self) -> list[int]:
        return [self.base_width * (2 ** i) for i in range(self.unet_depth)]

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from parsed JSON; __post_init__ checks the values."""
        if not isinstance(d, dict):
            raise ValueError("model config is not a JSON object")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def weight_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight the config builds, in init order."""
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name, c_in, c_out, k):
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (c_out, c_in, k, k), (c_out,)

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

    h = config.channels
    for layer in range(config.lstm_layers):
        for tag, shape in (("w_ih", (4 * h, h if layer else 2)), ("w_hh", (4 * h, h)),
                           ("b_ih", (4 * h,)), ("b_hh", (4 * h,))):
            shapes[f"lstm.l{layer}.{tag}"] = shape
    return shapes


def init_weights(config: ModelConfig, seed: int,
                 dtype=np.float32) -> dict[str, Tensor]:
    """Kaiming-uniform conv kernels, zero conv biases, uniform +-1/sqrt(H)
    LSTM weights."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in weight_shapes(config).items():
        if name.startswith("lstm."):
            bound = 1.0 / np.sqrt(config.channels)
        elif name.endswith(".b"):
            params[name] = parameter(np.zeros(shape), dtype)
            continue
        else:  # conv kernel (c_out, c_in, k, k)
            bound = np.sqrt(6.0 / (shape[1] * shape[2] * shape[3]))
        params[name] = parameter(rng.uniform(-bound, bound, shape), dtype)
    return params


def as_tensors(weights: dict) -> dict[str, Tensor]:
    return {k: (v if isinstance(v, Tensor) else constant(np.asarray(v, dtype=np.float32)))
            for k, v in weights.items()}


def check_weights(weights: dict, config: ModelConfig) -> None:
    """Raise ValueError unless weights holds exactly the layers config builds,
    each of its shape and finite in float32, the dtype the model runs in."""
    arrays = {k: t.data for k, t in as_tensors(weights).items()}
    want = weight_shapes(config)
    have = {k: a.shape for k, a in arrays.items()}
    if have != want:
        k = min(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
        raise ValueError(f"layer {k} is {have.get(k, 'missing')} in the weights "
                         f"but {want.get(k, 'absent')} in the model config")
    for k, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"layer {k} has non-finite values")


def unet_forward(x: Tensor, params: dict[str, Tensor],
                 config: ModelConfig) -> Tensor:
    """Map branch on x (N, 1, H, W); H and W must be multiples of 2^(depth-1)."""
    def block(h, name):
        return nn.relu(nn.conv2d(h, params[f"{name}.w"], params[f"{name}.b"]))

    # One op per statement, so inference frees each input before the next op.
    skips = []
    h = x
    for i in range(config.unet_depth):
        h = block(h, f"unet.enc{i}.c1")
        h = block(h, f"unet.enc{i}.c2")
        if i < config.unet_depth - 1:
            skips.append(h)
            h = nn.maxpool2(h)
    for i in range(config.unet_depth - 2, -1, -1):
        h = nn.upsample2(h)
        h = block(h, f"unet.dec{i}.up")
        h = nn.concat([h, skips.pop()], axis=1)
        h = block(h, f"unet.dec{i}.c1")
        h = block(h, f"unet.dec{i}.c2")
    return nn.conv2d(h, params["unet.out.w"], params["unet.out.b"])


def lstm_param_list(params: dict[str, Tensor],
                    config: ModelConfig) -> list[dict[str, Tensor]]:
    return [{tag: params[f"lstm.l{layer}.{tag}"]
             for tag in ("w_ih", "w_hh", "b_ih", "b_hh")}
            for layer in range(config.lstm_layers)]


def encode_map(occ: OccupancyMap, weights: dict,
               config: ModelConfig) -> np.ndarray:
    """Deep map tensor (c, H, W) for a full map; pads to the U-Net stride and
    crops back so output dims equal the input dims.  Checks the weights first."""
    check_weights(weights, config)
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
    """Deep trajectory vector (c,) for one relative window (L, 2) in cell
    units; L may differ from config.window_len, the training length."""
    arr = np.asarray(window_cells, dtype=np.float32)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != 2:
        raise ValueError(f"window shape {arr.shape} is not (L, 2) with L >= 1")
    params = as_tensors({k: v for k, v in weights.items() if k.startswith("lstm.")})
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
    are sample counts, so every trajectory must pass `require_1hz`.
    """
    for traj in trajectories:
        require_1hz(traj)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, not {stride}")
    rng = np.random.default_rng(seed)
    res = occ.resolution
    jitter = config.crop_size // 4
    samples: list[TrainingSample] = []
    for traj in trajectories:
        wins = window(traj.xy, config.window_len)[::stride]
        ends = traj.xy[config.window_len - 1 :][::stride]
        for k in range(len(wins)):
            end_cell = occ.world_to_cell(ends[k])
            for _ in range(config.augment_copies):
                center = (end_cell[0] + int(rng.integers(-jitter, jitter + 1)),
                          end_cell[1] + int(rng.integers(-jitter, jitter + 1)))
                patch = crop(occ, center, config.crop_size)
                values = location_target(patch, ends[k])
                noisy = augment_window(wins[k], noise, res, rng)
                samples.append(TrainingSample(
                    crop_free=patch.free.astype(np.float32),
                    window_cells=(noisy / res).astype(np.float32),
                    target_values=values.astype(np.float32),
                    loss_weights=np.ones_like(values, dtype=np.float32)))
    return samples


def _stack(samples: list[TrainingSample]):
    crops, wins, targets, weights = (np.stack([getattr(s, f.name) for s in samples])
                                     for f in fields(TrainingSample))
    return crops[:, None], wins, targets, weights


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
    # Constants over the same arrays: no graph is built, nothing is copied.
    frozen = as_tensors({k: p.data for k, p in params.items()})
    total = 0.0
    for i in range(0, len(crops), batch_size):
        sl = slice(i, i + batch_size)
        loss = _batch_loss(frozen, config, crops[sl], wins[sl],
                           targets[sl], weights[sl])
        total += loss.item() * (len(crops[sl]) / len(crops))
    return total


def train(dataset: list[TrainingSample], config: ModelConfig,
          seed: int) -> tuple[dict[str, np.ndarray], list[tuple[int, float, float]]]:
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

    keep_freed_memory()
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
    return best, history
